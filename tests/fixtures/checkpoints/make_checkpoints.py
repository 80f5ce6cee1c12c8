"""Regenerate the committed mid-fit checkpoint fixtures in this directory.

Each fixture is a checkpoint written part-way through a fit (or, for the
stream case, a ``save_stream`` snapshot part-way through a ``partial_fit``
sequence).  ``tests/test_checkpoint_fixtures.py`` resumes every fixture
and requires the result to be bit-identical to the uninterrupted run, and
requires a freshly interrupted run to write the same checkpoint again — so
a change to the checkpoint writer or reader that alters the on-disk format
fails there instead of silently orphaning users' snapshots.

Regenerate only when the format changes on purpose::

    PYTHONPATH=src python tests/fixtures/checkpoints/make_checkpoints.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
DATA = HERE / "data.npy"
STREAM_SAVE_AFTER = 5


class InterruptAt:
    """Per-iteration callback raising KeyboardInterrupt at a trigger."""

    def __init__(self, restart: int, iteration: int):
        self.trigger = (restart, iteration)

    def __call__(self, restart_index: int, iteration: int) -> None:
        if (restart_index, iteration) >= self.trigger:
            raise KeyboardInterrupt


def make_data() -> np.ndarray:
    from repro.datasets import make_blobs

    X, _ = make_blobs(160, n_features=3, n_clusters=6, cluster_std=0.7,
                      random_state=21)
    return X


def load_data() -> np.ndarray:
    return np.load(DATA)


def _kmeans():
    from repro import KMeans

    return KMeans(8, n_init=2, max_iter=40, pruning="bounds", random_state=11)


def _kr_kmeans():
    from repro import KhatriRaoKMeans

    return KhatriRaoKMeans((2, 3), n_init=2, max_iter=40, pruning="bounds",
                           random_state=5)


def _minibatch():
    from repro import MiniBatchKhatriRaoKMeans

    return MiniBatchKhatriRaoKMeans((2, 3), batch_size=40, max_steps=30,
                                    pruning="bounds", random_state=9)


#: fixture file -> (estimator factory, (restart, iteration) interrupt trigger)
FIT_CASES = {
    "kmeans_pruned.npz": (_kmeans, (1, 4)),
    "kr_kmeans_pruned_best.npz": (_kr_kmeans, (1, 3)),
    "minibatch_pruned.npz": (_minibatch, (0, 7)),
}
STREAM_CASE = "minibatch_stream.npz"


def stream_model():
    from repro import MiniBatchKhatriRaoKMeans

    return MiniBatchKhatriRaoKMeans((2, 3), random_state=3)


def stream_batches(X: np.ndarray):
    """Ten indexed batches of 32 rows drawn with replacement of ids, so the
    point-identity bounds both learn new points and certify known ones."""
    rng = np.random.default_rng(17)
    out = []
    for _ in range(10):
        idx = np.sort(rng.choice(X.shape[0], size=32, replace=False))
        out.append((X[idx], idx))
    return out


def write_interrupted(name: str, X: np.ndarray, path: Path) -> Path:
    """Run the fit of case ``name`` with a checkpoint at ``path`` until its
    interrupt trigger fires; the last snapshot stays on disk."""
    from repro.runtime import resolve_checkpoint

    factory, trigger = FIT_CASES[name]
    model = factory()
    model.checkpoint = resolve_checkpoint(path)
    model.callback = InterruptAt(*trigger)
    model.fit(X)
    if model.converged_:
        raise RuntimeError(f"{name}: the fit finished before its trigger")
    return path


def write_stream(X: np.ndarray, path: Path) -> Path:
    model = stream_model()
    for batch, idx in stream_batches(X)[:STREAM_SAVE_AFTER]:
        model.partial_fit(batch, index=idx)
    return model.save_stream(path)


def main() -> None:
    X = make_data()
    np.save(DATA, X)
    for name in FIT_CASES:
        print("wrote", write_interrupted(name, X, HERE / name))
    print("wrote", write_stream(X, HERE / STREAM_CASE))


if __name__ == "__main__":
    main()
