"""Regenerate the committed deep-substrate fixture in this directory.

``deep.npz`` pins, bit for bit, what the autodiff tape, the layers and the
ADAM optimizer produce:

* small fits on stickfigures (:data:`CASES`) of
  :class:`~repro.deep.KhatriRaoDKM` (sum and compressed, and product,
  uncompressed with ``alpha=50``), :class:`~repro.deep.DKM`,
  :class:`~repro.deep.IDEC`, :class:`~repro.deep.KhatriRaoIDEC`,
  :class:`~repro.deep.DEC` and :class:`~repro.deep.KhatriRaoDEC`:
  ``labels_``, ``pretrain_loss_``, ``clustering_loss_``, the centroid or
  protocentroid parameters, the materialized ``centroids()`` and every
  autoencoder parameter;
* a 30-step ADAM trajectory over mixed-shape parameters (0-d, 1-D, 2-D)
  where one parameter has no gradient on some steps
  (:func:`adam_trajectory`): every parameter after every step.

``tests/test_deep_fixtures.py`` recomputes every array and requires it to
equal the fixture (values and signs of zero), so a change to the deep
substrate that moves a single bit of a fit fails there.

Regenerate only when the deep result changes on purpose::

    PYTHONPATH=src python tests/fixtures/deep/make_deep.py
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
FIXTURE = HERE / "deep.npz"

#: Shared configuration of every fitted case: three batches per epoch,
#: the last one partial.
FIT_PARAMS = dict(hidden_dims=(16, 8, 4), pretrain_epochs=2,
                  clustering_epochs=3, batch_size=32, kmeans_n_init=2,
                  random_state=0)

#: Steps of the ADAM trajectory.
ADAM_STEPS = 30


def make_data() -> np.ndarray:
    from repro.datasets import load_dataset

    return load_dataset("stickfigures", scale=0.1, random_state=0).data


def _kr_dkm():
    from repro.deep import KhatriRaoDKM

    return KhatriRaoDKM((3, 3), **FIT_PARAMS)


def _dkm():
    from repro.deep import DKM

    return DKM(9, **FIT_PARAMS)


def _idec():
    from repro.deep import IDEC

    return IDEC(9, **FIT_PARAMS)


def _kr_idec():
    from repro.deep import KhatriRaoIDEC

    return KhatriRaoIDEC((3, 3), **FIT_PARAMS)


def _dec():
    from repro.deep import DEC

    return DEC(9, **FIT_PARAMS)


def _kr_dec():
    from repro.deep import KhatriRaoDEC

    return KhatriRaoDEC((3, 3), **FIT_PARAMS)


def _kr_product_dkm():
    from repro.deep import KhatriRaoDKM

    return KhatriRaoDKM((3, 3), aggregator="product",
                        compress_autoencoder=False, alpha=50.0, **FIT_PARAMS)


#: case name -> estimator factory
CASES = {
    "kr_dkm": _kr_dkm,
    "dkm": _dkm,
    "idec": _idec,
    "kr_idec": _kr_idec,
    "dec": _dec,
    "kr_dec": _kr_dec,
    "kr_product_dkm": _kr_product_dkm,
}


def fit_arrays(name: str, X: np.ndarray) -> dict:
    """The fixture arrays of case ``name`` fitted on ``X``."""
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        model = CASES[name]().fit(X)
    arrays = {
        f"{name}_labels": model.labels_,
        f"{name}_pretrain_loss": np.asarray(model.pretrain_loss_),
        f"{name}_clustering_loss": np.asarray(model.clustering_loss_),
        f"{name}_centroids": model.centroids(),
    }
    for i, theta in enumerate(model.centroid_params_):
        arrays[f"{name}_centroid_param{i}"] = theta.numpy()
    for i, p in enumerate(model.autoencoder_.parameters()):
        arrays[f"{name}_ae_param{i}"] = p.numpy()
    return arrays


def adam_trajectory() -> dict:
    """Every parameter after every step of a 30-step ADAM run.

    Gradients are drawn from a fixed generator and assigned directly, so
    the trajectory exercises the optimizer alone.  The 1-D parameter has no
    gradient on every third step; ADAM must leave its data and moments
    untouched on those steps.
    """
    from repro.autodiff import Tensor
    from repro.nn import Adam

    rng = np.random.default_rng(11)
    params = [
        Tensor(rng.normal(size=(4, 3)), requires_grad=True),
        Tensor(np.float64(0.5), requires_grad=True),
        Tensor(rng.normal(size=5), requires_grad=True),
        Tensor(rng.normal(size=(2, 6)), requires_grad=True),
    ]
    optimizer = Adam(params, 0.05)
    history = [[] for _ in params]
    for step in range(ADAM_STEPS):
        optimizer.zero_grad()
        for i, p in enumerate(params):
            if i == 2 and step % 3 == 1:
                continue
            p.grad = rng.normal(size=p.shape) * 10.0 ** rng.integers(-3, 3)
        optimizer.step()
        for i, p in enumerate(params):
            history[i].append(p.numpy().copy())
    return {f"adam_param{i}": np.stack(h) for i, h in enumerate(history)}


def main() -> None:
    X = make_data()
    arrays = {"data": X}
    for name in CASES:
        arrays.update(fit_arrays(name, X))
    arrays.update(adam_trajectory())
    np.savez_compressed(FIXTURE, **arrays)
    print("wrote", FIXTURE)


if __name__ == "__main__":
    main()
