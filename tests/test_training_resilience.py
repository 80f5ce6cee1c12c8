"""Training chaos suite: interrupts, injected worker deaths, soak runs.

Runs as its own CI step (hard timeout) because it deliberately schedules
kills and torn writes.  Three certifications:

* a ``KeyboardInterrupt`` mid-fit salvages the best completed work
  instead of losing the run (``converged_`` honestly reports the cut);
* the ``n_jobs`` restart sweep fails like the sequential one: a failing
  restart raises its own exception, the lowest failing restart index
  winning at every width;
* a randomized train/save/load soak never leaves a silently-corrupt
  artifact on disk — every failure is typed, and whatever file exists
  always loads cleanly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import KhatriRaoKMeans, KMeans, MiniBatchKhatriRaoKMeans
from repro.datasets import make_blobs
from repro.exceptions import ValidationError
from repro.faults import FaultHook, FaultSchedule, InjectedKernelError, WorkerKill
from repro.summary import DataSummary, summarize


@pytest.fixture
def X():
    data, _ = make_blobs(200, n_features=4, n_clusters=6, cluster_std=0.6,
                         random_state=3)
    return data


class InterruptAt:
    def __init__(self, restart: int, iteration: int):
        self.trigger = (restart, iteration)

    def __call__(self, restart_index: int, iteration: int) -> None:
        if (restart_index, iteration) >= self.trigger:
            raise KeyboardInterrupt


# ------------------------------------------------------ interrupt salvage
def test_kmeans_interrupt_keeps_best_completed_restart(X):
    interrupted = KMeans(6, n_init=3, max_iter=40, random_state=11,
                         callback=InterruptAt(1, 1)).fit(X)
    assert not interrupted.converged_
    assert interrupted.cluster_centers_ is not None
    assert np.isfinite(interrupted.inertia_)
    # Only restart 0 completed, so the salvaged model is exactly the
    # n_init=1 fit under the same seed (sequential restarts share the rng).
    single = KMeans(6, n_init=1, max_iter=40, random_state=11).fit(X)
    assert interrupted.inertia_ == single.inertia_
    assert np.array_equal(interrupted.labels_, single.labels_)
    interrupted.predict(X)  # the salvaged model is fully usable


def test_kr_kmeans_interrupt_keeps_best_completed_restart(X):
    interrupted = KhatriRaoKMeans((2, 3), n_init=3, max_iter=40,
                                  random_state=5,
                                  callback=InterruptAt(1, 1)).fit(X)
    assert not interrupted.converged_
    single = KhatriRaoKMeans((2, 3), n_init=1, max_iter=40,
                             random_state=5).fit(X)
    assert interrupted.inertia_ == single.inertia_
    for a, b in zip(interrupted.protocentroids_, single.protocentroids_):
        assert np.array_equal(a, b)


def test_kr_kmeans_interrupt_mid_first_restart_keeps_partial(X):
    # Nothing complete yet except iterations of restart 0: keep those.
    interrupted = KhatriRaoKMeans((2, 3), n_init=3, max_iter=40,
                                  random_state=5,
                                  callback=InterruptAt(0, 3)).fit(X)
    assert not interrupted.converged_
    assert interrupted.protocentroids_ is not None
    assert np.isfinite(interrupted.inertia_)


def test_minibatch_interrupt_keeps_last_completed_step(X):
    interrupted = MiniBatchKhatriRaoKMeans(
        (2, 3), batch_size=40, max_steps=50, random_state=9,
        callback=InterruptAt(0, 10),
    ).fit(X)
    assert not interrupted.converged_
    assert interrupted.n_steps_ == 10
    interrupted.predict(X)


def test_parallel_interrupt_keeps_completed_restarts(X):
    calls = {"n": 0}

    def interrupt_third_restart(restart_index, iteration):
        if restart_index == 2:
            raise KeyboardInterrupt

    model = KMeans(6, n_init=4, max_iter=40, random_state=11,
                   callback=interrupt_third_restart, n_jobs=1)
    model.fit(X)
    assert not model.converged_
    assert np.isfinite(model.inertia_)


@pytest.mark.parametrize("n_jobs", [1, 2, 4])
def test_parallel_interrupted_restart_competes_for_best(X, n_jobs):
    # Restart 0 is cut after its second iteration; as in the sequential
    # sweep, the runs kept end at the interrupted one, so it is the model.
    def interrupt_first_restart(restart_index, iteration):
        if restart_index == 0 and iteration == 2:
            raise KeyboardInterrupt

    model = KMeans(6, n_init=4, max_iter=40, tol=0.0, random_state=11,
                   callback=interrupt_first_restart, n_jobs=n_jobs).fit(X)
    assert not model.converged_
    assert model.n_iter_ == 2
    assert np.isfinite(model.inertia_)


# ---------------------------------- n_jobs selection, failures, validation
@pytest.mark.parametrize("n_jobs", [1, 2, 4])
def test_parallel_ties_go_to_the_lowest_restart(n_jobs):
    # Two clumps, k=2: every restart reaches the same partition with a
    # bit-equal inertia, but which clump gets label 0 depends on the init.
    rng = np.random.default_rng(0)
    X = np.vstack([rng.normal(0, 0.1, (20, 2)), rng.normal(5, 0.1, (20, 2))])
    # Restart i of an n_jobs sweep runs on the i-th spawned stream, which
    # a one-restart sequential fit seeded with that stream reproduces.
    restarts = [
        KMeans(2, n_init=1, init="random", random_state=stream).fit(X)
        for stream in np.random.default_rng(0).spawn(6)
    ]
    assert len({r.inertia_ for r in restarts}) == 1
    assert not np.array_equal(restarts[0].labels_, restarts[-1].labels_)
    model = KMeans(2, n_init=6, init="random", random_state=0,
                   n_jobs=n_jobs).fit(X)
    assert np.array_equal(model.labels_, restarts[0].labels_)
    assert np.array_equal(model.cluster_centers_, restarts[0].cluster_centers_)


class RaiseInRestarts:
    """A callback raising ``InjectedKernelError`` in chosen restarts.

    ``at`` maps a restart index to the iteration it fails at; each faulty
    restart has its own :class:`FaultHook`, so its schedule counts only
    that restart's iterations whatever the thread timing, and its error
    message names the hook's call index.
    """

    def __init__(self, at):
        self.hooks = {
            restart: FaultHook(FaultSchedule.from_spec({iteration - 1: "raise"}))
            for restart, iteration in at.items()
        }

    def __call__(self, restart_index, iteration):
        hook = self.hooks.get(restart_index)
        if hook is not None:
            hook(restart_index, iteration)


@pytest.mark.parametrize("n_jobs", [1, 2, 4])
@pytest.mark.parametrize("estimator", [KMeans, KhatriRaoKMeans])
def test_lowest_failing_restart_raises_its_own_error(X, n_jobs, estimator):
    # Restart 3 fails at its first iteration, restart 1 only at its last,
    # so on wide sweeps restart 3 fails first in time; restart 1's error
    # must still be the one raised.  tol=0 keeps every restart iterating.
    callback = RaiseInRestarts({1: 5, 3: 1})
    first = 6 if estimator is KMeans else (2, 3)
    model = estimator(first, n_init=4, max_iter=5, tol=0.0, random_state=7,
                      n_jobs=n_jobs, callback=callback)
    with pytest.raises(InjectedKernelError) as excinfo:
        model.fit(X)
    assert str(excinfo.value) == "injected kernel fault #4"
    assert callback.hooks[1].fired == [(4, "1, 5", "raise")]


@pytest.mark.parametrize("n_jobs", [1, 3])
def test_worker_kill_propagates_from_the_restart(X, n_jobs):
    hook = FaultHook(FaultSchedule.from_spec({0: "kill"}))
    with pytest.raises(WorkerKill):
        KMeans(6, n_init=3, max_iter=40, random_state=11, n_jobs=n_jobs,
               callback=lambda r, it: hook(r, it) if r == 2 else None).fit(X)


@pytest.mark.parametrize("estimator", [KMeans, KhatriRaoKMeans])
def test_n_jobs_is_none_or_a_positive_int(estimator, tmp_path):
    first = 6 if estimator is KMeans else (2, 3)
    assert estimator(first, n_jobs=None).n_jobs is None
    assert estimator(first, n_jobs=3).n_jobs == 3
    assert estimator(first, n_jobs=np.int64(2)).n_jobs == 2
    for bad in (0, -1, True, False, 2.0, "4", (2,)):
        with pytest.raises(ValidationError):
            estimator(first, n_jobs=bad)
    # Checkpoints snapshot the sequential sweep only.
    with pytest.raises(ValidationError, match="n_jobs"):
        estimator(first, n_jobs=1, checkpoint=tmp_path / "fit.npz")


# -------------------------------------------------------------- chaos soak
@pytest.mark.parametrize("seed", range(4))
def test_chaos_soak_never_leaves_a_corrupt_artifact(tmp_path, seed, X):
    """Randomized train/save/load storms; the artifact always loads."""
    rng = np.random.default_rng(seed)
    path = tmp_path / "model.npz"
    model = KhatriRaoKMeans((2, 2), n_init=2, max_iter=30,
                            random_state=0).fit(X)
    summarize(model).save(path)

    fault_kinds = ["raise", "kill", "ok"]
    typed_failures = 0
    for _ in range(8):
        action = int(rng.integers(3))
        try:
            if action == 0:
                # A training fault on the n_jobs sweep: the callback hook
                # fires at one of the first three iterations run.
                hook = FaultHook(FaultSchedule.from_spec({
                    int(rng.integers(3)): fault_kinds[int(rng.integers(3))],
                }))
                model = KhatriRaoKMeans(
                    (2, 2), n_init=3, max_iter=30,
                    random_state=int(rng.integers(1000)),
                    n_jobs=2, callback=hook,
                ).fit(X)
            elif action == 1:
                hook = FaultHook(FaultSchedule.random(
                    int(rng.integers(10_000)), 2,
                    p_raise=0.3, p_sleep=0.0, p_kill=0.3,
                ))
                summarize(model).save(path, fault_hook=hook)
            else:
                loaded = DataSummary.load(path)
                assert loaded.n_clusters == 4
        except (InjectedKernelError, WorkerKill):
            typed_failures += 1  # every failure mode is typed — nothing else
        # The invariant under any storm: the artifact on disk is whole.
        recovered = DataSummary.load(path)
        assert recovered.cardinalities == (2, 2)
        assert all(np.all(np.isfinite(theta))
                   for theta in recovered.protocentroids)
