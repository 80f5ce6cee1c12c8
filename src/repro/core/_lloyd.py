"""The one Lloyd engine behind the three k-means estimators.

Khatri-Rao k-Means (paper Algorithm 1) is Lloyd's algorithm with a
closed-form protocentroid update, standard k-Means is its one-set case,
and the mini-batch estimator runs the same loop over sampled batches.
This module owns the control flow they share:

* :func:`fit_restarts` — the restart sweep.  Sequentially it resumes from
  a checkpoint, keeps the best restart so far and salvages it on
  ``KeyboardInterrupt``; with ``n_jobs`` it runs the restarts on that
  many threads, one spawned RNG stream per restart.  Either way a failing
  restart's own exception propagates and the ``ConvergenceWarning`` is
  raised on the caller's thread.
* :func:`iterate` — the iteration loop: the completed counter, the
  callback, the ``tol`` test, checkpoints on continuing iterations only,
  interrupt salvage, and the final assignment with its float64 weighted
  inertia.  The mini-batch estimator feeds it a step that returns its
  smoothed shift.
* :func:`lloyd_step` and :func:`pruned_assign` — one batch Lloyd
  iteration (assign, update, shift, Hamerly inflation) and its
  bounds-pruned assignment.
* :func:`write_state` / :func:`read_state` — the checkpoint envelope:
  estimator name, parameter header, data fingerprint, counters and RNG
  state around each estimator's own state arrays.

``KhatriRaoKMeans`` — and ``KMeans``, its one-set subclass — plugs into
the batch engine through one adapter built inside ``fit``
(``kr_kmeans._KhatriRaoLloyd``); it carries the fit's context (``X``,
``weights`` — ``None`` or per-row weights, used by the inertia and the
data fingerprint —, ``x_squared_norms``, the row pool ``parallel``,
whether the run ``prunes`` and whether it ``logs_fractions``) and
supplies:

* ``init(rng)`` — fresh protocentroid sets (the model);
* ``assign(model, X, x_squared_norms, return_second=False)`` — the full
  nearest-centroid kernel; ``decode(labels)`` — the per-set labels the
  hooks below take, computed once per iteration;
  ``assigned_rows(model, labels)`` — the centroid of each flat label,
  for bound tightening;
* ``update(model, decoded, min_distances, rng)`` — the next model
  (``min_distances`` is ``None`` after a pruned pass);
* ``shift(old, new)`` — the total squared centroid movement, and
  ``drift(old, new, decoded)`` — ``(assigned_drift, max_drift)`` for
  Hamerly inflation;
* ``model_arrays(model, prefix)`` / ``read_model(arrays, prefix, path)``
  — the model's checkpoint arrays.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from ..exceptions import CheckpointError, ConvergenceWarning, warn_at_call_site
from ..runtime.checkpoint import (
    check_header_fields,
    data_fingerprint,
    read_checkpoint,
    restore_rng_state,
    serialize_rng_state,
    state_array,
    write_checkpoint,
)
from ..runtime.parallel import map_row_blocks
from ._bounds import HamerlyBounds, hamerly_step
from ._distances import paired_squared_distances

__all__ = [
    "fingerprint",
    "fit_restarts",
    "iterate",
    "read_state",
    "write_state",
]


@dataclass
class Run:
    """One restart: its cross-iteration state, then its result."""

    model: object
    labels: np.ndarray
    bounds: Optional[HamerlyBounds] = None
    decoded: Optional[np.ndarray] = None
    fractions: Optional[List[float]] = None
    inertia: float = np.inf
    n_iter: int = 0
    converged: bool = True
    interrupted: bool = False


# ------------------------------------------------------------ checkpoints
def fingerprint(est, X, weights) -> Optional[dict]:
    """The data fingerprint for checkpoint headers.  The full-pass sha256
    only feeds checkpoints, so plain fits (and streamed memmap fits)
    skip it entirely."""
    if est.checkpoint is None and est.resume_from is None:
        return None
    return data_fingerprint(X, weights)


def write_state(est, path, fields: dict, arrays: dict, rng=None) -> None:
    """Write one checkpoint: the estimator name and parameter header,
    ``fields``, the RNG state when given, and ``arrays``."""
    header = {
        "estimator": type(est).__name__,
        "params": est._param_header(),
        **fields,
    }
    if rng is not None:
        header["rng_state"] = serialize_rng_state(rng)
    write_checkpoint(path, header, arrays)


def read_state(est, path, rng=None, **expected):
    """Read and verify a checkpoint written for ``est``; returns
    ``(header, arrays)``.

    The estimator name, the parameter header and every ``expected``
    field must match (a typed :class:`CheckpointError` otherwise); with
    ``rng`` the recorded RNG state is restored into it in place.
    """
    header, arrays = read_checkpoint(path)
    check_header_fields(
        header,
        {
            "estimator": type(est).__name__,
            "params": est._param_header(),
            **expected,
        },
        path=path,
    )
    if rng is not None:
        restore_rng_state(rng, header["rng_state"])
    return header, arrays


def _fractions(arrays: dict, key: str) -> Optional[List[float]]:
    return [float(f) for f in arrays[key]] if key in arrays else None


def _run_arrays(adapter, run: Run, prefix: str = "") -> dict:
    arrays = {
        **adapter.model_arrays(run.model, prefix),
        f"{prefix}labels": run.labels,
    }
    if run.fractions is not None:
        arrays[f"{prefix}fractions"] = np.asarray(run.fractions, dtype=np.float64)
    return arrays


def _read_run(adapter, arrays: dict, prefix: str, path) -> Run:
    return Run(
        adapter.read_model(arrays, prefix, path),
        state_array(arrays, f"{prefix}labels", np.int64, path),
        fractions=_fractions(arrays, f"{prefix}fractions"),
    )


def _save_restart(est, adapter, rng, fp, restart, iteration, run, best):
    arrays = _run_arrays(adapter, run)
    if run.bounds is not None:
        arrays["bounds_upper"] = run.bounds.upper
        arrays["bounds_lower"] = run.bounds.lower
    if best is not None:
        arrays.update(_run_arrays(adapter, best, "best_"))
    write_state(est, est.checkpoint.path, {
        "data": fp,
        "restart": restart,
        "iteration": iteration,
        "bounds_initialized": (
            None if run.bounds is None else bool(run.bounds.initialized)
        ),
        "has_best": best is not None,
        "best_inertia": None if best is None else float(best.inertia),
        "best_iterations": 0 if best is None else int(best.n_iter),
    }, arrays, rng)


def _load_restart(est, adapter, rng, fp):
    """Unpack ``resume_from``: ``(restart, (run, start_iteration), best)``;
    restores ``rng`` in place."""
    path = est.resume_from
    header, arrays = read_state(est, path, rng, data=fp)
    run = _read_run(adapter, arrays, "", path)
    if adapter.prunes:
        if "bounds_upper" not in arrays:
            raise CheckpointError(
                f"{path} carries no pruning bounds but the resuming "
                "estimator prunes", field="bounds_upper",
            )
        # The dtype-margin scalars are deterministic functions of the
        # constructor inputs, so only the per-point arrays and the
        # initialized flag need the round trip.
        run.bounds = HamerlyBounds(adapter.x_squared_norms, adapter.X.shape[1])
        run.bounds.upper = state_array(arrays, "bounds_upper", np.float64, path)
        run.bounds.lower = state_array(arrays, "bounds_lower", np.float64, path)
        run.bounds.initialized = bool(header["bounds_initialized"])
        run.decoded = adapter.decode(run.labels)
    best = None
    if header.get("has_best"):
        best = _read_run(adapter, arrays, "best_", path)
        best.inertia = float(header["best_inertia"])
        best.n_iter = int(header["best_iterations"])
    resume = (run, int(header["iteration"]) + 1)
    return int(header["restart"]), resume, best


# ---------------------------------------------------------------- the loop
def iterate(step, finish, weights, *, start, max_iter, tol, callback,
            restart_index=0, checkpoint=None, save=None):
    """Run ``step()`` for iterations ``start..max_iter``, then ``finish()``.

    ``step`` returns the iteration's shift; the loop stops once it falls
    below ``tol``.  After each completed iteration the ``callback`` sees
    ``(restart_index, iteration)``, and a continuing iteration calls
    ``save(iteration)`` when the checkpoint is due — so a resumed run
    always has at least the terminal iteration left to do.  A
    ``KeyboardInterrupt`` (from a step or the callback) ends the loop
    early with the state it reached.  ``finish`` returns the final
    ``(labels, distances)``.

    Returns ``(labels, inertia, completed, converged, interrupted)``;
    the inertia is the float64 weighted sum of ``distances``.
    """
    completed = start - 1
    converged = interrupted = False
    try:
        for iteration in range(start, max_iter + 1):
            shift = step()
            completed = iteration
            if callback is not None:
                callback(restart_index, iteration)
            if shift < tol:
                converged = True
                break
            if checkpoint is not None and checkpoint.due(iteration):
                save(iteration)
    except KeyboardInterrupt:
        interrupted = True
    labels, distances = finish()
    # float64 reduction for any working dtype (exact no-op at f64).
    inertia = float(
        distances.sum(dtype=np.float64) if weights is None
        else (distances * weights).sum(dtype=np.float64)
    )
    return labels, inertia, completed, converged, interrupted


def pruned_assign(adapter, model, labels, bounds):
    """One Hamerly-pruned assignment pass; ``hamerly_step``'s
    ``(labels, fraction, full_d1)``.

    The tightening pass gathers every candidate's assigned centroid once
    (``adapter.assigned_rows``, one grid gather when the grid is the
    smaller side), then both sweeps run over row blocks of
    ``adapter.parallel``: the tightening distances split on fixed blocks
    of ``idx`` (each candidate's distance is independent, so the
    concatenation is exact), and the rescore routes through the
    adapter's row-blocked assignment kernel.
    """
    X, norms, parallel = adapter.X, adapter.x_squared_norms, adapter.parallel

    def exact_squared(idx):
        rows = adapter.assigned_rows(model, labels[idx])
        return np.concatenate(map_row_blocks(
            parallel,
            lambda start, stop: paired_squared_distances(
                X[idx[start:stop]], rows[start:stop],
            ),
            idx.size,
        ))

    def rescore(idx):
        if idx is None:
            return adapter.assign(model, X, norms, return_second=True)
        return adapter.assign(model, X[idx], norms[idx], return_second=True)

    return hamerly_step(bounds, labels, exact_squared, rescore)


def lloyd_step(adapter, run: Run, rng, tol: float) -> float:
    """One batch Lloyd iteration on ``run``; returns the shift."""
    model, bounds = run.model, run.bounds
    if bounds is None:
        labels, min_distances = adapter.assign(
            model, adapter.X, adapter.x_squared_norms
        )
    else:
        labels, fraction, min_distances = pruned_assign(
            adapter, model, run.labels, bounds
        )
        if run.fractions is not None:
            run.fractions.append(fraction)
    decoded = adapter.decode(labels)
    new_model = adapter.update(model, decoded, min_distances, rng)
    shift = adapter.shift(model, new_model)
    if bounds is not None and shift >= tol:
        # Triangle-inequality inflation: the assigned centroid's drift
        # raises each upper bound, the grid-wide maximum lowers every
        # second-nearest bound.
        bounds.inflate(*adapter.drift(model, new_model, decoded))
    run.model, run.labels, run.decoded = new_model, labels, decoded
    return shift


def _restart(est, adapter, rng, restart, resume=None, fp=None, best=None) -> Run:
    if resume is None:
        bounds = None
        model = adapter.init(rng)
        if adapter.prunes:
            bounds = HamerlyBounds(adapter.x_squared_norms, adapter.X.shape[1])
        run = Run(
            model, np.zeros(adapter.X.shape[0], dtype=np.int64), bounds,
            fractions=[] if bounds is not None and adapter.logs_fractions else None,
        )
        start = 1
    else:
        run, start = resume
    (run.labels, run.inertia, run.n_iter, converged,
     run.interrupted) = iterate(
        lambda: lloyd_step(adapter, run, rng, est.tol),
        lambda: adapter.assign(run.model, adapter.X, adapter.x_squared_norms),
        adapter.weights,
        start=start, max_iter=est.max_iter, tol=est.tol,
        callback=est.callback, restart_index=restart,
        checkpoint=est.checkpoint,
        save=lambda iteration: _save_restart(
            est, adapter, rng, fp, restart, iteration, run, best
        ),
    )
    # An interrupted run is reported as interrupted, not as unconverged.
    run.converged = converged or run.interrupted
    run.bounds = run.decoded = None
    return run


def _warn_not_converged(est) -> None:
    warn_at_call_site(
        f"{type(est).__name__} did not converge in {est.max_iter} iterations",
        ConvergenceWarning,
    )


def _parallel_restarts(est, adapter, rng):
    """The ``n_jobs`` sweep; returns ``(runs in seed order, interrupted)``.

    Restart ``i`` draws from ``rng.spawn(n_init)[i]`` on one of
    ``est.n_jobs`` threads, all sharing the row pool (``submit`` is
    thread-safe and block workers never re-enter it), so the result is
    the same at every width.  Runs are collected in seed order — the
    :meth:`RowBlockPool.map <repro.runtime.parallel.RowBlockPool.map>`
    idiom — so the first failure met is the lowest failing seed index:
    the restarts not yet started are cancelled, the running ones waited
    out, and that restart's own exception propagates.  A callback-raised
    interrupt ends the collection at the interrupted restart, as in the
    sequential sweep; Ctrl-C keeps every completed restart and abandons
    the running ones.
    """
    streams = rng.spawn(est.n_init)
    pool = ThreadPoolExecutor(est.n_jobs, thread_name_prefix="repro-restart")
    futures = [pool.submit(_restart, est, adapter, stream, restart)
               for restart, stream in enumerate(streams)]
    runs, abandon = [], False
    try:
        for future in futures:
            runs.append(future.result())
            if runs[-1].interrupted:
                break
    except KeyboardInterrupt:
        abandon = True
        runs = [f.result() for f in futures
                if f.done() and not f.cancelled() and f.exception() is None]
        if not runs:
            raise
        return runs, True
    finally:
        pool.shutdown(wait=not abandon, cancel_futures=True)
    return runs, runs[-1].interrupted


def fit_restarts(est, adapter, rng):
    """Run ``est.n_init`` restarts; returns ``(best Run, interrupted)``."""
    if est.n_jobs is not None:
        runs, interrupted = _parallel_restarts(est, adapter, rng)
        # Warn here, on the calling thread, not on the restart's thread.
        for run in runs:
            if not run.converged:
                _warn_not_converged(est)
        # ``min`` keeps the first minimum: ties go to the lowest seed.
        return min(runs, key=lambda run: run.inertia), interrupted

    fp = est._data_fingerprint(adapter.X, adapter.weights)
    best = resume = None
    start_restart = 0
    if est.resume_from is not None:
        start_restart, resume, best = _load_restart(est, adapter, rng, fp)
    interrupted = False
    for restart in range(start_restart, est.n_init):
        try:
            run = _restart(est, adapter, rng, restart, resume, fp, best)
        except KeyboardInterrupt:
            # Interrupted before this restart completed one iteration:
            # keep the best earlier restart if there is one.
            if best is None:
                raise
            interrupted = True
            break
        resume = None
        if not run.converged:
            _warn_not_converged(est)
        if best is None or run.inertia < best.inertia:
            best = run
        if run.interrupted:
            interrupted = True
            break
    return best, interrupted
