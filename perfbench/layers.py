"""Which program functions the traced run wraps, and the per-layer metrics.

:func:`install` wraps the public entry points of each layer through a
:class:`~spans.Recorder`; :func:`layer_metrics` turns the recorded spans
into the per-layer metrics named in ``perfbench/README.md``.  Every metric
is reported for every workload: a layer a workload bypasses reads 0.
Times and counts are per unit operation of the workload (one fit, one
stream batch), so runs of different lengths compare.
"""

from __future__ import annotations

import os
from typing import Dict

import numpy as np

from .spans import Recorder

#: Span names whose summed outermost duration is ``core.update.update_s``.
UPDATE_SPANS = (
    "core.update.update", "core.update.minibatch_step",
    "core.update.pair_count_tables", "core.update.factored_sum_numerator",
    "core.update.grouped_row_sum", "core.update.group_mass",
)
#: One span of these per update step (``core.update.update_calls``).
UPDATE_STEP_SPANS = ("core.update.update", "core.update.minibatch_step")
#: Bounds bookkeeping whose self time is ``core.bounds.step_self_s``.
BOUNDS_SELF_SPANS = ("core.bounds.step", "core.bounds.maintain")

PER_LAYER_UNITS = {
    "core.factored.assign_s": "s",
    "core.factored.assign_calls": "count",
    "core.factored.assign_rows": "count",
    "core.update.update_s": "s",
    "core.update.update_calls": "count",
    "core.minibatch.partial_fit_self_s": "s",
    "core.bounds.step_self_s": "s",
    "core.bounds.tighten_s": "s",
    "core.bounds.rescored_fraction": "fraction",
    "core.lloyd.iterations": "count",
    "linalg.aggregators.shift_drift_s": "s",
    "core.distances.s": "s",
    "runtime.parallel.pool_opens": "count",
    "runtime.parallel.map_calls": "count",
    "runtime.parallel.blocks": "count",
    "runtime.parallel.map_s": "s",
    "runtime.checkpoint.writes": "count",
    "runtime.checkpoint.write_s": "s",
    "runtime.checkpoint.bytes": "bytes",
    "monitoring.engine.observe_s": "s",
    "monitoring.policy.consider_s": "s",
    "autodiff.backward_s": "s",
    "autodiff.backward_calls": "count",
    "nn.forward_s": "s",
    "nn.optim.adam_step_s": "s",
    "nn.optim.adam_steps": "count",
    "nn.autoencoder.pretrain_s": "s",
    "nn.training.joint_s": "s",
    "deep.centroid_init_s": "s",
    "serving.http.server_p50_ms": "ms",
    "serving.batcher.batch_exec_p50_ms": "ms",
    "serving.batcher.queue_wait_p50_ms": "ms",
    "serving.batcher.mean_batch_requests": "count",
    "serving.transport_gap_p50_ms": "ms",
    "serving.generator_lag_max_ms": "ms",
    "serving.client.latency_p95_ms": "ms",
    "serving.max_rate_rps": "1/s",
    "trace.coverage": "fraction",
    "trace.overhead": "fraction",
}


def _rows(args, kwargs, result):
    return {"rows": int(np.shape(args[0])[0])}


def _file_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


def _fit_stats(args, kwargs, result):
    fractions = result.reassignment_fractions_ or []
    return {"iterations": int(result.n_iter_), "fractions": list(fractions)}


def _step_stats(args, kwargs, result):
    fractions = result.reassignment_fractions_ or []
    return {"iterations": 1, "fractions": list(fractions[-1:])}


def install(recorder: Recorder) -> None:
    """Wrap every layer entry point the per-layer metrics read.

    Modules imported after this call keep the originals, so the workloads
    run every operation untraced first."""
    from repro.autodiff import Tensor
    from repro.core import _bounds, _distances, _factored, _update
    from repro.core.kr_kmeans import KhatriRaoKMeans
    from repro.core.minibatch import MiniBatchKhatriRaoKMeans
    from repro.deep import base as deep_base
    from repro.deep import compression, losses
    from repro.linalg.aggregators import SumAggregator
    from repro.monitoring import engine, pipeline, policies
    from repro.nn import autoencoder, layers, optim, training
    from repro.runtime import checkpoint, parallel

    fn, method = recorder.patch_function, recorder.patch_method

    # core: assignment, update, bounds, distances, drift
    fn(_factored.assign_factored, "core.factored.assign", _rows)
    fn(_update.update_protocentroids, "core.update.update")
    fn(_update.pair_count_tables, "core.update.pair_count_tables")
    fn(_update.factored_sum_numerator, "core.update.factored_sum_numerator")
    fn(_update._weighted_grouped_row_sum, "core.update.grouped_row_sum")
    fn(_factored.grouped_row_sum, "core.update.grouped_row_sum")
    fn(_update._group_mass, "core.update.group_mass")
    method(MiniBatchKhatriRaoKMeans, "_apply_batch_update",
           "core.update.minibatch_step")
    method(MiniBatchKhatriRaoKMeans, "partial_fit",
           "core.minibatch.partial_fit", _step_stats)
    method(KhatriRaoKMeans, "fit", "core.kr_kmeans.fit", _fit_stats)
    method(KhatriRaoKMeans, "_init_protocentroids", "core.init")
    _install_hamerly_step(recorder, _bounds)
    method(MiniBatchKhatriRaoKMeans, "_pruned_batch_labels", "core.bounds.step")
    method(_bounds.HamerlyBounds, "tighten", "core.bounds.tighten")
    for name in ("initialize", "inflate", "candidates", "refresh"):
        method(_bounds.HamerlyBounds, name, "core.bounds.maintain")
    for name in ("observe", "settled", "record", "advance"):
        method(_bounds.StreamingBounds, name, "core.bounds.maintain")
    fn(_bounds.drift_inflation_from_tables, "core.bounds.maintain")
    for name in ("factored_shift", "factored_drift"):
        method(SumAggregator, name, "linalg.aggregators.shift_drift")
    for func in (_distances.row_norms_squared,
                 _distances.paired_squared_distances,
                 _distances.squared_distances, _distances.assign_to_nearest):
        fn(func, "core.distances")

    # runtime: row pool and checkpoints
    fn(parallel.open_row_pool, "runtime.parallel.open",
       lambda a, k, r: {"pool": isinstance(r, parallel.RowBlockPool)})
    _install_pool_map(recorder, parallel.RowBlockPool)
    fn(checkpoint.write_checkpoint, "runtime.checkpoint.write", _file_bytes)
    fn(checkpoint.read_checkpoint, "runtime.checkpoint.read")

    # monitoring
    method(engine.DriftEngine, "observe", "monitoring.engine.observe")
    for cls in vars(policies).values():
        if isinstance(cls, type) and "consider" in cls.__dict__:
            method(cls, "consider", "monitoring.policy.consider")
    method(pipeline.MonitoredStream, "save", "monitoring.pipeline.save")

    # deep clustering: autodiff, nn, deep
    method(Tensor, "backward", "autodiff.backward")
    method(layers.Module, "__call__", "nn.forward")
    method(optim.Adam, "step", "nn.optim.adam_step")
    method(training.Trainer, "run", "nn.training.run")
    method(autoencoder.Autoencoder, "pretrain", "nn.autoencoder.pretrain")
    method(autoencoder.Autoencoder, "reconstruction_loss",
           "nn.autoencoder.reconstruction_loss")
    method(autoencoder.Autoencoder, "transform", "nn.autoencoder.transform")
    fn(autoencoder.build_autoencoder, "nn.autoencoder.build")
    fn(compression.fit_compressed_autoencoder, "deep.compression.pretrain")
    fn(losses.dkm_loss, "deep.losses.dkm")
    method(deep_base.BaseDeepClustering, "_init_centroid_params",
           "deep.centroid_init")
    method(deep_base.BaseDeepClustering, "_joint_training", "nn.training.joint")


def _install_hamerly_step(recorder: Recorder, bounds_module) -> None:
    """``hamerly_step`` gets the two callables it drives wrapped as well:
    the exact-distance gather is bound tightening, the subset argmin is
    the rescore."""
    original = bounds_module.hamerly_step

    def hamerly_step(bounds, labels, exact_squared_fn, rescore_fn):
        with recorder.span("core.bounds.step"):
            return original(
                bounds, labels,
                recorder.wrap(exact_squared_fn, "core.bounds.tighten"),
                recorder.wrap(rescore_fn, "core.bounds.rescore"),
            )

    recorder.rebind(original, hamerly_step)


def _install_pool_map(recorder: Recorder, pool_class) -> None:
    """``RowBlockPool.map`` spans the whole map; each block runs on a pool
    thread as a child span of it."""
    original = pool_class.__dict__["map"]

    def map(pool, block_fn, n_rows):
        with recorder.span("runtime.parallel.map"):
            parent = recorder.current()

            def block(start, stop):
                with recorder.adopt(parent), recorder.span("runtime.parallel.block"):
                    return block_fn(start, stop)

            return original(pool, block, n_rows)

    recorder.install(pool_class, "map", map)


def layer_metrics(recorder: Recorder, n_ops: int) -> Dict[str, float]:
    """Per-op layer metrics from the spans of ``n_ops`` traced operations."""
    spans = recorder.spans
    self_times = recorder.self_times()
    per_op = 1.0 / max(n_ops, 1)

    def outer(*names):
        return [spans[i] for i in recorder.outermost(names)]

    def total(*names):
        return sum(s.duration for s in outer(*names)) * per_op

    def count(*names):
        return len(outer(*names)) * per_op

    def self_total(*names):
        wanted = frozenset(names)
        return sum(
            t for s, t in zip(spans, self_times) if s.name in wanted
        ) * per_op

    def attr_total(name, key):
        return sum((s.attrs or {}).get(key, 0) for s in outer(name)) * per_op

    fits = outer("core.kr_kmeans.fit", "core.minibatch.partial_fit")
    fractions = [f for s in fits for f in (s.attrs or {}).get("fractions", [])]
    iterations = sum((s.attrs or {}).get("iterations", 0) for s in fits)
    return {
        "core.factored.assign_s": total("core.factored.assign"),
        "core.factored.assign_calls": count("core.factored.assign"),
        "core.factored.assign_rows": attr_total("core.factored.assign", "rows"),
        "core.update.update_s": total(*UPDATE_SPANS),
        "core.update.update_calls": count(*UPDATE_STEP_SPANS),
        "core.minibatch.partial_fit_self_s": self_total("core.minibatch.partial_fit"),
        "core.bounds.step_self_s": self_total(*BOUNDS_SELF_SPANS),
        "core.bounds.tighten_s": total("core.bounds.tighten"),
        "core.bounds.rescored_fraction": (
            float(np.mean(fractions)) if fractions else 0.0
        ),
        "core.lloyd.iterations": iterations * per_op,
        "linalg.aggregators.shift_drift_s": total("linalg.aggregators.shift_drift"),
        "core.distances.s": total("core.distances"),
        "runtime.parallel.pool_opens": attr_total("runtime.parallel.open", "pool"),
        "runtime.parallel.map_calls": count("runtime.parallel.map"),
        "runtime.parallel.blocks": count("runtime.parallel.block"),
        "runtime.parallel.map_s": total("runtime.parallel.map"),
        "runtime.checkpoint.writes": count("runtime.checkpoint.write"),
        "runtime.checkpoint.write_s": total("runtime.checkpoint.write"),
        "runtime.checkpoint.bytes": attr_total("runtime.checkpoint.write", "bytes"),
        "monitoring.engine.observe_s": total("monitoring.engine.observe"),
        "monitoring.policy.consider_s": total("monitoring.policy.consider"),
        "autodiff.backward_s": total("autodiff.backward"),
        "autodiff.backward_calls": count("autodiff.backward"),
        "nn.forward_s": total("nn.forward"),
        "nn.optim.adam_step_s": total("nn.optim.adam_step"),
        "nn.optim.adam_steps": count("nn.optim.adam_step"),
        "nn.autoencoder.pretrain_s": total("nn.autoencoder.pretrain"),
        "nn.training.joint_s": total("nn.training.joint"),
        "deep.centroid_init_s": total("deep.centroid_init"),
    }


#: Spans that only drive other layers: their self time is not attributed.
SHELL_SPANS = ("core.kr_kmeans.fit",)


def coverage(recorder: Recorder, root: str) -> float:
    """Share of the ``root`` spans' time spent inside named layer spans,
    not counting an estimator's own fit loop as a layer."""
    self_times = recorder.self_times()
    duration = uncovered = 0.0
    for record, own in zip(recorder.spans, self_times):
        if record.name == root:
            duration += record.duration
        if record.name == root or record.name in SHELL_SPANS:
            uncovered += own
    return 1.0 - uncovered / duration if duration > 0 else 0.0
