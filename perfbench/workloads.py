"""The three in-process workloads: batch fit, monitored stream, deep KR-DKM.

Each workload takes the run's ``seed`` and derives one *instance seed* per
unit of work, ``seed * 1000 + i``: fit ``i`` (or stream pass ``i``) runs
on its own generated instance.  A run therefore spans several instances,
which keeps its figures steady from seed to seed, and the same seed always
replays the same instances.

Every unit of work is checked; a failed check counts into ``failed``.  In
a traced run each instance runs twice, untraced and then traced, so the
tracing overhead is measured on identical work.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import statistics
import tempfile
import time
import warnings
from pathlib import Path
from typing import Callable, Dict, List, Optional

import numpy as np

from . import layers
from .spans import Recorder

PINS_PATH = Path(__file__).with_name("pins.json")
ROOT_SPAN = "bench.op"

FIT_PARAMS = dict(
    n_samples=20000, n_features=64, n_clusters=256, cluster_std=1.0,
    cardinalities=[16, 16], n_init=1, max_iter=60,
)
STREAM_PARAMS = dict(
    cardinalities=[8, 8, 8], n_features=32, grid_scale=8.0, noise=0.2,
    pool=24000, batch=8192, batches=100, save_every=25, n_threads=2,
    policy="alert_only",
)
DEEP_PARAMS = dict(
    dataset="stickfigures", scale=0.45, cardinalities=[3, 3],
    hidden_dims=[64, 32, 10], pretrain_epochs=20, clustering_epochs=10,
    batch_size=256, kmeans_n_init=10,
)
#: Relative tolerance of every pinned floating-point value.
PIN_RTOL = 1e-6
#: Set-up repetitions per instance; their median is ``setup_s``.
SETUP_REPEATS = 3


class Gate:
    """Counts checked operations and the ones whose check failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unpinned = 0
        self.messages: List[str] = []

    def check(self, ok: bool, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)

    def pinned(self, pins: dict, key: int) -> Optional[dict]:
        record = pins.get(str(key))
        if record is None:
            self.unpinned += 1
        return record


class Outcome:
    """What one workload run measured: the gate counts, the metrics the
    run reports, and a detail record (parameters, quality figures)."""

    def __init__(self, gate: Gate, metrics: Dict[str, float], detail: dict,
                 recorder: Optional[Recorder] = None):
        self.recorder = recorder
        self.attempted = gate.attempted
        self.failed = gate.failed
        self.messages = gate.messages
        self.metrics = metrics
        self.detail = dict(detail, unpinned_instances=gate.unpinned)


def instance_seed(seed: int, i: int) -> int:
    return seed * 1000 + i


def fit_count(seconds: int, trace: bool) -> int:
    """Batch fits per run: ~1 s each; a traced run fits each twice."""
    return max(3, seconds // 2 if trace else seconds)


def pass_count(seconds: int, trace: bool) -> int:
    """Stream passes per run: ~3 s each; a traced run runs each twice."""
    return max(2, seconds // 8 if trace else seconds // 4)


def load_pins(workload: str) -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle).get(workload, {})


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def close(a: float, b: float) -> bool:
    return abs(a - b) <= PIN_RTOL * max(abs(a), abs(b))


def timed(fn: Callable):
    """Run ``fn``; returns its result and seconds.  The previous operation's
    garbage is collected first, so no operation pays for another's."""
    gc.collect()
    start = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - start


def median_setup(build: Callable):
    """Build an instance ``SETUP_REPEATS`` times; returns the last build
    and the times of all of them."""
    times = []
    for _ in range(SETUP_REPEATS):
        result, seconds = timed(build)
        times.append(seconds)
    return result, times


def run_traced(recorder: Recorder, fn: Callable):
    """Run ``fn`` with every layer wrapped and recording into ``recorder``."""
    layers.install(recorder)
    try:
        return fn()
    finally:
        recorder.restore()


def trace_metrics(recorder: Recorder, n_ops: int, untraced_s: float,
                  traced_s: float) -> Dict[str, float]:
    """Per-layer metrics plus coverage and tracing overhead."""
    out = dict.fromkeys(layers.PER_LAYER_UNITS, 0.0)
    out.update(layers.layer_metrics(recorder, n_ops))
    out["trace.coverage"] = layers.coverage(recorder, ROOT_SPAN)
    out["trace.overhead"] = traced_s / untraced_s - 1.0
    return out


def e2e_metrics(setup_times, op_times, rows_done, busy_s) -> Dict[str, float]:
    return {
        "setup_s": statistics.median(setup_times),
        "latency_p50_ms": statistics.median(op_times) * 1e3,
        "rows_per_s": rows_done / busy_s,
        "peak_rss_mb": peak_rss_mb(),
    }


def quiet_convergence():
    from repro.exceptions import ConvergenceWarning

    warnings.simplefilter("ignore", ConvergenceWarning)


# --------------------------------------------------------------- batch fit
def fit_instance(s: int):
    from repro.datasets.synthetic import make_blobs

    p = FIT_PARAMS
    return make_blobs(
        p["n_samples"], n_features=p["n_features"], n_clusters=p["n_clusters"],
        cluster_std=p["cluster_std"], random_state=s,
    )


def fit_model(s: int, X):
    from repro import KhatriRaoKMeans

    p = FIT_PARAMS
    return KhatriRaoKMeans(
        p["cardinalities"], n_init=p["n_init"], max_iter=p["max_iter"],
        random_state=s,
    ).fit(X)


def fit_record(model) -> dict:
    return {"n_iter": int(model.n_iter_), "inertia": float(model.inertia_)}


def check_fit(gate: Gate, pins: dict, s: int, X, model) -> None:
    centroids = model.centroids()
    diff = X - centroids[model.labels_]
    recomputed = float(np.einsum("ij,ij->", diff, diff))
    gate.check(close(recomputed, model.inertia_),
               f"fit {s}: inertia_ {model.inertia_!r} != recomputed {recomputed!r}")
    pin = gate.pinned(pins, s)
    if pin is not None:
        got = fit_record(model)
        gate.check(got["n_iter"] == pin["n_iter"] and close(got["inertia"], pin["inertia"]),
                   f"fit {s}: {got} != pinned {pin}")


def kr_fit_profile(seed: int, seconds: int, trace: bool) -> Outcome:
    from repro.metrics import unsupervised_clustering_accuracy

    quiet_convergence()
    pins = load_pins("kr_fit_profile")
    gate = Gate()
    n_fits = fit_count(seconds, trace)
    # Warm BLAS and the allocator before anything is timed.
    X, _ = fit_instance(instance_seed(seed, 0))
    fit_model(0, X[:2000])
    setup_times, fit_times, accs = [], [], []
    row_iterations = 0
    recorder, traced_s = Recorder(), 0.0
    for i in range(n_fits):
        s = instance_seed(seed, i)
        (X, y), times = median_setup(lambda: fit_instance(s))
        setup_times += times
        model, seconds_taken = timed(lambda: fit_model(s, X))
        fit_times.append(seconds_taken)
        row_iterations += X.shape[0] * model.n_iter_
        check_fit(gate, pins, s, X, model)
        accs.append(unsupervised_clustering_accuracy(y, model.labels_))
        if trace:
            def op():
                with recorder.span(ROOT_SPAN):
                    return timed(lambda: fit_model(s, X))
            again, again_s = run_traced(recorder, op)
            traced_s += again_s
            gate.check(fit_record(again) == fit_record(model),
                       f"fit {s}: traced run differs from untraced")
    detail = {"params": FIT_PARAMS, "fit_s": fit_times,
              "acc_median": statistics.median(accs)}
    if trace:
        metrics = trace_metrics(recorder, n_fits, sum(fit_times), traced_s)
    else:
        metrics = e2e_metrics(setup_times, fit_times, row_iterations, sum(fit_times))
    return Outcome(gate, metrics, detail, recorder if trace else None)


# ---------------------------------------------------------- monitored stream
def stream_instance(s: int):
    """Pool rows around an exact sum grid, plus the batch id schedule."""
    p = STREAM_PARAMS
    rng = np.random.default_rng(s)
    thetas = [rng.normal(scale=p["grid_scale"], size=(h, p["n_features"]))
              for h in p["cardinalities"]]
    cells = rng.integers(int(np.prod(p["cardinalities"])), size=p["pool"])
    parts = np.unravel_index(cells, p["cardinalities"])
    X = sum(theta[idx] for theta, idx in zip(thetas, parts))
    X = X + rng.normal(scale=p["noise"], size=X.shape)
    batches = [rng.choice(p["pool"], size=p["batch"], replace=False)
               for _ in range(p["batches"])]
    return X, cells, batches


def new_stream(s: int):
    from repro.core import MiniBatchKhatriRaoKMeans
    from repro.monitoring import MonitoredStream

    p = STREAM_PARAMS
    model = MiniBatchKhatriRaoKMeans(
        p["cardinalities"], n_threads=p["n_threads"], random_state=s
    )
    return MonitoredStream(model, policy=p["policy"])


def stream_record(stream, X) -> dict:
    """The checked result of one pass: alert timeline, protocentroid digest
    (per set: sum and sum of squares) and the pool inertia."""
    thetas = stream.model.protocentroids_
    labels = stream.model.predict(X)
    diff = X - stream.model.centroids()[labels]
    return {
        "timeline": [[e["step"], e["event"], e.get("kind"), e.get("severity")]
                     for e in stream.timeline()],
        "digest": [[float(t.sum()), float((t * t).sum())] for t in thetas],
        "pool_inertia": float(np.einsum("ij,ij->", diff, diff)),
    }


def stream_pass(s: int, X, batches, workdir: Path, recorder=None):
    """One monitored pass over the batch schedule; returns the stream,
    each batch's seconds (process plus the checkpoint write when due) and
    the checkpoint path."""
    p = STREAM_PARAMS
    stream = new_stream(s)
    checkpoint = workdir / f"stream-{s}.npz"
    times = []
    for b, ids in enumerate(batches):
        rows = X[ids]
        start = time.perf_counter()
        if recorder is None:
            stream.process(rows, index=ids)
            if (b + 1) % p["save_every"] == 0:
                stream.save(checkpoint)
        else:
            with recorder.span(ROOT_SPAN):
                stream.process(rows, index=ids)
                if (b + 1) % p["save_every"] == 0:
                    stream.save(checkpoint)
        times.append(time.perf_counter() - start)
    return stream, times, checkpoint


def check_stream(gate: Gate, pins: dict, s: int, X, stream, checkpoint) -> dict:
    record = stream_record(stream, X)
    resumed = new_stream(s).load(checkpoint)
    same = all(
        np.array_equal(a, b) for a, b in
        zip(resumed.model.protocentroids_, stream.model.protocentroids_)
    ) and resumed.timeline() == stream.timeline()
    gate.check(same, f"stream {s}: checkpoint does not restore the final state")
    pin = gate.pinned(pins, s)
    if pin is not None:
        ok = (
            record["timeline"] == pin["timeline"]
            and all(close(a, b) for got, want in zip(record["digest"], pin["digest"])
                    for a, b in zip(got, want))
            and close(record["pool_inertia"], pin["pool_inertia"])
        )
        gate.check(ok, f"stream {s}: result differs from the pinned record")
    return record


def kr_stream_monitored(seed: int, seconds: int, trace: bool) -> Outcome:
    from repro.metrics import unsupervised_clustering_accuracy

    pins = load_pins("kr_stream_monitored")
    gate = Gate()
    p = STREAM_PARAMS
    n_passes = pass_count(seconds, trace)
    setup_times, batch_times, accs = [], [], []
    rows = 0
    recorder, traced_s = Recorder(), 0.0
    workroot = Path(os.environ["PERFBENCH_WORKDIR"])
    with tempfile.TemporaryDirectory(dir=workroot) as workdir:
        workdir = Path(workdir)
        for i in range(n_passes):
            s = instance_seed(seed, i)
            (X, cells, batches), times = median_setup(lambda: stream_instance(s))
            setup_times += times
            stream, times, checkpoint = stream_pass(s, X, batches, workdir)
            batch_times += times
            rows += p["batch"] * p["batches"]
            record = check_stream(gate, pins, s, X, stream, checkpoint)
            accs.append(unsupervised_clustering_accuracy(
                cells, stream.model.predict(X)))
            if trace:
                again, again_times, _ = run_traced(
                    recorder, lambda: stream_pass(s, X, batches, workdir, recorder))
                traced_s += sum(again_times)
                gate.check(stream_record(again, X) == record,
                           f"stream {s}: traced pass differs from untraced")
    detail = {"params": STREAM_PARAMS, "passes": n_passes,
              "acc_median": statistics.median(accs)}
    if trace:
        metrics = trace_metrics(recorder, len(batch_times), sum(batch_times), traced_s)
    else:
        metrics = e2e_metrics(setup_times, batch_times, rows, sum(batch_times))
    return Outcome(gate, metrics, detail, recorder if trace else None)


# --------------------------------------------------------- deep (KR-DKM)
def deep_instance(s: int):
    from repro.datasets import load_dataset

    return load_dataset(DEEP_PARAMS["dataset"], scale=DEEP_PARAMS["scale"],
                        random_state=s)


def deep_model(s: int, X):
    from repro.deep import KhatriRaoDKM

    p = DEEP_PARAMS
    return KhatriRaoDKM(
        p["cardinalities"], random_state=s, hidden_dims=tuple(p["hidden_dims"]),
        pretrain_epochs=p["pretrain_epochs"],
        clustering_epochs=p["clustering_epochs"], batch_size=p["batch_size"],
        kmeans_n_init=p["kmeans_n_init"],
    ).fit(X)


def deep_epochs(model) -> int:
    """Training epochs one fit ran: the dense reference autoencoder the
    compression schedule trains first, every compressed candidate, and the
    joint clustering epochs."""
    reference = max(1, int(model.pretrain_epochs * model.compressed_pretrain_factor))
    return reference + len(model.pretrain_loss_) + model.clustering_epochs


def deep_kr_dkm_stickfigures(seed: int, seconds: int, trace: bool) -> Outcome:
    from repro.metrics import unsupervised_clustering_accuracy

    quiet_convergence()
    gate = Gate()
    n_fits = max(2, seconds // 10 if trace else seconds // 5)
    setup_times, fit_times, accs, ratios = [], [], [], []
    row_epochs = 0
    recorder, traced_s = Recorder(), 0.0
    for i in range(n_fits):
        s = instance_seed(seed, i)
        ds, times = median_setup(lambda: deep_instance(s))
        setup_times += times
        model, seconds_taken = timed(lambda: deep_model(s, ds.data))
        fit_times.append(seconds_taken)
        row_epochs += ds.data.shape[0] * deep_epochs(model)
        acc = unsupervised_clustering_accuracy(ds.labels, model.labels_)
        ratio = model.result().parameter_ratio
        accs.append(acc)
        ratios.append(ratio)
        gate.check(ratio < 1.0, f"deep {s}: params_ratio {ratio} >= 1")
        if trace:
            def op():
                with recorder.span(ROOT_SPAN):
                    return timed(lambda: deep_model(s, ds.data))
            again, again_s = run_traced(recorder, op)
            traced_s += again_s
            gate.check(np.array_equal(again.labels_, model.labels_),
                       f"deep {s}: traced fit differs from untraced")
    # Single fits are bimodal (ACC 1.0 or a ~0.67 local minimum, now and
    # then lower), so the accuracy gate holds for the run's mean.
    gate.check(statistics.mean(accs) >= 0.6,
               f"deep: mean acc {statistics.mean(accs)} < 0.6 over {accs}")
    detail = {"params": DEEP_PARAMS, "fit_s": fit_times, "acc": accs,
              "params_ratio": ratios}
    if trace:
        metrics = trace_metrics(recorder, n_fits, sum(fit_times), traced_s)
    else:
        metrics = e2e_metrics(setup_times, fit_times, row_epochs, sum(fit_times))
    return Outcome(gate, metrics, detail, recorder if trace else None)
