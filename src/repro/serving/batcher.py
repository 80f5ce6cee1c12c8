"""Micro-batching engine: coalesce concurrent requests into one kernel call.

The factored assignment kernel's cost is dominated by per-call fixed work
(validation, Gram construction against the protocentroid sets, Python and
BLAS dispatch) when requests are small — exactly the serving shape, where
a request carries a handful of rows.  Scoring 64 eight-row requests in
one ``(512, m)`` sweep costs barely more than scoring one of them, which
is where the batched-vs-singleton throughput win comes from
(``.benchmarks/serving_throughput.json``).

:class:`MicroBatcher` collects that win:

* Requests (:meth:`MicroBatcher.submit`) enqueue into per-``(model, op)``
  queues and return a :class:`Ticket` the caller blocks on.
* A single worker thread coalesces each queue.  By default
  (``window_s=0``) it is work-conserving: it dispatches as soon as it is
  free, taking everything queued up to the caps, so requests that
  arrive while a batch executes share the next kernel call.  Batches
  grow with load and an idle server adds no wait.  A positive
  ``window_s`` instead holds each batch open until ``window_s`` seconds
  after its *first* request arrived, or until it holds
  ``max_batch_requests`` requests / ``max_batch_rows`` rows, whichever
  comes first.  An oversize backlog is split across consecutive kernel
  calls; a single request larger than ``max_batch_rows`` runs alone
  (never rejected).
* Each request is validated individually at coalesce time, so one
  malformed request fails with its own
  :class:`~repro.exceptions.ValidationError` while the rest of the batch
  proceeds.  Mixed input dtypes are cast per-request to the model's
  serving dtype before concatenation.
* The worker thread is also the subsystem's concurrency control: every
  kernel call — including the mutating ``refine`` — executes on it, so
  reads never observe a half-updated model even though the HTTP front
  end is multi-threaded.

Synchronous use (tests, benchmarks, batch jobs) skips the thread:
construct with ``start=False``, :meth:`submit` requests, then call
:meth:`drain` to execute everything queued on the calling thread with the
same coalescing rules.

Failure model (the resilience layer, PR 7) — every submitted ticket
resolves, with a result or a typed error:

* **Deadlines.**  A ticket may carry an absolute monotonic ``deadline``;
  the worker sheds already-expired tickets at coalesce time (the kernel
  never runs for nobody) and :meth:`Ticket.result` maps both deadline
  expiry and wait timeout to
  :class:`~repro.exceptions.DeadlineExceededError` (HTTP 504).  A caller
  that gives up also cancels its ticket, so abandoned work is shed too.
* **Backpressure.**  ``max_queue_requests`` bounds each batch key's
  queue and ``max_pending_rows`` bounds the batcher-wide backlog;
  overflow sheds at submit with
  :class:`~repro.exceptions.OverloadedError` (HTTP 503 + ``Retry-After``)
  instead of growing memory without bound.
* **Circuit breakers.**  A per-``(model, op)``
  :class:`~repro.serving.resilience.BreakerBoard` counts consecutive
  kernel failures; an open circuit fast-fails submits with
  :class:`~repro.exceptions.CircuitOpenError` while healthy models keep
  serving.  Re-registering (or evicting) a model resets its breakers.
* **Self-healing.**  The worker tracks its in-flight batch; a
  :class:`~repro.serving.resilience.Watchdog` fails stranded tickets
  with :class:`~repro.exceptions.WorkerCrashedError` and restarts a dead
  worker.  Ticket resolution is first-wins, so a worker that comes back
  from a hang cannot clobber the watchdog's verdict.
* **Fault injection.**  ``fault_hook`` (see
  :mod:`repro.serving.faults`) runs at the top of every batch execution
  so the chaos suite can schedule kernel faults, hangs, worker kills and
  mid-flight evictions deterministically.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .._validation import check_positive_int
from ..exceptions import (
    BatcherStoppedError,
    DeadlineExceededError,
    ModelNotFoundError,
    OverloadedError,
    ValidationError,
    WorkerCrashedError,
)
from .metrics import ServingMetrics
from .registry import ModelRegistry
from .resilience import BreakerBoard

__all__ = ["MicroBatcher", "Ticket"]

#: Operations the batcher knows how to coalesce.
OPS = ("assign", "inertia", "refine")


class Ticket:
    """A caller's handle on one submitted request.

    Resolution is **first-wins**: once a ticket carries a result or an
    error it never changes, so the worker, the watchdog and a shedding
    pass can race without clobbering each other's verdicts.
    """

    __slots__ = (
        "op", "rows", "submitted_at", "deadline",
        "_event", "_result", "_error", "_lock", "_cancelled",
    )

    def __init__(
        self,
        op: str,
        rows: int,
        submitted_at: float,
        deadline: Optional[float] = None,
    ):
        self.op = op
        self.rows = rows
        self.submitted_at = submitted_at
        #: Absolute monotonic deadline, or ``None`` (no deadline).
        self.deadline = deadline
        self._event = threading.Event()
        self._result = None
        self._error: Optional[BaseException] = None
        self._lock = threading.Lock()
        self._cancelled = False

    def _resolve(self, result) -> None:
        with self._lock:
            if self._event.is_set():
                return
            self._result = result
            self._event.set()

    def _fail(self, error: BaseException) -> None:
        with self._lock:
            if self._event.is_set():
                return
            self._error = error
            self._event.set()

    def cancel(self) -> None:
        """Mark the ticket abandoned: the worker sheds it at coalesce
        time instead of running the kernel for a caller that left."""
        self._cancelled = True

    def expired(self, now: float) -> bool:
        """Should the worker shed this ticket instead of executing it?"""
        if self._cancelled:
            return True
        return self.deadline is not None and now >= self.deadline

    def done(self) -> bool:
        return self._event.is_set()

    def result(self, timeout: Optional[float] = None):
        """Block until the batch containing this request executed.

        Raises the request's own error (e.g. :class:`ValidationError`) if
        it failed, or :class:`~repro.exceptions.DeadlineExceededError`
        when the wait times out or the ticket's deadline passes — in
        which case the ticket is also cancelled, so the batcher sheds the
        now-pointless kernel work instead of running it for nobody.
        """
        wait = timeout
        if self.deadline is not None:
            remaining = self.deadline - time.monotonic()
            wait = remaining if wait is None else min(wait, remaining)
        if not self._event.wait(None if wait is None else max(wait, 0.0)):
            self.cancel()
            if (
                self.deadline is not None
                and time.monotonic() >= self.deadline
            ):
                raise DeadlineExceededError(
                    f"request deadline expired while waiting for the "
                    f"{self.op} batch to execute"
                )
            raise DeadlineExceededError(
                f"request did not complete within {timeout}s "
                "(is the batcher running?)"
            )
        if self._error is not None:
            raise self._error
        return self._result


class _Pending:
    """One enqueued request, pre-validation."""

    __slots__ = ("raw", "sample_weight", "ticket", "X")

    def __init__(self, raw, sample_weight, ticket: Ticket):
        self.raw = raw
        self.sample_weight = sample_weight
        self.ticket = ticket
        self.X = None  # set once validated against the model


#: Queue key: refine requests only coalesce with equal ``n_steps`` so one
#: kernel call has one well-defined sweep count.
_Key = Tuple[str, str, Optional[int]]


class MicroBatcher:
    """Coalesces concurrent requests per ``(model, op)`` into kernel calls.

    The worker never idles while work is queued (unless a positive
    ``window_s`` asks it to): each kernel call takes the whole backlog up
    to the caps, so batch size follows the arrival rate.

    Parameters
    ----------
    registry : ModelRegistry
        Where model names resolve; the batcher executes against the
        registry's stored (serving-dtype) copies.
    window_s : float
        Batching window, measured from the first request of a batch.
        The default ``0`` dispatches whatever is queued as soon as the
        worker is free; arrivals during a kernel call coalesce into the
        next one.  A positive window (a few ms) trades that much added
        latency for larger batches, which pays only when many clients
        submit concurrently and kernel calls dominate.
    max_batch_requests, max_batch_rows : int
        A batch closes early when either cap is reached; backlogs beyond
        the caps split into consecutive kernel calls.
    max_queue_requests : int
        Backpressure: per-batch-key queue depth beyond which submits shed
        with :class:`~repro.exceptions.OverloadedError` (default 1024).
    max_pending_rows : int
        Backpressure: batcher-wide cap on queued data rows (default
        131072).  A submit that would exceed it sheds — except into an
        empty batcher, where any single request is admitted (mirroring
        the ``max_batch_rows`` never-reject rule).
    breaker_failures : int or None
        Consecutive kernel failures that open a ``(model, op)`` circuit
        (default 5); ``None`` disables circuit breaking.
    breaker_reset_s : float
        Seconds an open circuit waits before a half-open probe.
    refine_seed : int
        Seed of the reseed-draw stream shared by all coalesced
        ``refine`` calls (one persistent generator, so a serving process
        is replayable given its request log).
    start : bool
        Start the worker thread immediately (default).  ``start=False``
        leaves the batcher in synchronous mode — use :meth:`drain`.
    """

    def __init__(
        self,
        registry: ModelRegistry,
        *,
        window_s: float = 0.0,
        max_batch_requests: int = 256,
        max_batch_rows: int = 8192,
        max_queue_requests: int = 1024,
        max_pending_rows: int = 131072,
        breaker_failures: Optional[int] = 5,
        breaker_reset_s: float = 30.0,
        metrics: Optional[ServingMetrics] = None,
        refine_seed: int = 0,
        start: bool = True,
    ):
        if window_s < 0:
            raise ValidationError(f"window_s must be >= 0, got {window_s}")
        if max_batch_requests < 1 or max_batch_rows < 1:
            raise ValidationError(
                "max_batch_requests and max_batch_rows must be >= 1, got "
                f"{max_batch_requests} and {max_batch_rows}"
            )
        if max_queue_requests < 1 or max_pending_rows < 1:
            raise ValidationError(
                "max_queue_requests and max_pending_rows must be >= 1, got "
                f"{max_queue_requests} and {max_pending_rows}"
            )
        self.registry = registry
        self.window_s = float(window_s)
        self.max_batch_requests = int(max_batch_requests)
        self.max_batch_rows = int(max_batch_rows)
        self.max_queue_requests = int(max_queue_requests)
        self.max_pending_rows = int(max_pending_rows)
        self.metrics = metrics if metrics is not None else registry.metrics
        self.breakers: Optional[BreakerBoard] = (
            None
            if breaker_failures is None
            else BreakerBoard(
                failure_threshold=breaker_failures,
                reset_timeout_s=breaker_reset_s,
                metrics=self.metrics,
            )
        )
        #: Chaos hook (:mod:`repro.serving.faults`): called on the worker
        #: thread as ``hook(key, batch)`` at the top of every execution.
        self.fault_hook: Optional[Callable] = None
        self._refine_rng = np.random.default_rng(refine_seed)
        self._cond = threading.Condition()
        self._queues: "OrderedDict[_Key, List[_Pending]]" = OrderedDict()
        self._pending_rows = 0
        self._inflight: List[_Pending] = []
        self._inflight_since: Optional[float] = None
        self._stopping = False
        self._started = False
        self._worker: Optional[threading.Thread] = None
        registry.add_listener(self._on_registry_event)
        if start:
            self.start()

    def _on_registry_event(self, event: str, name: str) -> None:
        # A re-registered (or evicted) model gets a clean breaker slate:
        # the consecutive-failure count described the old artifact.
        if self.breakers is not None:
            self.breakers.reset(name)

    # ------------------------------------------------------------ lifecycle
    @property
    def running(self) -> bool:
        return self._worker is not None and self._worker.is_alive()

    #: Alias the watchdog reads: is the worker *thread* actually alive?
    worker_alive = running

    @property
    def should_be_running(self) -> bool:
        """True between :meth:`start` and :meth:`stop` — the watchdog
        restarts a dead worker only while this holds."""
        return self._started and not self._stopping

    def start(self) -> None:
        with self._cond:
            if self.running:
                return
            self._stopping = False
            self._started = True
            self._worker = threading.Thread(
                target=self._worker_loop, name="repro-batcher", daemon=True
            )
            self._worker.start()

    def stop(self, *, flush: bool = True, timeout: float = 10.0) -> None:
        """Stop the worker. ``flush=True`` executes the backlog first;
        ``flush=False`` fails every queued request with
        :class:`BatcherStoppedError`.

        ``timeout`` is the drain deadline: if a flushing worker has not
        finished the backlog within it, the stragglers are failed with
        :class:`BatcherStoppedError` (typed 503, retriable elsewhere)
        rather than left hanging — shutdown always terminates.
        """
        with self._cond:
            self._stopping = True
            self._started = False
            if not flush:
                self._fail_queued_locked(
                    BatcherStoppedError("batcher stopped before execution")
                )
            self._cond.notify_all()
        worker = self._worker
        if worker is not None and worker.is_alive():
            worker.join(timeout)
            if worker.is_alive():
                # Drain deadline exceeded: fail the backlog and any
                # in-flight batch so no caller blocks past shutdown.  The
                # worker exits after its current kernel call returns
                # (first-wins resolution makes the race benign).
                with self._cond:
                    self._fail_queued_locked(
                        BatcherStoppedError(
                            f"batcher draining deadline ({timeout}s) "
                            "exceeded at shutdown"
                        )
                    )
                    inflight, self._inflight = self._inflight, []
                    self._inflight_since = None
                    self._cond.notify_all()
                for pending in inflight:
                    pending.ticket._fail(
                        BatcherStoppedError(
                            f"batcher draining deadline ({timeout}s) "
                            "exceeded with this request in flight"
                        )
                    )
        self._worker = None

    def _fail_queued_locked(self, error: BaseException) -> None:
        """Fail and clear every queued request (condition held)."""
        for queue in self._queues.values():
            for pending in queue:
                pending.ticket._fail(error)
        self._queues.clear()
        self._pending_rows = 0

    # -------------------------------------------------- watchdog interface
    def fail_inflight(self, message: str) -> int:
        """Fail the current in-flight batch with
        :class:`~repro.exceptions.WorkerCrashedError`; returns how many
        tickets were actually failed.  Called by the watchdog when the
        worker died or hung mid-batch."""
        with self._cond:
            inflight, self._inflight = self._inflight, []
            self._inflight_since = None
        failed = 0
        for pending in inflight:
            if not pending.ticket.done():
                pending.ticket._fail(WorkerCrashedError(message))
                failed += 1
        return failed

    def inflight_age(self) -> Optional[float]:
        """Seconds the current in-flight batch has been executing, or
        ``None`` when the worker is between batches."""
        with self._cond:
            if self._inflight and self._inflight_since is not None:
                return time.monotonic() - self._inflight_since
        return None

    @property
    def pending_rows(self) -> int:
        """Queued (not yet coalesced) data rows, for metrics and tests."""
        with self._cond:
            return self._pending_rows

    # --------------------------------------------------------------- submit
    def submit(
        self,
        op: str,
        model_name: str,
        rows,
        *,
        n_steps: int = 1,
        sample_weight=None,
        deadline: Optional[float] = None,
    ) -> Ticket:
        """Enqueue one request; returns a :class:`Ticket` to block on.

        ``rows`` is anything array-like of shape ``(n, m)``; full
        validation (feature count, finiteness, dtype cast) happens at
        coalesce time so a bad payload fails only its own ticket.
        ``deadline`` is an absolute ``time.monotonic()`` instant: a
        ticket still queued past it is shed instead of executed, and
        :meth:`Ticket.result` raises
        :class:`~repro.exceptions.DeadlineExceededError` once it passes.

        Fast-fail paths (the request never queues): an unknown model
        (:class:`~repro.exceptions.ModelNotFoundError`), an open circuit
        for ``(model, op)`` (:class:`~repro.exceptions.CircuitOpenError`),
        a full queue or row backlog
        (:class:`~repro.exceptions.OverloadedError`).
        """
        if op not in OPS:
            raise ValidationError(f"op must be one of {OPS}, got {op!r}")
        if op == "refine":
            n_steps = check_positive_int(n_steps, "n_steps")
        # Resolve the model eagerly: an unknown name should fail the caller
        # now (HTTP 404), not poison a batch later.
        self.registry.get(model_name)
        if self.breakers is not None:
            self.breakers.check((model_name, op))
        raw = np.asarray(rows)
        n_rows = int(raw.shape[0]) if raw.ndim >= 1 else 1
        key: _Key = (model_name, op, n_steps if op == "refine" else None)
        ticket = Ticket(op, n_rows, time.monotonic(), deadline)
        pending = _Pending(raw, sample_weight, ticket)
        retry_after = max(self.window_s, 0.05)
        with self._cond:
            if self._stopping:
                raise BatcherStoppedError("batcher is stopped; no new requests")
            queue = self._queues.get(key)
            depth = 0 if queue is None else len(queue)
            if depth >= self.max_queue_requests:
                self.metrics.increment("shed_overload_total")
                raise OverloadedError(
                    f"queue for model {model_name!r} op {op!r} is full "
                    f"({depth} requests waiting); shedding instead of "
                    "growing without bound",
                    retry_after=retry_after,
                )
            if (
                self._pending_rows > 0
                and self._pending_rows + n_rows > self.max_pending_rows
            ):
                self.metrics.increment("shed_overload_total")
                raise OverloadedError(
                    f"batcher backlog is full ({self._pending_rows} rows "
                    f"pending, cap {self.max_pending_rows}); shedding",
                    retry_after=retry_after,
                )
            self._queues.setdefault(key, []).append(pending)
            self._pending_rows += n_rows
            self._cond.notify_all()
        return ticket

    # ---------------------------------------------------------- coalescing
    def _oldest_key(self) -> Optional[_Key]:
        """The queue whose head request has waited longest (FIFO fairness)."""
        best, best_t = None, np.inf
        for key, queue in self._queues.items():
            if queue and queue[0].ticket.submitted_at < best_t:
                best, best_t = key, queue[0].ticket.submitted_at
            elif not queue:
                continue
        return best

    def _take_batch(self, key: _Key) -> List[_Pending]:
        """Pop up to the caps from ``key``'s queue (always at least one).

        Called with the condition held.  A single request larger than
        ``max_batch_rows`` is taken alone; the remainder of an oversize
        backlog stays queued for the next (immediate) kernel call.
        """
        queue = self._queues.get(key, [])
        batch: List[_Pending] = []
        rows = 0
        while queue:
            head = queue[0]
            if batch and (
                len(batch) >= self.max_batch_requests
                or rows + head.ticket.rows > self.max_batch_rows
            ):
                break
            batch.append(queue.pop(0))
            rows += head.ticket.rows
            self._pending_rows -= head.ticket.rows
        if not queue:
            self._queues.pop(key, None)
        return batch

    def _batch_ready(self, key: _Key, now: float) -> bool:
        queue = self._queues.get(key)
        if not queue:
            return False
        if now >= queue[0].ticket.submitted_at + self.window_s:
            return True
        if len(queue) >= self.max_batch_requests:
            return True
        return sum(p.ticket.rows for p in queue) >= self.max_batch_rows

    def _worker_loop(self) -> None:
        while True:
            with self._cond:
                while not self._queues and not self._stopping:
                    self._cond.wait()
                if self._stopping and not self._queues:
                    return
                key = self._oldest_key()
                # Hold the batch open until the window (from its first
                # request) expires or a cap fills; new arrivals notify.
                while not self._stopping and not self._batch_ready(
                    key, time.monotonic()
                ):
                    queue = self._queues.get(key)
                    if not queue:
                        break
                    remaining = (
                        queue[0].ticket.submitted_at + self.window_s
                    ) - time.monotonic()
                    self._cond.wait(timeout=max(remaining, 0.0))
                batch = self._take_batch(key)
                if batch:
                    # Published for the watchdog: if this thread dies (or
                    # hangs) inside _run_batch, fail_inflight() resolves
                    # these tickets.  Deliberately NOT cleared in a
                    # ``finally`` — a BaseException must leave the batch
                    # visible for the watchdog to reap.
                    self._inflight = batch
                    self._inflight_since = time.monotonic()
            if batch:
                self._run_batch(key, batch)
                with self._cond:
                    if self._inflight is batch:
                        self._inflight = []
                        self._inflight_since = None

    def drain(self) -> int:
        """Synchronously execute everything queued; returns requests served.

        The synchronous twin of the worker loop (same coalescing caps, no
        window wait): benchmarks and batch jobs call ``submit`` repeatedly
        and then ``drain`` on their own thread.  Must not race a running
        worker — intended for ``start=False`` batchers.
        """
        served = 0
        while True:
            with self._cond:
                key = self._oldest_key()
                batch = self._take_batch(key) if key is not None else []
            if not batch:
                return served
            self._run_batch(key, batch)
            served += len(batch)

    # ------------------------------------------------------------ execution
    def _validate(self, batch: List[_Pending], model) -> List[_Pending]:
        """Per-request validation; failures fail only their own ticket."""
        valid: List[_Pending] = []
        for pending in batch:
            try:
                pending.X = model._check_features(pending.raw)
                if pending.sample_weight is not None:
                    weight = np.asarray(pending.sample_weight, dtype=np.float64)
                    if weight.shape != (pending.X.shape[0],):
                        raise ValidationError(
                            f"sample_weight has shape {weight.shape}, "
                            f"expected ({pending.X.shape[0]},)"
                        )
                    pending.sample_weight = weight
            except Exception as exc:
                pending.ticket._fail(exc)
            else:
                valid.append(pending)
        return valid

    def _run_batch(self, key: _Key, batch: List[_Pending]) -> None:
        model_name, op, n_steps = key
        breaker_key = (model_name, op)
        # Shed expired/cancelled tickets *before* any kernel work: running
        # the batch for a caller whose deadline passed (or who gave up)
        # wastes worker time nobody is waiting on.
        now = time.monotonic()
        live: List[_Pending] = []
        for pending in batch:
            ticket = pending.ticket
            if ticket.done():
                continue  # already resolved (watchdog, shutdown race)
            if ticket.expired(now):
                self.metrics.increment("deadline_expired_total")
                ticket._fail(
                    DeadlineExceededError(
                        "request deadline expired while queued; the "
                        "batcher shed it at coalesce time"
                    )
                )
            else:
                live.append(pending)
        if not live:
            return
        try:
            hook = self.fault_hook
            if hook is not None:
                hook(key, live)  # chaos: may raise, sleep, evict, or kill
            model = self.registry.get(model_name)
        except ModelNotFoundError as exc:
            # Evicted between submit and execution: the model is gone, not
            # broken — fail the batch but leave the breaker alone.
            for pending in live:
                pending.ticket._fail(exc)
            return
        except Exception as exc:
            for pending in live:
                pending.ticket._fail(exc)
            if self.breakers is not None:
                self.breakers.record_failure(breaker_key)
            return
        valid = self._validate(live, model)
        if not valid:
            return
        started = time.perf_counter()
        try:
            results = self._execute(model, op, n_steps, valid)
        except Exception as exc:
            for pending in valid:
                pending.ticket._fail(exc)
            if self.breakers is not None:
                self.breakers.record_failure(breaker_key)
            return
        if self.breakers is not None:
            self.breakers.record_success(breaker_key)
        elapsed = time.perf_counter() - started
        done = time.monotonic()
        n_rows = sum(p.X.shape[0] for p in valid)
        self.metrics.increment("batches_total")
        self.metrics.increment("batched_requests_total", len(valid))
        self.metrics.increment("batch_rows_total", n_rows)
        self.metrics.record_max("batch_size_max", len(valid))
        self.metrics.record_latency("batch_exec", elapsed)
        for pending, result in zip(valid, results):
            self.metrics.record_latency(op, done - pending.ticket.submitted_at)
            pending.ticket._resolve(result)

    def _execute(self, model, op: str, n_steps, valid: List[_Pending]) -> List:
        """One kernel call for the whole batch; per-request results."""
        X = np.concatenate([p.X for p in valid]) if len(valid) > 1 else valid[0].X
        offsets = np.cumsum([0] + [p.X.shape[0] for p in valid])
        if op == "refine":
            weight = None
            if any(p.sample_weight is not None for p in valid):
                weight = np.concatenate(
                    [
                        p.sample_weight
                        if p.sample_weight is not None
                        else np.ones(p.X.shape[0])
                        for p in valid
                    ]
                ).astype(X.dtype)
            model.refine(
                X, n_steps=n_steps, sample_weight=weight,
                random_state=self._refine_rng,
            )
        labels, distances = model.score(X)
        out = []
        for i, pending in enumerate(valid):
            sl = slice(offsets[i], offsets[i + 1])
            if op == "assign":
                out.append({"labels": labels[sl]})
            elif op == "inertia":
                out.append(
                    {"inertia": float(distances[sl].sum(dtype=np.float64)),
                     "rows": int(offsets[i + 1] - offsets[i])}
                )
            else:  # refine: post-refine fit of this request's own rows
                out.append(
                    {"refined": True, "n_steps": int(n_steps),
                     "rows": int(offsets[i + 1] - offsets[i]),
                     "inertia": float(distances[sl].sum(dtype=np.float64))}
                )
        return out
