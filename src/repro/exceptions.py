"""Exception hierarchy for the :mod:`repro` library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch everything raised by this package with a single ``except`` clause
while still being able to distinguish configuration problems from numerical
ones.
"""

from __future__ import annotations

import sys
import warnings

#: The top-level package: frames of its modules are library frames.
_PACKAGE = __name__.partition(".")[0]


class ReproError(Exception):
    """Base class for all errors raised by the :mod:`repro` library."""


class ValidationError(ReproError, ValueError):
    """An input (array, parameter, configuration) failed validation.

    :attr:`field`, when given, names the offending field (an archive
    member, a header key) and is appended to the message.
    """

    def __init__(self, message: str, *, field: str = None):
        if field is not None:
            message = f"{message} (field: {field!r})"
        super().__init__(message)
        self.field = field


class SummaryFormatError(ValidationError):
    """A serialized :class:`~repro.summary.DataSummary` archive is malformed.

    Raised by :meth:`DataSummary.load` when an ``.npz`` file is truncated,
    is missing required keys, stores a protocentroid set with the wrong
    dtype or shape, or carries a header that contradicts the stored arrays.
    The :attr:`field` attribute names the offending archive field so a
    serving operator can tell *which* part of the artifact is broken, not
    just that loading failed.  Subclasses :class:`ValidationError` so
    pre-existing ``except ValidationError`` call sites keep working.
    """


class CheckpointError(ValidationError):
    """A training checkpoint is malformed or inconsistent with the run.

    Raised by :mod:`repro.runtime.checkpoint` when a snapshot archive is
    truncated, fails its content digest, or records a configuration or
    dataset fingerprint that contradicts the resuming estimator — resuming
    from it would *not* reproduce the uninterrupted run, so the mismatch is
    a typed error naming the offending :attr:`field`, never a silently
    different model.  Subclasses :class:`ValidationError` so blanket
    ``except ValidationError`` call sites keep working.
    """


class NotFittedError(ReproError, RuntimeError):
    """An estimator was used before calling ``fit``."""


class QuorumError(ReproError, RuntimeError):
    """A federated round fell below its ``min_clients`` participation quorum.

    Raised by the federated ``fit`` loops when the round's participation
    policy leaves fewer than ``min_clients`` survivors: aggregating over
    too few shards would silently bias the global model, so the round
    fails typed instead.  :attr:`round_index`, :attr:`participating` and
    :attr:`required` carry the numbers.
    """

    def __init__(self, message: str, *, round_index: int = 0,
                 participating: int = 0, required: int = 0):
        super().__init__(message)
        self.round_index = int(round_index)
        self.participating = int(participating)
        self.required = int(required)


class MonitoringError(ReproError):
    """Base class for errors raised by the :mod:`repro.monitoring` subsystem."""


class GoldenMismatchError(MonitoringError):
    """A golden drift scenario replayed with a behavioral delta.

    Raised by the golden-dataset regression harness
    (:mod:`repro.monitoring.evaluation`) when replaying a committed
    scenario produces an alert/action timeline, reassignment-fraction log
    or final model state that differs from the pinned expectation —
    monitoring behavior changed, which is exactly what the harness exists
    to catch.  :attr:`mismatches` carries one human-readable line per
    divergence (first divergence per scenario section).
    """

    def __init__(self, message: str, *, mismatches=()):
        super().__init__(message)
        self.mismatches = tuple(mismatches)


class ConvergenceWarning(UserWarning):
    """An iterative procedure stopped before reaching its tolerance."""


def warn_at_call_site(message: str, category: type) -> None:
    """``warnings.warn`` attributed to the first frame outside the package.

    A fixed ``stacklevel`` counts the frames between the warning and the
    user's call, so it points inside the library as soon as the call is
    nested (a deep fit seeding its centroids, a front-end estimator).
    Walking the stack names the user's own line at any depth; it does by
    hand what ``skip_file_prefixes`` does on Python 3.12+ only.
    """
    frame, level = sys._getframe(1), 2
    while frame.f_back is not None and _is_library_frame(frame):
        frame, level = frame.f_back, level + 1
    warnings.warn(message, category, stacklevel=level)


def _is_library_frame(frame) -> bool:
    name = frame.f_globals.get("__name__", "")
    return name == _PACKAGE or name.startswith(_PACKAGE + ".")


class DtypeFallbackWarning(UserWarning):
    """A requested working dtype is not supported by the selected aggregator.

    Raised as a *warning*, not an error: the estimator falls back to
    ``float64`` (always supported) so the fit still runs, but the caller is
    told loudly that the serving-shaped configuration they asked for is not
    what executed.
    """


class DatasetError(ReproError, KeyError):
    """A dataset name was not found in the registry or is misconfigured."""


class ServingError(ReproError):
    """Base class for errors raised by the :mod:`repro.serving` subsystem.

    The HTTP front end maps each concrete subclass to a status code
    (:data:`repro.serving.http.STATUS_BY_EXCEPTION`); anything outside this
    hierarchy — and outside :class:`ValidationError` — surfaces as a 500.
    """


class ModelNotFoundError(ServingError, KeyError):
    """A model name was not found in the serving registry.

    Mapped to HTTP 404 by the serving front end.  Subclasses ``KeyError``
    because the registry is dict-shaped.
    """

    def __str__(self) -> str:  # KeyError quotes its repr; keep the message
        return self.args[0] if self.args else ""


class RateLimitError(ServingError):
    """The server's token-bucket rate limiter rejected a request.

    Mapped to HTTP 429 with a ``Retry-After`` hint by the serving front
    end.  :attr:`retry_after` is the bucket's estimate, in seconds, of when
    capacity frees up.
    """

    def __init__(self, message: str, *, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


class BatcherStoppedError(ServingError, RuntimeError):
    """A request was submitted to (or stranded in) a stopped micro-batcher."""


class DeadlineExceededError(ServingError, TimeoutError):
    """A request's deadline (or its caller's wait budget) expired.

    Raised by :meth:`Ticket.result <repro.serving.batcher.Ticket.result>`
    when the wait times out or the ticket's deadline passes, and attached
    to tickets the batcher sheds at coalesce time because their deadline
    already expired (running the kernel would produce a result nobody is
    waiting for).  Mapped to HTTP 504 by the serving front end — a typed,
    retriable signal instead of a masked 500.
    """


class RetriableServingError(ServingError):
    """A request the server refused *now* but will likely accept later.

    Carries :attr:`retry_after`, the server's estimate in seconds of when
    retrying is worthwhile; the HTTP front end forwards it as a
    ``Retry-After`` header alongside the 503.
    """

    def __init__(self, message: str, *, retry_after: float = 0.0):
        super().__init__(message)
        self.retry_after = float(retry_after)


class OverloadedError(RetriableServingError):
    """Backpressure: a queue-depth or pending-rows cap rejected a request.

    Raised at submit time when a batch key's queue is at
    ``max_queue_requests`` or the batcher-wide pending-row total is at
    ``max_pending_rows`` — shedding load instead of growing queues (and
    memory) without bound.  Mapped to HTTP 503 with ``Retry-After``.
    """


class CircuitOpenError(RetriableServingError):
    """A ``(model, op)`` circuit breaker is open; the request fast-failed.

    After ``failure_threshold`` consecutive kernel failures the breaker
    opens and requests for that key are rejected *before* queuing, so a
    poisoned model cannot monopolize the worker thread while healthy
    models keep serving.  Mapped to HTTP 503 with ``Retry-After`` (the
    time until the breaker admits a half-open probe).
    """


class WorkerCrashedError(ServingError, RuntimeError):
    """The batcher worker died (or hung) while this request was in flight.

    The watchdog fails stranded in-flight tickets with this error when it
    detects a dead or hung worker, then restarts the worker — the request
    itself is safe to retry.  Mapped to HTTP 503.
    """
