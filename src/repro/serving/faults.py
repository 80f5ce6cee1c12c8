"""Deterministic fault injection for the serving resilience layer.

The fault *vocabulary* — :class:`~repro.faults.Fault`,
:class:`~repro.faults.FaultSchedule`,
:class:`~repro.faults.InjectedKernelError`,
:class:`~repro.faults.WorkerKill` — lives in :mod:`repro.faults`, the
fault plane shared with the training runtime; import it from there.
What is serving-specific lives here: :class:`FaultInjector`, the binding
of schedules to the batcher's ``fault_hook``.

The injection point is the batcher's ``fault_hook`` — a callable the
worker invokes at the top of every batch execution, *before* the model
is resolved (so an ``evict`` fault exercises the submitted-then-evicted
path) and inside the same try/except as the kernel call (so a ``raise``
fault flows through the real failure plumbing: ticket failure, circuit
breaker accounting, masked-500 HTTP mapping).

Build schedules explicitly (:meth:`FaultSchedule.from_spec`) when a test
needs a precise scenario, or randomly (:meth:`FaultSchedule.random`)
with a seed for soak-style chaos runs.  :class:`FaultInjector` binds a
schedule to a batcher and records what actually fired.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from ..faults import Fault, FaultSchedule

__all__ = ["FaultInjector"]


class FaultInjector:
    """Binds :class:`FaultSchedule` s to a batcher's ``fault_hook``.

    The hook runs on the worker thread at the top of every batch
    execution.  Each schedule keeps its own call counter (scoped
    schedules only count calls for their model), and :attr:`fired`
    records ``(index, model, op, kind)`` for every non-``ok`` action —
    the chaos suite cross-checks observed failures against it.

    Use :meth:`install` / :meth:`uninstall` (or the context manager) to
    attach; ``arm(False)`` pauses injection without detaching.
    """

    def __init__(self, batcher, *schedules: FaultSchedule):
        self.batcher = batcher
        self.schedules: List[FaultSchedule] = list(schedules)
        self.fired: List[Tuple[int, str, str, str]] = []
        self._counters: Dict[int, int] = {i: 0 for i in range(len(schedules))}
        self._armed = True
        self._lock = threading.Lock()

    def add(self, schedule: FaultSchedule) -> "FaultInjector":
        with self._lock:
            self._counters[len(self.schedules)] = 0
            self.schedules.append(schedule)
        return self

    def arm(self, armed: bool = True) -> None:
        self._armed = bool(armed)

    # ------------------------------------------------------------- the hook
    def __call__(self, key, batch) -> None:
        if not self._armed:
            return
        model, op = key[0], key[1]
        action: Optional[Tuple[Fault, int]] = None
        with self._lock:
            for i, schedule in enumerate(self.schedules):
                if schedule.model is not None and schedule.model != model:
                    continue
                index = self._counters[i]
                self._counters[i] = index + 1
                fault = schedule.fault_for(index)
                if fault.kind != "ok" and action is None:
                    action = (fault, index)
            if action is not None:
                self.fired.append((action[1], model, op, action[0].kind))
        if action is None:
            return
        fault, index = action
        if fault.kind == "evict":
            # The one context-bound fault: evict the batch's model from
            # the registry mid-flight, then proceed — the batch fails
            # with ModelNotFoundError through the real plumbing.
            self.batcher.registry.evict(model)
            return
        fault.apply(f"#{index} for model {model!r}")

    # ------------------------------------------------------------ attaching
    def install(self) -> "FaultInjector":
        self.batcher.fault_hook = self
        return self

    def uninstall(self) -> None:
        if self.batcher.fault_hook is self:
            self.batcher.fault_hook = None

    def __enter__(self) -> "FaultInjector":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()
