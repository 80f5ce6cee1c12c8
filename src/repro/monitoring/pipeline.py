"""The continuous monitoring pipeline: estimator + engine + policy.

:class:`MonitoredStream` is the operational wrapper a production stream
runs through: every :meth:`~MonitoredStream.process` call advances the
model one ``partial_fit`` step (with or without point identities), feeds
the published :class:`~repro.core.minibatch.BatchStats` snapshot to the
:class:`~repro.monitoring.DriftEngine`, lets the policy intervene, and
appends everything to one ordered timeline — the artifact the
golden-dataset regression harness pins.

The whole pipeline checkpoints into a single atomic archive
(:meth:`MonitoredStream.save` / :meth:`MonitoredStream.load`): the
estimator's stream state rides in the array payload, the engine/policy
state and the timeline ride in the JSON header, and a stream interrupted
and resumed mid-sequence is bit-identical to the uninterrupted one —
bounds decisions and monitor state included.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..exceptions import MonitoringError
from .alerts import DriftAlert, PolicyAction
from .engine import DriftEngine
from .policies import DriftPolicy, resolve_policy

__all__ = ["MonitoredStream", "StreamReport"]


@dataclass(frozen=True)
class StreamReport:
    """What one :meth:`MonitoredStream.process` call observed and did."""

    step: int
    stats: object  # BatchStats
    alerts: Tuple[DriftAlert, ...]
    action: Optional[PolicyAction]

    @property
    def triggered(self) -> bool:
        return self.action is not None


class MonitoredStream:
    """Drive a streaming estimator under drift monitoring.

    Parameters
    ----------
    model : MiniBatchKhatriRaoKMeans
        The streaming estimator (anything exposing ``partial_fit`` with
        the ``index`` protocol and a ``last_batch_stats_`` snapshot).
    engine : DriftEngine, optional
        Defaults to a fresh engine with default thresholds.
    policy : str, dict or DriftPolicy
        Policy spec, resolved through
        :func:`~repro.monitoring.policies.resolve_policy`
        (default ``"alert_only"``).
    """

    def __init__(self, model, *, engine: Optional[DriftEngine] = None,
                 policy="alert_only") -> None:
        self.model = model
        self.engine = engine if engine is not None else DriftEngine()
        self.policy: DriftPolicy = resolve_policy(policy)
        self.reports: List[StreamReport] = []
        self._timeline: List[dict] = []

    def process(self, batch, sample_weight=None, index=None) -> StreamReport:
        """One monitored stream step; returns the step's report."""
        self.model.partial_fit(batch, sample_weight=sample_weight, index=index)
        stats = self.model.last_batch_stats_
        alerts = self.engine.observe(stats)
        for alert in alerts:
            self._timeline.append({"event": "alert", **alert.to_dict()})
        action = self.policy.consider(
            self.model, batch, sample_weight, stats, alerts
        )
        if action is not None:
            if action.kind == "refit":
                # The baselines described a model that no longer exists.
                self.engine.reset()
            self._timeline.append({"event": "action", **action.to_dict()})
        report = StreamReport(
            step=stats.step, stats=stats, alerts=tuple(alerts), action=action
        )
        self.reports.append(report)
        return report

    def timeline(self) -> List[dict]:
        """The ordered alert/action timeline (copies, JSON-able)."""
        return [dict(entry) for entry in self._timeline]

    # --------------------------------------------------------- checkpointing
    def save(self, path):
        """Snapshot the whole pipeline atomically to ``path``.

        One archive: the estimator's stream checkpoint with the monitor
        state (engine, policy, timeline) riding in the header.  Returns
        the written path.
        """
        return self.model.save_stream(path, extra_header={
            "monitor": {
                "engine": self.engine.state_dict(),
                "policy": self.policy.state_dict(),
                "timeline": self.timeline(),
            },
        })

    def load(self, path) -> "MonitoredStream":
        """Restore a :meth:`save` snapshot into this pipeline.

        The model, engine and policy must be configured identically to
        the writer (each verifies its own fingerprint); continuing the
        batch sequence is then bit-identical to never having stopped.
        """
        monitor = self.model._restore_stream(path).get("monitor")
        if monitor is None:
            raise MonitoringError(
                f"{path} is a stream checkpoint without monitor state; "
                "it was not written by MonitoredStream.save"
            )
        self.engine.restore(monitor["engine"])
        self.policy.restore(monitor["policy"])
        self._timeline = [dict(entry) for entry in monitor["timeline"]]
        self.reports = []
        return self
