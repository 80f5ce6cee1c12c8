"""Unit tests for the drift monitor: alerts, engine, policies."""

import numpy as np
import pytest

from repro import MiniBatchKhatriRaoKMeans
from repro.core.minibatch import BatchStats
from repro.exceptions import MonitoringError, ValidationError
from repro.monitoring import (
    ALERT_KINDS,
    POLICY_NAMES,
    SEVERITIES,
    AlertOnlyPolicy,
    DriftAlert,
    DriftEngine,
    MonitoredStream,
    PolicyAction,
    TriggerRefinePolicy,
    TriggerRefitPolicy,
    resolve_policy,
    severity_at_least,
)


def make_stats(step=1, mean_inertia=1.0, fraction=0.0, drift=0.1,
               batch_size=10):
    """A hand-built BatchStats snapshot (the engine only reads scalars)."""
    labels = np.zeros(batch_size, dtype=np.int64)
    labels.setflags(write=False)
    table = np.full(3, drift / 3.0)
    table.setflags(write=False)
    mass = float(batch_size)
    return BatchStats(
        step=step, batch_size=batch_size, mass=mass,
        inertia=mean_inertia * mass, mean_inertia=mean_inertia,
        shift=drift ** 2, reassignment_fraction=fraction,
        labels=labels, drift_norms=(table,),
    )


class TestAlerts:
    def test_severity_ladder(self):
        assert severity_at_least("critical", "warning")
        assert severity_at_least("warning", "warning")
        assert not severity_at_least("info", "warning")
        assert SEVERITIES == ("info", "warning", "critical")

    def test_severity_validates_names(self):
        with pytest.raises(ValidationError):
            severity_at_least("fatal", "warning")
        with pytest.raises(ValidationError):
            severity_at_least("warning", "whatever")

    def test_alert_round_trip(self):
        alert = DriftAlert(kind="inertia_regression", severity="warning",
                           step=7, value=2.0, baseline=1.0, threshold=1.25,
                           message="x")
        assert DriftAlert.from_dict(alert.to_dict()) == alert

    def test_action_round_trip(self):
        action = PolicyAction(kind="refit", step=3, reason="r")
        assert PolicyAction.from_dict(action.to_dict()) == action


class TestDriftEngine:
    @pytest.mark.parametrize("bad", [
        {"warmup_steps": -1},
        {"ewma_alpha": 0.0},
        {"ewma_alpha": 1.5},
        {"inertia_tolerance": -0.1},
        {"drift_tolerance": -1.0},
        {"reassignment_threshold": 0.0},
        {"critical_factor": 0.5},
        {"atol": -1e-9},
    ])
    def test_parameter_validation(self, bad):
        with pytest.raises(ValidationError):
            DriftEngine(**bad)

    def test_warmup_suppresses_alerts(self):
        engine = DriftEngine(warmup_steps=3, reassignment_threshold=0.5)
        for step in range(1, 4):
            assert engine.observe(make_stats(step=step, fraction=1.0)) == []
        assert engine.observe(make_stats(step=4, fraction=1.0)) != []

    def test_baseline_folds_after_judging(self):
        # A big jump at the first post-warmup step alerts against the
        # *pre-jump* baseline, not one contaminated by the jump itself.
        engine = DriftEngine(warmup_steps=1, ewma_alpha=1.0,
                             inertia_tolerance=0.25)
        engine.observe(make_stats(step=1, mean_inertia=1.0))
        alerts = engine.observe(make_stats(step=2, mean_inertia=2.0))
        kinds = [a.kind for a in alerts]
        assert "inertia_regression" in kinds
        alert = alerts[kinds.index("inertia_regression")]
        assert alert.baseline == 1.0
        assert alert.severity == "critical"  # 2.0 > 1 * (1 + 2*0.25)

    def test_warning_vs_critical_escalation(self):
        engine = DriftEngine(warmup_steps=1, ewma_alpha=1.0,
                             inertia_tolerance=0.25, critical_factor=2.0)
        engine.observe(make_stats(step=1, mean_inertia=1.0))
        (alert,) = engine.observe(make_stats(step=2, mean_inertia=1.4))
        assert alert.severity == "warning"

    def test_quiet_stream_stays_quiet(self):
        engine = DriftEngine(warmup_steps=2)
        for step in range(1, 20):
            assert engine.observe(make_stats(step=step)) == []
        assert engine.alerts == []

    def test_emission_order_is_fixed(self):
        engine = DriftEngine(warmup_steps=1, ewma_alpha=1.0,
                             inertia_tolerance=0.1, drift_tolerance=0.1,
                             reassignment_threshold=0.5)
        engine.observe(make_stats(step=1, mean_inertia=1.0, drift=0.1))
        alerts = engine.observe(
            make_stats(step=2, mean_inertia=10.0, fraction=1.0, drift=1.0)
        )
        assert [a.kind for a in alerts] == list(ALERT_KINDS)

    def test_reset_reenters_warmup_but_keeps_history(self):
        engine = DriftEngine(warmup_steps=1, reassignment_threshold=0.5)
        engine.observe(make_stats(step=1))
        engine.observe(make_stats(step=2, fraction=1.0))
        n_alerts = len(engine.alerts)
        assert n_alerts == 1
        engine.reset()
        assert engine.n_observed == 0
        assert len(engine.alerts) == n_alerts
        # Back in warmup: the same surge does not alert immediately.
        assert engine.observe(make_stats(step=3, fraction=1.0)) == []

    def test_state_round_trip(self):
        engine = DriftEngine(warmup_steps=1, reassignment_threshold=0.5)
        for step in range(1, 5):
            engine.observe(make_stats(step=step, fraction=float(step > 2)))
        clone = DriftEngine(warmup_steps=1, reassignment_threshold=0.5)
        clone.restore(engine.state_dict())
        assert clone.state_dict() == engine.state_dict()
        # Both continue identically from here.
        stats = make_stats(step=5, mean_inertia=3.0, fraction=1.0)
        assert engine.observe(stats) == clone.observe(stats)

    def test_restore_rejects_config_mismatch(self):
        engine = DriftEngine(warmup_steps=1)
        other = DriftEngine(warmup_steps=2)
        with pytest.raises(MonitoringError):
            other.restore(engine.state_dict())


class _Recorder:
    """Stand-in model recording what a policy does to it."""

    def __init__(self):
        self.calls = []

    def partial_fit(self, batch, sample_weight=None, index=None):
        self.calls.append(("partial_fit", sample_weight is not None))

    def reinitialize(self, batch, random_state=None):
        self.calls.append(("reinitialize", random_state.bit_generator.state))


def critical_alert(step):
    return DriftAlert(kind="inertia_regression", severity="critical",
                      step=step, value=9.0, baseline=1.0, threshold=1.25,
                      message="m")


class TestPolicies:
    def test_registry(self):
        assert POLICY_NAMES == ("alert_only", "trigger_refine",
                                "trigger_refit")
        assert isinstance(resolve_policy("alert_only"), AlertOnlyPolicy)
        policy = resolve_policy({"name": "trigger_refine", "refine_steps": 3})
        assert isinstance(policy, TriggerRefinePolicy)
        assert policy.refine_steps == 3
        instance = TriggerRefitPolicy(seed=5)
        assert resolve_policy(instance) is instance

    def test_resolve_rejections(self):
        with pytest.raises(ValidationError):
            resolve_policy("nope")
        with pytest.raises(ValidationError):
            resolve_policy(AlertOnlyPolicy(), cooldown=3)
        with pytest.raises(ValidationError):
            resolve_policy({"name": "alert_only"}, cooldown=3)
        with pytest.raises(ValidationError):
            TriggerRefinePolicy(refine_steps=0)
        with pytest.raises(ValidationError):
            AlertOnlyPolicy(cooldown=-1)

    def test_alert_only_never_acts(self):
        model = _Recorder()
        policy = AlertOnlyPolicy()
        action = policy.consider(model, None, None, make_stats(step=5),
                                 [critical_alert(5)])
        assert action is None and model.calls == []

    def test_severity_floor(self):
        model = _Recorder()
        policy = TriggerRefinePolicy(min_severity="critical")
        warning = DriftAlert(kind="inertia_regression", severity="warning",
                             step=5, value=2.0, baseline=1.0, threshold=1.25,
                             message="m")
        assert policy.consider(model, None, None, make_stats(step=5),
                               [warning]) is None
        assert model.calls == []

    def test_refine_replays_batch_and_cools_down(self):
        model = _Recorder()
        policy = TriggerRefinePolicy(refine_steps=2, cooldown=5)
        action = policy.consider(model, None, None, make_stats(step=5),
                                 [critical_alert(5)])
        assert action.kind == "refine" and action.step == 5
        assert model.calls == [("partial_fit", False)] * 2
        # Inside the cooldown window: no second intervention.
        assert policy.consider(model, None, None, make_stats(step=8),
                               [critical_alert(8)]) is None
        assert len(model.calls) == 2
        # Past it: acts again.
        assert policy.consider(model, None, None, make_stats(step=10),
                               [critical_alert(10)]).step == 10

    def test_refit_rng_is_pure_function_of_seed_and_step(self):
        states = []
        for _ in range(2):
            model = _Recorder()
            TriggerRefitPolicy(seed=3).consider(
                model, None, None, make_stats(step=7), [critical_alert(7)]
            )
            states.append(model.calls[0][1])
        assert states[0] == states[1]
        expected = np.random.default_rng([3, 7]).bit_generator.state
        assert states[0] == expected

    def test_policy_state_round_trip(self):
        policy = TriggerRefinePolicy(cooldown=5)
        policy.consider(_Recorder(), None, None, make_stats(step=5),
                        [critical_alert(5)])
        clone = TriggerRefinePolicy(cooldown=5)
        clone.restore(policy.state_dict())
        assert clone.last_trigger_step == 5
        with pytest.raises(MonitoringError):
            TriggerRefinePolicy(cooldown=6).restore(policy.state_dict())



class TestMonitoredStreamCheckpoint:
    @staticmethod
    def build():
        return MonitoredStream(MiniBatchKhatriRaoKMeans((3, 3), random_state=0),
                               engine=DriftEngine(warmup_steps=1))

    def test_load_reads_the_archive_once(self, tmp_path, monkeypatch):
        rng = np.random.default_rng(0)
        stream = self.build()
        for step in range(4):
            stream.process(rng.normal(size=(40, 4)) + step,
                           index=np.arange(40) + 40 * step)
        path = stream.save(tmp_path / "monitored.npz")

        reads = []
        real_load = np.load

        def counting_load(*args, **kwargs):
            reads.append(args[0])
            return real_load(*args, **kwargs)

        monkeypatch.setattr(np, "load", counting_load)
        resumed = self.build().load(path)
        assert len(reads) == 1
        assert resumed.timeline() == stream.timeline()
