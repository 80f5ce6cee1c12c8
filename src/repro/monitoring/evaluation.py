"""Golden-dataset regression harness for the drift monitor.

A *golden scenario* is one committed ``.npz`` archive holding a complete
monitored-stream experiment: the raw batch stream (data, batch offsets,
optional point identities and sample weights), the full model / engine /
policy configuration, and the **pinned expectation** — the alert/action
timeline, the reassignment-fraction log, the step count and the final
protocentroids the stream produced when the scenario was recorded.

:func:`run_suite` replays every scenario from scratch and compares
**exactly** (timelines field by field, floats bit for bit, protocentroid
arrays byte for byte): the whole pipeline is deterministic by contract,
so *any* delta means monitoring behavior changed, and the harness fails
with a typed :class:`~repro.exceptions.GoldenMismatchError` naming the
first divergence per section.  CI runs it as its own hard-timeout step
(``repro.cli monitor``) and uploads the JSON report as an artifact.

Scenario archives are written by :func:`record_scenario` through the
checkpoint writer, so they carry per-array SHA-256 digests and are
verified on load; ``tests/goldens/make_goldens.py`` is the committed
generator that (re)builds every shipped scenario deterministically.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..core import MiniBatchKhatriRaoKMeans
from ..exceptions import GoldenMismatchError, ValidationError
from ..runtime.checkpoint import read_checkpoint, write_checkpoint
from .engine import DriftEngine
from .pipeline import MonitoredStream
from .policies import resolve_policy

__all__ = [
    "Scenario",
    "load_scenario",
    "record_scenario",
    "replay_scenario",
    "run_scenario",
    "run_suite",
]

_SCENARIO_KIND = "monitoring-golden-scenario"


@dataclass(frozen=True)
class Scenario:
    """One loaded golden scenario: inputs, configuration, expectation."""

    name: str
    description: str
    model_config: dict
    engine_config: dict
    policy_config: dict
    X: np.ndarray
    offsets: np.ndarray
    index: Optional[np.ndarray]
    weights: Optional[np.ndarray]
    expected: dict  # timeline, fractions (or None), n_steps
    expected_thetas: Tuple[np.ndarray, ...]

    @property
    def n_batches(self) -> int:
        return self.offsets.size - 1

    def batches(self):
        """Yield ``(batch, weights, index)`` triples in stream order."""
        for i in range(self.n_batches):
            lo, hi = int(self.offsets[i]), int(self.offsets[i + 1])
            yield (
                self.X[lo:hi],
                None if self.weights is None else self.weights[lo:hi],
                None if self.index is None else self.index[lo:hi],
            )


def _build_stream(scenario: Scenario) -> MonitoredStream:
    config = dict(scenario.model_config)
    cardinalities = config.pop("cardinalities")
    model = MiniBatchKhatriRaoKMeans(cardinalities, **config)
    engine = DriftEngine(**scenario.engine_config)
    policy = resolve_policy(dict(scenario.policy_config))
    return MonitoredStream(model, engine=engine, policy=policy)


def replay_scenario(scenario: Scenario) -> MonitoredStream:
    """Re-run the scenario's batch stream from scratch; returns the pipeline."""
    stream = _build_stream(scenario)
    for batch, weights, index in scenario.batches():
        stream.process(batch, sample_weight=weights, index=index)
    return stream


# -------------------------------------------------------------- comparison
def _first_delta(section: str, expected, actual) -> List[str]:
    """Exact comparison of two JSON-able values; at most one message."""
    if expected == actual:
        return []
    if isinstance(expected, list) and isinstance(actual, list):
        if len(expected) != len(actual):
            return [
                f"{section}: length {len(actual)} != expected {len(expected)}"
            ]
        for i, (want, have) in enumerate(zip(expected, actual)):
            if want != have:
                return [
                    f"{section}[{i}]: {_summarize(have)} != expected "
                    f"{_summarize(want)}"
                ]
    return [f"{section}: {_summarize(actual)} != expected {_summarize(expected)}"]


def _summarize(value) -> str:
    text = repr(value)
    return text if len(text) <= 200 else text[:197] + "..."


def compare_scenario(scenario: Scenario, stream: MonitoredStream) -> List[str]:
    """Every divergence between the replay and the pinned expectation.

    Exact everywhere: timelines compare field by field (floats bit for
    bit through their JSON round trip), the fraction log elementwise, the
    final protocentroids byte for byte per set.  Empty list == pass.
    """
    mismatches: List[str] = []
    mismatches += _first_delta(
        "timeline", scenario.expected["timeline"], stream.timeline()
    )
    fractions = stream.model.reassignment_fractions_
    mismatches += _first_delta(
        "fractions", scenario.expected["fractions"],
        None if fractions is None else [float(f) for f in fractions],
    )
    mismatches += _first_delta(
        "n_steps", scenario.expected["n_steps"], int(stream.model.n_steps_)
    )
    for q, want in enumerate(scenario.expected_thetas):
        have = stream.model.protocentroids_[q]
        if have.dtype != want.dtype or have.shape != want.shape:
            mismatches.append(
                f"theta_{q}: dtype/shape {have.dtype}{have.shape} != "
                f"expected {want.dtype}{want.shape}"
            )
        elif have.tobytes() != want.tobytes():
            delta = np.max(np.abs(
                have.astype(np.float64) - want.astype(np.float64)
            ))
            mismatches.append(
                f"theta_{q}: protocentroids differ from the recorded stream "
                f"(max |delta| = {delta:.3e})"
            )
    return mismatches


# -------------------------------------------------------------- file format
def record_scenario(
    path,
    *,
    name: str,
    description: str,
    model_config: dict,
    engine_config: dict,
    policy_config: dict,
    X: np.ndarray,
    offsets,
    index=None,
    weights=None,
) -> Path:
    """Replay the stream once and pin its behavior into a scenario archive.

    This is how goldens are (re)generated — deliberately the same replay
    path :func:`run_scenario` uses, so a recorded scenario passes its own
    regression check by construction.  Returns the written path.
    """
    X = np.ascontiguousarray(X)
    offsets = np.ascontiguousarray(offsets, dtype=np.int64)
    if offsets.ndim != 1 or offsets.size < 2 or offsets[0] != 0 \
            or offsets[-1] != X.shape[0] or np.any(np.diff(offsets) <= 0):
        raise ValidationError(
            "offsets must be a 1-D cumulative batch boundary array "
            f"starting at 0 and ending at {X.shape[0]}, got {offsets!r}"
        )
    scenario = Scenario(
        name=name, description=description,
        model_config=dict(model_config), engine_config=dict(engine_config),
        policy_config=dict(policy_config),
        X=X, offsets=offsets,
        index=None if index is None else np.ascontiguousarray(
            index, dtype=np.int64
        ),
        weights=None if weights is None else np.ascontiguousarray(weights),
        expected={}, expected_thetas=(),
    )
    stream = replay_scenario(scenario)
    fractions = stream.model.reassignment_fractions_
    header = {
        "kind": _SCENARIO_KIND,
        "name": name,
        "description": description,
        "model": scenario.model_config,
        "engine": scenario.engine_config,
        "policy": scenario.policy_config,
        "has_index": scenario.index is not None,
        "has_weights": scenario.weights is not None,
        "expected": {
            "timeline": stream.timeline(),
            "fractions": (
                None if fractions is None else [float(f) for f in fractions]
            ),
            "n_steps": int(stream.model.n_steps_),
        },
    }
    arrays = {"X": X, "offsets": offsets}
    if scenario.index is not None:
        arrays["index"] = scenario.index
    if scenario.weights is not None:
        arrays["weights"] = scenario.weights
    for q, theta in enumerate(stream.model.protocentroids_):
        arrays[f"expected_theta_{q}"] = theta
    return write_checkpoint(path, header, arrays)


def load_scenario(path) -> Scenario:
    """Load and digest-verify one scenario archive."""
    header, arrays = read_checkpoint(path)
    if header.get("kind") != _SCENARIO_KIND:
        raise GoldenMismatchError(
            f"{path} is not a monitoring golden scenario "
            f"(kind={header.get('kind')!r})"
        )
    n_sets = len(header["model"]["cardinalities"])
    return Scenario(
        name=str(header["name"]),
        description=str(header.get("description", "")),
        model_config=dict(header["model"]),
        engine_config=dict(header["engine"]),
        policy_config=dict(header["policy"]),
        X=arrays["X"],
        offsets=np.ascontiguousarray(arrays["offsets"], dtype=np.int64),
        index=arrays["index"] if header.get("has_index") else None,
        weights=arrays["weights"] if header.get("has_weights") else None,
        expected=dict(header["expected"]),
        expected_thetas=tuple(
            arrays[f"expected_theta_{q}"] for q in range(n_sets)
        ),
    )


# ---------------------------------------------------------------- the runner
def run_scenario(path) -> Dict:
    """Replay one scenario file; returns its report entry (never raises
    on mismatch — :func:`run_suite` aggregates and raises)."""
    scenario = load_scenario(path)
    stream = replay_scenario(scenario)
    mismatches = compare_scenario(scenario, stream)
    return {
        "scenario": scenario.name,
        "path": str(path),
        "n_batches": scenario.n_batches,
        "n_alerts": len(stream.engine.alerts),
        "n_actions": sum(
            1 for entry in stream.timeline() if entry["event"] == "action"
        ),
        "status": "pass" if not mismatches else "fail",
        "mismatches": mismatches,
    }


def run_suite(goldens, *, report_path=None) -> Dict:
    """Replay every ``*.npz`` scenario under ``goldens`` (a directory or an
    explicit list of paths), write the JSON report, and fail typed.

    Returns the report dict ``{"status", "scenarios": [...]}`` on a clean
    pass; raises :class:`~repro.exceptions.GoldenMismatchError` carrying
    every divergence when any scenario fails (the report is still written
    first, so CI uploads it either way).
    """
    if isinstance(goldens, (str, Path)):
        paths = sorted(Path(goldens).glob("*.npz"))
        if not paths:
            raise ValidationError(
                f"no golden scenarios (*.npz) found under {goldens}"
            )
    else:
        paths = [Path(p) for p in goldens]
    scenarios = [run_scenario(path) for path in paths]
    failed = [entry for entry in scenarios if entry["status"] == "fail"]
    report = {
        "status": "fail" if failed else "pass",
        "n_scenarios": len(scenarios),
        "n_failed": len(failed),
        "scenarios": scenarios,
    }
    if report_path is not None:
        report_path = Path(report_path)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(json.dumps(report, indent=2) + "\n")
    if failed:
        mismatches = [
            f"{entry['scenario']}: {line}"
            for entry in failed for line in entry["mismatches"]
        ]
        raise GoldenMismatchError(
            f"{len(failed)}/{len(scenarios)} golden scenario(s) replayed "
            "with behavioral deltas:\n  " + "\n  ".join(mismatches),
            mismatches=mismatches,
        )
    return report
