#!/usr/bin/env python3
"""Run the repository benchmark.

    python3 perfbench/run.py --workload kr_fit_profile --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 20

One run measures one workload for about ``--seconds`` seconds and checks
every result it produces.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
run wraps each layer from the outside and reports the per-layer ones, and
writes its spans to ``.perfbench-work/``.  The line before it records the
environment, the workload's parameters and its quality figures.
``--workload all`` runs every workload in turn, each in its own process.

The program is imported from ``src/`` of the checkout this file sits in;
without it the run fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = (
    "kr_fit_profile",
    "kr_stream_monitored",
    "deep_kr_dkm_stickfigures",
    "serve_http_open_loop",
)
E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "rows_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def result_line(correct, attempted, failed, metrics, units) -> str:
    out = {}
    for name, value in metrics.items():
        if not math.isfinite(value):
            correct, value = False, 0.0
        out[name] = {"value": float(value), "unit": units[name]}
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": out})


def run_one(args) -> int:
    from perfbench import envinfo, serve_load, workloads
    from perfbench.layers import PER_LAYER_UNITS

    runners = {
        "kr_fit_profile": workloads.kr_fit_profile,
        "kr_stream_monitored": workloads.kr_stream_monitored,
        "deep_kr_dkm_stickfigures": workloads.deep_kr_dkm_stickfigures,
        "serve_http_open_loop": serve_load.serve_http_open_loop,
    }
    dtype = "float32" if args.workload == "serve_http_open_loop" else "float64"
    env = envinfo.environment(args.workload, args.seed, args.seconds,
                              bool(args.trace), dtype)
    outcome = runners[args.workload](args.seed, args.seconds, bool(args.trace))
    for message in outcome.messages:
        print(f"perfbench: check failed: {message}", file=sys.stderr)
    if outcome.recorder is not None:
        trace_path = Path(os.environ["PERFBENCH_WORKDIR"]) / (
            f"trace-{args.workload}-{args.seed}.jsonl")
        outcome.recorder.dump(trace_path)
    units = PER_LAYER_UNITS if args.trace else E2E_UNITS
    metrics = {name: outcome.metrics[name] for name in units}
    print(json.dumps({"environment": env, "detail": outcome.detail}))
    print(result_line(outcome.failed == 0, outcome.attempted, outcome.failed,
                      metrics, units))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints a table and one result
    line whose metric names are prefixed by the workload."""
    correct, attempted, failed, metrics, units = True, 0, 0, {}, {}
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, check=False)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"perfbench: {workload} exited with {proc.returncode}",
                  file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        correct = correct and result["correct"]
        attempted += result["attempted"]
        failed += result["failed"]
        print(f"{workload}: attempted {result['attempted']}, "
              f"failed {result['failed']}")
        for name, metric in result["metrics"].items():
            print(f"  {name:<40} {metric['value']:>16.6g} {metric['unit']}")
            metrics[f"{workload}.{name}"] = metric["value"]
            units[f"{workload}.{name}"] = metric["unit"]
    print(result_line(correct, attempted, failed, metrics, units))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    # "Default" means the library default, whatever the caller's shell set.
    os.environ.pop("REPRO_N_THREADS", None)
    workdir = ROOT / ".perfbench-work"
    workdir.mkdir(exist_ok=True)
    os.environ["PERFBENCH_WORKDIR"] = str(workdir)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
