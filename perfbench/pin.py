#!/usr/bin/env python3
"""Regenerate ``perfbench/pins.json``, the pinned results the gates check.

    python3 perfbench/pin.py --seeds 0-10 --seconds 20

Pins every instance a run with those seeds and ``--seconds`` replays:
``n_iter_`` and ``inertia_`` of each batch fit, and the alert timeline,
protocentroid digest and pool inertia of each monitored stream pass.
Re-pin only when a change is meant to alter results, and say so.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-10", help="inclusive range a-b")
    parser.add_argument("--seconds", type=int, default=20)
    args = parser.parse_args(argv)
    first, last = (int(x) for x in args.seeds.split("-"))
    os.environ.pop("REPRO_N_THREADS", None)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import workloads as w

    w.quiet_convergence()
    pins = {"kr_fit_profile": {}, "kr_stream_monitored": {}}
    n_fits = w.fit_count(args.seconds, trace=False)
    n_passes = w.pass_count(args.seconds, trace=False)
    workroot = ROOT / ".perfbench-work"
    workroot.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workroot) as workdir:
        for seed in range(first, last + 1):
            for i in range(n_fits):
                s = w.instance_seed(seed, i)
                X, _ = w.fit_instance(s)
                pins["kr_fit_profile"][str(s)] = w.fit_record(w.fit_model(s, X))
            for i in range(n_passes):
                s = w.instance_seed(seed, i)
                X, _, batches = w.stream_instance(s)
                stream, _, _ = w.stream_pass(s, X, batches, Path(workdir))
                pins["kr_stream_monitored"][str(s)] = w.stream_record(stream, X)
            print(f"pinned seed {seed}", file=sys.stderr, flush=True)
    with open(w.PINS_PATH, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
