#!/usr/bin/env python3
"""qnlse benchmark: one workload, checked, for a fixed number of seconds.

    python3 bench/run.py --workload {verify,march,frames-out} --seed N \
        --seconds S --trace {0,1}

Runs from the root of a source checkout, on ``src/`` (no install).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  A copy of the
result, the per-round figures and the trace aggregates are written under
``bench/results/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = BENCH / "work"
RESULTS = BENCH / "results"

SETUP_PROBES = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("verify", "march", "frames-out"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def probe_setup(workload: str, seed: int) -> dict:
    """Import and input building, timed in a fresh process."""
    from workloads import CHILD, child_env
    out = subprocess.run([sys.executable, str(CHILD), "setup", "--workload", workload,
                          "--seed", str(seed)], env=child_env(), cwd=ROOT,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def measure(wl, seconds: float, trace: bool):
    """Whole rounds until ``seconds`` have passed; with trace, untraced/traced pairs."""
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(wl.run_round(False))
        if trace:
            traced.append(wl.run_round(True))
        if time.perf_counter() >= deadline:
            return plain, traced


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "qnlse" / "__init__.py").is_file():
        print(f"error: no qnlse sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qnlse.cli  # noqa: F401  (fails early, and compiles bytecode before the probes)

    from checks import SUITES, CheckError
    from tracer import layer_metrics
    from workloads import WORKLOADS

    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir(parents=True)
    try:
        wl = WORKLOADS[args.workload](args.seed, WORK)
        probes = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        wl.build_inputs()
        correct, problem = True, None
        try:
            plain, traced = measure(wl, args.seconds, bool(args.trace))
        except CheckError as err:
            correct, problem, plain, traced = False, str(err), [], []
    finally:
        shutil.rmtree(WORK, ignore_errors=True)

    rounds = plain + traced
    result = {
        "correct": correct and bool(plain),
        "attempted": sum(r.attempted for r in rounds) or 1,
        "failed": sum(r.failed for r in rounds),
    }
    extra = {"op_s": [r.op_s for r in plain], "probes": probes}
    if hasattr(wl, "point_updates") and plain:
        extra["point_updates_per_round"] = wl.point_updates
        extra["point_updates_per_s"] = wl.point_updates / statistics.median(extra["op_s"])
    per_round = [layer_metrics(r.snap, SUITES) for r in traced if r.snap is not None]
    if args.trace and not per_round and result["correct"]:
        result["correct"], problem = False, "no traced round completed"
    if not result["correct"]:
        result["metrics"] = {}
    elif args.trace:
        metrics = {name: statistics.median_low(m[name] for m in per_round) for name in per_round[0]}
        metrics["process.import_s"] = statistics.median(p["import_s"] for p in probes)
        metrics["trace.overhead_s"] = statistics.median(
            t.op_s - p.op_s for p, t in zip(plain, traced))
        result["metrics"] = {k: {"value": v, "unit": UNITS[k.rsplit(".", 1)[-1]]}
                             for k, v in metrics.items()}
        extra["trace"] = traced[-1].snap
    else:
        result["metrics"] = {
            "setup_s": {"value": statistics.median(p["setup_s"] for p in probes), "unit": "s"},
            "peak_rss_mb": {"value": max(r.rss_mb for r in plain), "unit": "MB"},
            "op_wall_s": {"value": statistics.median(r.op_s for r in plain), "unit": "s"},
        }

    RESULTS.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps({"result": result, **extra}), encoding="utf-8")
    if problem:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# unit by the last dotted part of a per-layer name
UNITS = {
    "s": "s", "self_s": "s", "calls": "count", "rk4_steps": "count",
    "point_updates": "count", "n401": "1/s", "n1601": "1/s",
    "evals_per_point_residual": "ratio", "frame_bytes": "B_computed",
    "bytes": "B", "import_s": "s", "overhead_s": "s",
}

if __name__ == "__main__":
    sys.exit(main())
