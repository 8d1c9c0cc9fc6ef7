#!/usr/bin/env python3
"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Runs each workload's operation once at a tiny size (``qnlse verify`` is
run whole: it has no size) and shows, for every check, that it accepts
the program's output as it is and rejects a corrupted copy: a final frame
perturbed by 1e-3, a suite flipped to ``passed: 0``, a truncated frame
file, and CSV and JSON emissions that no longer carry the same doubles.
Exits 0 when every check behaves.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from checks import CheckError  # noqa: E402
from workloads import March  # noqa: E402

WORK = BENCH / "work" / "selftest"
failures: list[str] = []


def expect(accepts: bool, what: str, check, *args) -> None:
    try:
        check(*args)
        outcome = True
    except CheckError as err:
        outcome = False
        detail = str(err)
    ok = outcome == accepts
    verb = "accepts" if accepts else "rejects"
    note = "" if outcome else f" ({detail})"
    print(f"{'ok  ' if ok else 'FAIL'} {verb} {what}{note}")
    if not ok:
        failures.append(what)


def verify_checks() -> None:
    from qnlse.cli import main
    report = WORK / "verify.json"
    if main(["verify", "--format", "json", "--out", str(report)]) != 0:
        failures.append("qnlse verify exits 0")
        return
    expect(True, "the verify report", checks.check_verify_report, report)
    data = json.loads(report.read_text())
    flipped = WORK / "verify-flipped.json"
    flipped.write_text(json.dumps({**data, "ode-order.passed": 0}))
    expect(False, "a verify report with a suite flipped to passed: 0",
           checks.check_verify_report, flipped)
    dropped = WORK / "verify-dropped.json"
    dropped.write_text(json.dumps({k: v for k, v in data.items() if not k.startswith("ode-order.")}))
    expect(False, "a verify report missing a suite", checks.check_verify_report, dropped)


def march_checks() -> None:
    from qnlse.integrators import GridSpec, manufactured_field, propagate, sample_field
    from qnlse.solutions import FreeParticleSpec, SolutionKind
    x = np.linspace(-5.0, 5.0, 101)
    dx = float(x[1] - x[0])
    steps = checks.horizon_steps(checks.ClosedForm("new", 1.1), x, dx, 1e-4, 200)
    cases = [March("new", 1.1, 1.0, 101, 1e-4, steps),
             March("nrt", 1.1, 1.0, 101, 1e-4, steps),
             March("new", 1.0, 0.9, 101, 1e-4, 200),
             March("nrt", 1.0, 0.9, 101, 1e-4, 200)]
    pair = []
    for m in cases:
        kind = SolutionKind(m.equation)
        field = manufactured_field(kind, FreeParticleSpec(q=m.q, p=m.p))
        grid = GridSpec(-5.0, 5.0, m.n, m.dt, m.steps)
        frames = propagate(kind, sample_field(field, grid, 0.0), m.q, 0.5, 1.0, boundary=field)
        times = [f.t for f in frames]
        first, last = frames[0].values, frames[-1].values
        label = f"{m.equation} march at q={m.q}"
        expect(True, label, checks.check_march, m.form, x, m.dt, m.steps, times, first, last)
        bumped = last.copy()
        bumped[m.n // 2] += 1e-3
        expect(False, f"{label} with its final frame perturbed by 1e-3",
               checks.check_march, m.form, x, m.dt, m.steps, times, first, bumped)
        expect(False, f"{label} missing its last frame",
               checks.check_march, m.form, x, m.dt, m.steps, times[:-1], first, frames[-2].values)
        if m.q == 1.0:
            pair.append([f.values for f in frames])
    expect(True, "the q = 1 NEW/NRT pair", checks.check_classical_pair, *pair)
    bumped = [v.copy() for v in pair[1]]
    bumped[-1][50] += 1e-3
    expect(False, "the q = 1 pair with the NRT final frame perturbed by 1e-3",
           checks.check_classical_pair, pair[0], bumped)


def frames_out_checks() -> None:
    from qnlse.cli import main
    m = March("nrt", 1.03, 1.0, 41, 1e-4, 5)
    csv_dir, json_path = WORK / "frames", WORK / "frames.json"
    for fmt, out in (("csv", csv_dir), ("json", json_path)):
        if main(m.cli_args(fmt, out)) != 0:
            failures.append(f"qnlse propagate --format {fmt} exits 0")
            return

    def variant(name, edit_csv=None, edit_json=None):
        d, j = WORK / f"{name}-csv", WORK / f"{name}.json"
        shutil.copytree(csv_dir, d)
        payload = json.loads(json_path.read_text())
        if edit_csv:
            edit_csv(d / f"frame_{m.steps:06d}.csv")
        if edit_json:
            edit_json(payload["frames"][-1])
        j.write_text(json.dumps(payload))
        return d, j

    def truncate(path):
        text = path.read_text()
        path.write_text(text[: len(text) // 2])

    def bump_csv(path):
        lines = path.read_text().splitlines()
        x, t, re, im = lines[20].split(",")
        lines[20] = ",".join((x, t, repr(float(re) + 1e-3), im))
        path.write_text("\n".join(lines) + "\n")

    def bump_json(frame):
        frame["re"][19] += 1e-3

    args = (m.form, m.x(), m.dt, m.steps)
    expect(True, "CSV and JSON frames of one march", checks.check_cli_frames, *args,
           csv_dir, json_path)
    expect(False, "a truncated frame file", checks.check_cli_frames, *args,
           *variant("truncated", edit_csv=truncate))
    expect(False, "a JSON final frame perturbed by 1e-3 (CSV untouched)",
           checks.check_cli_frames, *args, *variant("json-bumped", edit_json=bump_json))
    expect(False, "CSV and JSON final frames both perturbed by 1e-3",
           checks.check_cli_frames, *args,
           *variant("both-bumped", edit_csv=bump_csv, edit_json=bump_json))


def main() -> int:
    if WORK.exists():
        shutil.rmtree(WORK)
    WORK.mkdir(parents=True)
    try:
        march_checks()
        frames_out_checks()
        verify_checks()
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
        if not any(WORK.parent.iterdir()):
            WORK.parent.rmdir()
    print("self-test:", "FAILED " + ", ".join(failures) if failures else "all checks behave")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
