"""The three workloads: what each one runs, times and checks.

A workload is constructed from its seed, builds the program's inputs
(``build_inputs``, which is what the set-up probes time in a fresh
process), and runs whole rounds of the same operations (``run_round``).
A round returns the wall time of its operations with checks excluded, the
peak resident memory of the process that did the work, and, when traced,
the tracer's aggregates.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from checks import CheckError, ClosedForm
from tracer import Tracer, merge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"

# qnlse verify at the package's default seed; see README ("Seeds").
VERIFY_SEED = "42"

# march: NEW and NRT at several q != 1 on 401 points, each to the horizon
# its amplification estimate allows, plus the q = 1 linear pair on 1601
# points over thousands of steps.
MARCH_Q = (0.9, 0.95, 1.05, 1.1, 1.5)
MARCH_Q_JITTER = 0.005
MARCH_N, MARCH_DT, MARCH_CAP = 401, 1e-5, 1000
PAIR_N, PAIR_DT, PAIR_STEPS = 1601, 2e-6, 2000
PAIR_P = (0.75, 1.25)

# frames-out: fixed inputs, so that emitted bytes are a count that repeats.
FRAMES_Q, FRAMES_N, FRAMES_DT, FRAMES_STEPS = 1.03, 401, 1e-5, 300


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["QNLSE_SEED"] = VERIFY_SEED
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(argv, stdout_path: Path):
    """Run one subprocess to its end: (wall seconds, exit code, peak RSS in MB)."""
    with open(stdout_path, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT,
                                env=child_env(), cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return elapsed, proc.returncode, usage.ru_maxrss / 1024.0


def traced_argv(trace_path: Path, cli_args) -> list:
    return [sys.executable, str(CHILD), "cli", "--trace-out", str(trace_path), "--", *cli_args]


def plain_argv(cli_args) -> list:
    return [sys.executable, "-m", "qnlse", *cli_args]


def digest(path: Path) -> str:
    """Hash of a file, or of a directory's files in name order."""
    h = hashlib.sha256()
    paths = sorted(path.iterdir()) if path.is_dir() else [path]
    for p in paths:
        h.update(p.name.encode())
        h.update(p.read_bytes())
    return h.hexdigest()


@dataclass
class Round:
    op_s: float  # wall seconds of the round's operations, checks excluded
    rss_mb: float
    attempted: int
    failed: int
    snap: dict | None = None


@dataclass(frozen=True)
class March:
    equation: str
    q: float
    p: float
    n: int
    dt: float
    steps: int

    @property
    def form(self) -> ClosedForm:
        return ClosedForm(self.equation, self.q, self.p)

    def x(self):
        import numpy as np
        return np.linspace(-5.0, 5.0, self.n)

    def cli_args(self, fmt: str, out: Path) -> list:
        return ["propagate", "--equation", self.equation, "--q", repr(self.q),
                "--p", repr(self.p), "--nx", str(self.n), "--dt", repr(self.dt),
                "--steps", str(self.steps), "--format", fmt, "--out", str(out)]


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------


class VerifyWorkload:
    """``qnlse verify`` as a subprocess, one run per round."""

    name = "verify"

    def __init__(self, seed: int, work: Path):
        self.work = work

    def build_inputs(self):
        import qnlse.cli
        return qnlse.cli.build_parser().parse_args(self._cli_args())

    def _cli_args(self):
        return ["verify", "--format", "json", "--out", str(self.work / "verify.json")]

    def run_round(self, traced: bool) -> Round:
        report = self.work / "verify.json"
        report.unlink(missing_ok=True)
        trace_path = self.work / "verify.trace.json"
        argv = traced_argv(trace_path, self._cli_args()) if traced else plain_argv(self._cli_args())
        elapsed, code, rss = run_child(argv, self.work / "verify.log")
        if code != 0:
            return Round(elapsed, rss, 1, 1)
        checks.check_verify_report(report)
        snap = json.loads(trace_path.read_text()) if traced else None
        return Round(elapsed, rss, 1, 0, snap)


# ---------------------------------------------------------------------------
# march
# ---------------------------------------------------------------------------


def march_plan(seed: int) -> list:
    """The round's marches; steps are fixed per nominal q, the seed only jitters inputs."""
    import numpy as np
    rng = random.Random(seed)
    x = np.linspace(-5.0, 5.0, MARCH_N)
    dx = float(x[1] - x[0])
    plan = []
    for q0 in MARCH_Q:
        for eq in ("new", "nrt"):
            steps = checks.horizon_steps(ClosedForm(eq, q0), x, dx, MARCH_DT, MARCH_CAP)
            q = q0 + rng.uniform(-MARCH_Q_JITTER, MARCH_Q_JITTER)
            plan.append(March(eq, q, 1.0, MARCH_N, MARCH_DT, steps))
    p = rng.uniform(*PAIR_P)
    for eq in ("new", "nrt"):
        plan.append(March(eq, 1.0, p, PAIR_N, PAIR_DT, PAIR_STEPS))
    return plan


class MarchWorkload:
    """In-process ``propagate`` of the manufactured closed forms."""

    name = "march"

    def __init__(self, seed: int, work: Path):
        self.plan = march_plan(seed)
        self.cases = None

    @property
    def point_updates(self) -> int:
        return sum((m.n - 2) * m.steps for m in self.plan)

    def build_inputs(self):
        from qnlse.integrators import GridSpec, manufactured_field, sample_field
        from qnlse.solutions import FreeParticleSpec, SolutionKind
        cases = []
        for m in self.plan:
            kind = SolutionKind(m.equation)
            field = manufactured_field(kind, FreeParticleSpec(q=m.q, p=m.p))
            grid = GridSpec(-5.0, 5.0, m.n, m.dt, m.steps)
            # the initial frame is an input, so set-up builds it; each timed
            # march samples it again, since the operation starts there
            cases.append((m, kind, field, grid, sample_field(field, grid, 0.0)))
        self.cases = cases

    def run_round(self, traced: bool) -> Round:
        import resource

        from qnlse import integrators
        from qnlse.errors import QnlseError

        tracer = Tracer() if traced else None
        if tracer is not None:
            tracer.install()
        op_s = 0.0
        failed = 0
        pair = []
        try:
            for m, kind, field, grid, _ in self.cases:
                start = time.perf_counter()
                try:
                    initial = integrators.sample_field(field, grid, 0.0)
                    frames = integrators.propagate(kind, initial, m.q, 0.5, 1.0, boundary=field)
                except QnlseError:
                    op_s += time.perf_counter() - start
                    failed += 1
                    continue
                op_s += time.perf_counter() - start
                checks.check_march(m.form, m.x(), m.dt, m.steps, [f.t for f in frames],
                                   frames[0].values, frames[-1].values)
                if m.q == 1.0:
                    pair.append([f.values for f in frames])
        finally:
            if tracer is not None:
                tracer.uninstall()
        if len(pair) == 2:
            checks.check_classical_pair(*pair)
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return Round(op_s, rss, len(self.cases), failed,
                     tracer.snapshot() if tracer is not None else None)


# ---------------------------------------------------------------------------
# frames-out
# ---------------------------------------------------------------------------


class FramesOutWorkload:
    """``qnlse propagate`` writing every frame as CSV files and as one JSON file."""

    name = "frames-out"

    def __init__(self, seed: int, work: Path):
        self.work = work
        self.rng = random.Random(seed)
        self.plan = [March(eq, FRAMES_Q, 1.0, FRAMES_N, FRAMES_DT, FRAMES_STEPS)
                     for eq in ("new", "nrt")]
        self.digests = None

    def _outputs(self, m: March):
        return {"csv": self.work / f"frames-{m.equation}", "json": self.work / f"frames-{m.equation}.json"}

    def build_inputs(self):
        import qnlse.cli
        parser = qnlse.cli.build_parser()
        return [parser.parse_args(m.cli_args(fmt, path))
                for m in self.plan for fmt, path in self._outputs(m).items()]

    def run_round(self, traced: bool) -> Round:
        # the seed only orders the round's runs: inputs stay fixed so that
        # every count the trace reports repeats exactly
        runs = [(m, fmt, path) for m in self.plan for fmt, path in self._outputs(m).items()]
        self.rng.shuffle(runs)
        op_s, rss, failed, snaps = 0.0, 0.0, 0, []
        for m, fmt, path in runs:
            if path.is_dir():
                shutil.rmtree(path)
            path.unlink(missing_ok=True)
            trace_path = self.work / "frames.trace.json"
            args = m.cli_args(fmt, path)
            argv = traced_argv(trace_path, args) if traced else plain_argv(args)
            elapsed, code, peak = run_child(argv, self.work / "frames.log")
            op_s += elapsed
            rss = max(rss, peak)
            if code != 0:
                failed += 1
            elif traced:
                snaps.append(json.loads(trace_path.read_text()))
        if not failed:
            self._check()
        return Round(op_s / len(runs), rss, len(runs), failed, merge(snaps) if traced else None)

    def _check(self) -> None:
        digests = {m.equation: {fmt: digest(p) for fmt, p in self._outputs(m).items()}
                   for m in self.plan}
        if self.digests is None:
            for m in self.plan:
                out = self._outputs(m)
                checks.check_cli_frames(m.form, m.x(), m.dt, m.steps, out["csv"], out["json"])
            self.digests = digests
        elif digests != self.digests:
            raise CheckError("a propagate rerun emitted different bytes than the checked first run")


WORKLOADS = {w.name: w for w in (VerifyWorkload, MarchWorkload, FramesOutWorkload)}
