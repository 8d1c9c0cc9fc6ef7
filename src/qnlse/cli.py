"""Command-line front end.

Subcommands: ``verify`` (run every verification suite), ``residual``
(scan one equation against one closed form), ``propagate`` (march a
manufactured field and emit frames), ``converge`` (order-of-accuracy
study), ``limit`` (classical-limit order table), ``compare`` (the two
space factors side by side).

Exit codes: 0 all checks passed, 1 a tolerance or verification check
failed, 2 usage or configuration error.  ``QNLSE_SEED`` seeds the
randomized suites (default 42).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .errors import DomainError, QnlseError
from .integrators import (
    GridSpec,
    OdeSpaceCase,
    OdeTimeCase,
    PdeCase,
    convergence_study,
    manufactured_field,
    propagate,
    sample_field,
)
from .reports import (
    field_svg_text,
    float_reprs,
    frame_csv_text,
    frame_filename,
    frames_json_text,
    report_csv_text,
    report_json_text,
    svg_line_plot,
    write_text,
)
from .residuals import Analytic, FiniteDifference, scan_residual
from .solutions import (
    FreeParticleSpec,
    SolutionKind,
    marched_form,
    product_solution_field,
    q_plane_wave_field,
    separated_space_curve,
    separated_time_curve,
)
from .verify import LIMIT_DELTAS, classical_limit_table, run_verification, seed_from_env

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


class UsageError(Exception):
    """Configuration rejected before any computation ran."""


@dataclass
class RunConfig:
    command: str
    spec: FreeParticleSpec
    equation: SolutionKind
    grid: GridSpec
    method: object
    tol: float
    fmt: str
    out: Optional[Path]
    solution: str
    form: str
    study: str
    levels: int


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--q", type=float, default=1.5, help="deformation parameter")
    common.add_argument("--p", type=float, default=1.0, help="momentum")
    common.add_argument("--mass", type=float, default=0.5, help="particle mass")
    common.add_argument("--hbar", type=float, default=1.0, help="action scale")
    common.add_argument("--equation", choices=("new", "nrt"), default="new",
                        help="which deformed equation")
    common.add_argument("--xmin", type=float, default=-5.0)
    common.add_argument("--xmax", type=float, default=5.0)
    common.add_argument("--nx", type=int, default=101, help="spatial points")
    common.add_argument("--dt", type=float, default=0.1, help="time step")
    common.add_argument("--steps", type=int, default=10, help="time steps")
    common.add_argument("--method", choices=("analytic", "fd"), default="analytic",
                        help="derivative evaluation for residuals")
    common.add_argument("--tol", type=float, default=1e-6,
                        help="pass/fail tolerance for residual scans")
    common.add_argument("--format", dest="fmt", choices=("csv", "json", "svg"),
                        default="json", help="output format")
    common.add_argument("--out", type=Path, default=None,
                        help="output file (directory for propagate csv frames)")

    parser = argparse.ArgumentParser(
        prog="qnlse",
        description="Deformed nonlinear Schrodinger equations: closed forms, "
                    "residual verification, integrators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("verify", parents=[common],
                   help="run every verification suite")
    residual = sub.add_parser("residual", parents=[common],
                              help="scan one equation's residual over the grid")
    residual.add_argument("--solution", choices=("plane", "new", "nrt"), default=None,
                          help="closed form to test (default: the equation's own)")
    residual.add_argument("--form", choices=("field", "phi", "time", "space"),
                          default="field", help="which form of the equation")
    sub.add_parser("propagate", parents=[common],
                   help="march a manufactured field and emit frames")
    converge = sub.add_parser("converge", parents=[common],
                              help="order-of-accuracy study")
    converge.add_argument("--study", choices=("pde", "ode-time", "ode-space"),
                          default="pde")
    converge.add_argument("--levels", type=int, default=3)
    sub.add_parser("limit", parents=[common],
                   help="classical-limit distances and fitted orders")
    sub.add_parser("compare", parents=[common],
                   help="compare the two separated space factors")
    return parser


# (command, format) pairs that cannot go to stdout, with what --out must
# name; svg exists only for the pairs listed here.
_NEEDS_OUT = {
    ("propagate", "csv"): "DIRECTORY",
    ("propagate", "svg"): "FILE",
    ("compare", "svg"): "FILE",
}


def _build_config(args: argparse.Namespace) -> RunConfig:
    equation = SolutionKind(args.equation)
    try:
        marched_form(equation, args.q)
    except DomainError as err:
        raise UsageError(f"--equation {args.equation}: {err}") from err
    if args.tol <= 0:
        raise UsageError("--tol must be positive")
    target = _NEEDS_OUT.get((args.command, args.fmt))
    if args.fmt == "svg" and target is None:
        raise UsageError(f"the {args.command} command has no svg representation")
    if target is not None and args.out is None:
        raise UsageError(f"{args.command} --format {args.fmt} needs --out {target}")
    try:
        spec = FreeParticleSpec(q=args.q, p=args.p, m=args.mass, hbar=args.hbar)
        grid = GridSpec(args.xmin, args.xmax, args.nx, args.dt, args.steps)
    except DomainError as err:
        raise UsageError(str(err)) from err
    method = Analytic() if args.method == "analytic" else FiniteDifference()
    return RunConfig(
        command=args.command,
        spec=spec,
        equation=equation,
        grid=grid,
        method=method,
        tol=args.tol,
        fmt=args.fmt,
        out=args.out,
        solution=getattr(args, "solution", None) or args.equation,
        form=getattr(args, "form", "field"),
        study=getattr(args, "study", "pde"),
        levels=getattr(args, "levels", 3),
    )


def _emit_text(text: str, cfg: RunConfig) -> None:
    if cfg.out is not None:
        write_text(cfg.out, text)
    else:
        sys.stdout.write(text)


def _emit_report(report: dict, cfg: RunConfig) -> None:
    _emit_text(report_json_text(report) if cfg.fmt == "json" else report_csv_text(report), cfg)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify(cfg: RunConfig) -> int:
    results = run_verification(seed=seed_from_env())
    report: dict = {}
    for r in results:
        report[f"{r.name}.passed"] = int(r.passed)
        report[f"{r.name}.worst"] = r.worst
        report[f"{r.name}.tolerance"] = r.tolerance
        if r.detail:
            report[f"{r.name}.detail"] = r.detail
    all_passed = all(r.passed for r in results)
    report["all_passed"] = int(all_passed)
    _emit_report(report, cfg)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _residual_tag(cfg: RunConfig) -> str:
    eq = cfg.equation.value
    if cfg.form == "phi":
        if eq != "new":
            raise UsageError("--form phi applies to --equation new only")
        return "new-phi"
    if cfg.form == "field":
        return f"{eq}-field"
    return f"{eq}-{cfg.form}"


def _residual_sampler(cfg: RunConfig):
    spec = cfg.spec
    if cfg.form in ("time", "space"):
        if cfg.solution == "plane":
            raise UsageError(
                "--solution plane has no separated factors; pick new or nrt"
            )
        curve = separated_time_curve if cfg.form == "time" else separated_space_curve
        return curve(SolutionKind(cfg.solution), spec)
    if cfg.solution == "plane":
        psi = q_plane_wave_field(spec)
    else:
        psi = product_solution_field(SolutionKind(cfg.solution), spec)
    return psi.pow(spec.q) if cfg.form == "phi" else psi


def cmd_residual(cfg: RunConfig) -> int:
    tag = _residual_tag(cfg)
    sampler = _residual_sampler(cfg)
    rep = scan_residual(
        tag, sampler, cfg.grid, cfg.method,
        q=cfg.spec.q, m=cfg.spec.m, hbar=cfg.spec.hbar, lam=cfg.spec.energy,
    )
    passed = rep.max_abs <= cfg.tol
    report = rep.as_dict()
    report.update({
        "q": cfg.spec.q,
        "solution": cfg.solution,
        "tol": cfg.tol,
        "passed": int(passed),
    })
    _emit_report(report, cfg)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _remove_stale_frames(directory: Path, last: int) -> None:
    """Delete the frames an earlier, longer run left in ``directory``:
    the files named by ``frame_filename`` with a step above ``last``."""
    for path in directory.glob("frame_*.csv"):
        step = path.name[len("frame_"):-len(".csv")]
        if step.isdecimal() and int(step) > last and path.name == frame_filename(int(step)):
            path.unlink()


def cmd_propagate(cfg: RunConfig) -> int:
    exact = manufactured_field(cfg.equation, cfg.spec)
    initial = sample_field(exact, cfg.grid, 0.0)
    traj = propagate(cfg.equation, initial, cfg.spec.q, cfg.spec.m,
                     cfg.spec.hbar, boundary=exact)
    xs = cfg.grid.x_values()
    if cfg.fmt == "csv":
        cfg.out.mkdir(parents=True, exist_ok=True)
        x_col = float_reprs(xs)
        for k, (t, row) in enumerate(zip(traj.times(), traj.values)):
            write_text(cfg.out / frame_filename(k), frame_csv_text(x_col, t, row))
        _remove_stale_frames(cfg.out, len(traj) - 1)
    elif cfg.fmt == "json":
        _emit_text(frames_json_text(cfg.equation.value, cfg.spec.q, xs,
                                    traj.times(), traj.values), cfg)
    else:
        last = traj[-1]
        write_text(cfg.out, field_svg_text(xs, last.t, last.values))
    return EXIT_OK


def cmd_converge(cfg: RunConfig) -> int:
    if cfg.study == "ode-time":
        case = OdeTimeCase(cfg.equation, cfg.spec)
    elif cfg.study == "ode-space":
        case = OdeSpaceCase(cfg.equation, cfg.spec)
    else:
        case = PdeCase(cfg.equation, cfg.spec, x_min=cfg.grid.x_min,
                       x_max=cfg.grid.x_max, dx0=0.2, dt=1e-4, t_final=0.002)
    rep = convergence_study(case, cfg.levels)
    report = rep.as_dict()
    report["study"] = cfg.study
    report["equation"] = cfg.equation.value
    _emit_report(report, cfg)
    return EXIT_OK


def cmd_limit(cfg: RunConfig) -> int:
    table = classical_limit_table(cfg.spec.p, cfg.spec.m, cfg.spec.hbar)
    report: dict = {}
    for family, (sups, order) in table.items():
        for d, s in zip(LIMIT_DELTAS, sups):
            report[f"sup_{family}_delta_{d:g}"] = s
        report[f"order_{family}"] = order
    min_order = min(order for _, order in table.values())
    passed = min_order >= 0.9
    report["min_order"] = min_order
    report["passed"] = int(passed)
    _emit_report(report, cfg)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_compare(cfg: RunConfig) -> int:
    spec = cfg.spec
    g_new = separated_space_curve(SolutionKind.NEW, spec)
    g_nrt = separated_space_curve(SolutionKind.NRT, spec)
    xs = cfg.grid.x_values()
    rows = [(x, abs(vn - vr), abs(vn), abs(vr))
            for x, vn, vr in zip(xs.tolist(), g_new(xs).tolist(), g_nrt(xs).tolist())]
    max_diff = max(r[1] for r in rows)
    if cfg.fmt == "svg":
        series = [
            ("|g_new|", [r[2] for r in rows]),
            ("|g_nrt|", [r[3] for r in rows]),
            ("|g_new-g_nrt|", [r[1] for r in rows]),
        ]
        write_text(cfg.out, svg_line_plot(xs, series,
                                          title=f"space factors, q={spec.q:g}"))
        return EXIT_OK
    if cfg.fmt == "csv":
        lines = ["x,abs_diff,mod_new,mod_nrt"]
        lines += [",".join(repr(v) for v in row) for row in rows]
        text = "\n".join(lines) + "\n"
    else:
        text = report_json_text({
            "q": spec.q,
            "x": [r[0] for r in rows],
            "abs_diff": [r[1] for r in rows],
            "mod_new": [r[2] for r in rows],
            "mod_nrt": [r[3] for r in rows],
            "max_abs_diff": max_diff,
        })
    _emit_text(text, cfg)
    return EXIT_OK


# The most specific listed class of a raised error picks the exit code;
# PropagationError and every other QnlseError fall through to QnlseError.
_EXIT_CODES = {
    UsageError: EXIT_USAGE,
    DomainError: EXIT_USAGE,
    QnlseError: EXIT_CHECK_FAILED,
}

_COMMANDS = {
    "verify": cmd_verify,
    "residual": cmd_residual,
    "propagate": cmd_propagate,
    "converge": cmd_converge,
    "limit": cmd_limit,
    "compare": cmd_compare,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return EXIT_USAGE if err.code not in (0, None) else EXIT_OK
    try:
        cfg = _build_config(args)
        return _COMMANDS[cfg.command](cfg)
    except tuple(_EXIT_CODES) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(_EXIT_CODES[kind] for kind in type(err).__mro__ if kind in _EXIT_CODES)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
