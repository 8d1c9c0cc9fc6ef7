"""Command-line front end.

Subcommands: ``verify`` (run every verification suite), ``residual``
(scan one equation against one closed form), ``propagate`` (march a
manufactured field and emit frames), ``converge`` (order-of-accuracy
study), ``limit`` (classical-limit order table), ``compare`` (the two
space factors side by side).  Each subcommand takes only the flags it
reads (``_SUBCOMMANDS``); any other flag is a usage error.  Only
``propagate`` and ``compare`` offer ``--format svg``.

Exit codes: 0 all checks passed, 1 a tolerance or verification check
failed, 2 usage or configuration error.  ``QNLSE_SEED`` seeds the
randomized suites (default 42).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional

from ._pool import MAX_TASKS, run_tasks
from .errors import DomainError, QnlseError
from .integrators import (
    GridSpec,
    OdeSpaceCase,
    OdeTimeCase,
    PdeCase,
    convergence_study,
    manufactured_field,
    propagate,
    require_interval,
    sample_field,
)
from .reports import (
    field_svg_text,
    float_reprs,
    frame_csv_text,
    frame_filename,
    frames_json_items,
    join_frames_json,
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
from .verify import LIMIT_DELTAS, classical_limit_table, run_verification

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# propagate formats its frames in chunks of about this many field values,
# pulled by every usable CPU; a chunk's CSV text (about 80 bytes a value)
# is what one process holds in flight
FRAME_CHUNK_VALUES = 4096


class UsageError(Exception):
    """Configuration rejected before any computation ran."""


# Every flag but --format, defined once: name -> add_argument keywords.
_FLAGS = {
    "--q": dict(type=float, default=1.5, help="deformation parameter"),
    "--p": dict(type=float, default=1.0, help="momentum"),
    "--mass": dict(type=float, default=0.5, help="particle mass"),
    "--hbar": dict(type=float, default=1.0, help="action scale"),
    "--equation": dict(choices=("new", "nrt"), default="new",
                       help="which deformed equation"),
    "--xmin": dict(type=float, default=-5.0),
    "--xmax": dict(type=float, default=5.0),
    "--nx": dict(type=int, default=101, help="spatial points"),
    "--dt": dict(type=float, default=0.1, help="time step"),
    "--steps": dict(type=int, default=10, help="time steps"),
    "--method": dict(choices=("analytic", "fd"), default="analytic",
                     help="derivative evaluation for residuals"),
    "--tol": dict(type=float, default=1e-6,
                  help="pass/fail tolerance for residual scans"),
    "--solution": dict(choices=("plane", "new", "nrt"), default=None,
                       help="closed form to test (default: the equation's own)"),
    "--form": dict(choices=("field", "phi", "time", "space"), default="field",
                   help="which form of the equation"),
    "--study": dict(choices=("pde", "ode-time", "ode-space"), default="pde"),
    "--levels": dict(type=int, default=3),
    "--out": dict(type=Path, default=None,
                  help="output file (directory for propagate csv frames)"),
}

_PARTICLE = ("--q", "--p", "--mass", "--hbar", "--equation")
_MARCH = _PARTICLE + ("--xmin", "--xmax", "--nx", "--dt", "--steps")
_REPORT = ("json", "csv")

# command -> (help, the flags it reads before --format and --out, which
# every command takes, and its --format choices)
_SUBCOMMANDS = {
    "verify": ("run every verification suite", (), _REPORT),
    "residual": ("scan one equation's residual over the grid",
                 _MARCH + ("--method", "--tol", "--solution", "--form"), _REPORT),
    "propagate": ("march a manufactured field and emit frames", _MARCH, _REPORT + ("svg",)),
    "converge": ("order-of-accuracy study",
                 _PARTICLE + ("--xmin", "--xmax", "--study", "--levels"), _REPORT),
    "limit": ("classical-limit distances and fitted orders",
              ("--p", "--mass", "--hbar"), _REPORT),
    "compare": ("compare the two separated space factors",
                ("--q", "--p", "--hbar", "--xmin", "--xmax", "--nx"), _REPORT + ("svg",)),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qnlse",
        description="Deformed nonlinear Schrodinger equations: closed forms, "
                    "residual verification, integrators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags, formats) in _SUBCOMMANDS.items():
        # no abbreviations: "--form" must not reach --format where there is no --form
        cmd = sub.add_parser(command, help=help_text, allow_abbrev=False)
        for flag in flags:
            cmd.add_argument(flag, **_FLAGS[flag])
        cmd.add_argument("--format", dest="fmt", choices=formats, default="json",
                         help="output format")
        cmd.add_argument("--out", **_FLAGS["--out"])
    return parser


# (command, format) pairs that cannot go to stdout, with what --out must name.
_NEEDS_OUT = {
    ("propagate", "csv"): "DIRECTORY",
    ("propagate", "svg"): "FILE",
    ("compare", "svg"): "FILE",
}


def _check_usage(args: argparse.Namespace) -> None:
    """The checks that reject a configuration before any command runs."""
    if "equation" in args:
        try:
            marched_form(SolutionKind(args.equation), args.q)
        except DomainError as err:
            raise UsageError(f"--equation {args.equation}: {err}") from err
    if "tol" in args and args.tol <= 0:
        raise UsageError("--tol must be positive")
    target = _NEEDS_OUT.get((args.command, args.fmt))
    if target is not None and args.out is None:
        raise UsageError(f"{args.command} --format {args.fmt} needs --out {target}")
    if "xmin" in args:
        require_interval(args.xmin, args.xmax)


def _particle(args: argparse.Namespace) -> FreeParticleSpec:
    return FreeParticleSpec(q=args.q, p=args.p, m=args.mass, hbar=args.hbar)


def _grid(args: argparse.Namespace) -> GridSpec:
    return GridSpec(args.xmin, args.xmax, args.nx, args.dt, args.steps)


def _emit_text(text: str, args: argparse.Namespace) -> None:
    if args.out is not None:
        write_text(args.out, text)
    else:
        sys.stdout.write(text)


def _emit_report(report: dict, args: argparse.Namespace) -> None:
    _emit_text(report_json_text(report) if args.fmt == "json" else report_csv_text(report), args)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def cmd_verify(args: argparse.Namespace) -> int:
    results = run_verification()
    report: dict = {}
    for r in results:
        report.update((f"{r.name}.{key}", value) for key, value in r.as_dict().items()
                      if key != "name" and (key != "detail" or r.detail))
    all_passed = all(r.passed for r in results)
    report["all_passed"] = int(all_passed)
    _emit_report(report, args)
    return EXIT_OK if all_passed else EXIT_CHECK_FAILED


def _residual_tag(args: argparse.Namespace) -> str:
    eq = args.equation
    if args.form == "phi":
        if eq != "new":
            raise UsageError("--form phi applies to --equation new only")
        return "new-phi"
    if args.form == "field":
        return f"{eq}-field"
    return f"{eq}-{args.form}"


def _residual_sampler(solution: str, form: str, spec: FreeParticleSpec):
    if form in ("time", "space"):
        if solution == "plane":
            raise UsageError(
                "--solution plane has no separated factors; pick new or nrt"
            )
        curve = separated_time_curve if form == "time" else separated_space_curve
        return curve(SolutionKind(solution), spec)
    if solution == "plane":
        psi = q_plane_wave_field(spec)
    else:
        psi = product_solution_field(SolutionKind(solution), spec)
    return psi.pow(spec.q) if form == "phi" else psi


def cmd_residual(args: argparse.Namespace) -> int:
    spec, grid = _particle(args), _grid(args)
    solution = args.solution or args.equation
    tag = _residual_tag(args)
    sampler = _residual_sampler(solution, args.form, spec)
    method = Analytic() if args.method == "analytic" else FiniteDifference()
    rep = scan_residual(
        tag, sampler, grid, method,
        q=spec.q, m=spec.m, hbar=spec.hbar, lam=spec.energy,
    )
    passed = rep.max_abs <= args.tol
    report = rep.as_dict()
    report.update({
        "q": spec.q,
        "solution": solution,
        "tol": args.tol,
        "passed": int(passed),
    })
    _emit_report(report, args)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def _remove_stale_frames(directory: Path, last: int) -> None:
    """Delete the frames an earlier, longer run left in ``directory``:
    the files named by ``frame_filename`` with a step above ``last``."""
    for path in directory.glob("frame_*.csv"):
        step = path.name[len("frame_"):-len(".csv")]
        if step.isdecimal() and int(step) > last and path.name == frame_filename(int(step)):
            path.unlink()


def _frame_chunks(n_frames: int, n_points: int) -> list[slice]:
    """Consecutive runs of frames of about ``FRAME_CHUNK_VALUES`` values
    each, at most ``MAX_TASKS`` of them."""
    size = max(1, FRAME_CHUNK_VALUES // n_points, -(-n_frames // MAX_TASKS))
    return [slice(k, min(k + size, n_frames)) for k in range(0, n_frames, size)]


def cmd_propagate(args: argparse.Namespace) -> int:
    spec, grid = _particle(args), _grid(args)
    equation = SolutionKind(args.equation)
    exact = manufactured_field(equation, spec)
    initial = sample_field(exact, grid, 0.0)
    traj = propagate(equation, initial, spec.q, spec.m, spec.hbar, boundary=exact)
    xs = grid.x_values()
    if args.fmt == "svg":
        last = traj[-1]
        write_text(args.out, field_svg_text(xs, last.t, last.values))
        return EXIT_OK
    # every usable CPU formats chunks of frames; this process writes them
    times, chunks = traj.times(), _frame_chunks(len(traj), len(xs))

    def describe(c: int) -> str:
        return f"the chunk of frames {chunks[c].start}-{chunks[c].stop - 1}"

    if args.fmt == "csv":
        args.out.mkdir(parents=True, exist_ok=True)
        x_col = float_reprs(xs)

        def csv_texts(c: int) -> list[str]:
            return [frame_csv_text(x_col, t, row)
                    for t, row in zip(times[chunks[c]], traj.values[chunks[c]])]

        def write_frames(c: int, texts: list[str]) -> None:
            for k, text in enumerate(texts, chunks[c].start):
                write_text(args.out / frame_filename(k), text)

        run_tasks("propagate", len(chunks), csv_texts, write_frames, describe)
        _remove_stale_frames(args.out, len(traj) - 1)
    else:
        items = [""] * len(chunks)
        run_tasks("propagate", len(chunks),
                  lambda c: frames_json_items(times[chunks[c]], traj.values[chunks[c]]),
                  items.__setitem__, describe)
        text = join_frames_json(equation.value, spec.q, xs, items)
        items.clear()  # let the chunks go before the write encodes the text
        _emit_text(text, args)
    return EXIT_OK


def cmd_converge(args: argparse.Namespace) -> int:
    spec = _particle(args)
    equation = SolutionKind(args.equation)
    if args.study == "ode-time":
        case = OdeTimeCase(equation, spec)
    elif args.study == "ode-space":
        case = OdeSpaceCase(equation, spec)
    else:
        case = PdeCase(equation, spec, x_min=args.xmin, x_max=args.xmax)
    rep = convergence_study(case, args.levels)
    report = rep.as_dict()
    report["study"] = args.study
    report["equation"] = args.equation
    _emit_report(report, args)
    return EXIT_OK


def cmd_limit(args: argparse.Namespace) -> int:
    table = classical_limit_table(args.p, args.mass, args.hbar)
    report: dict = {}
    for family, (sups, order) in table.items():
        for d, s in zip(LIMIT_DELTAS, sups):
            report[f"sup_{family}_delta_{d:g}"] = s
        report[f"order_{family}"] = order
    min_order = min(order for _, order in table.values())
    passed = min_order >= 0.9
    report["min_order"] = min_order
    report["passed"] = int(passed)
    _emit_report(report, args)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_compare(args: argparse.Namespace) -> int:
    # the space factors do not depend on the mass
    spec = FreeParticleSpec(q=args.q, p=args.p, hbar=args.hbar)
    # compare samples x only: the grid's time axis is one frame
    xs = GridSpec(args.xmin, args.xmax, args.nx, dt=1.0, n_steps=0).x_values()
    g_new = separated_space_curve(SolutionKind.NEW, spec)
    g_nrt = separated_space_curve(SolutionKind.NRT, spec)
    rows = [(x, abs(vn - vr), abs(vn), abs(vr))
            for x, vn, vr in zip(xs.tolist(), g_new(xs).tolist(), g_nrt(xs).tolist())]
    max_diff = max(r[1] for r in rows)
    if args.fmt == "svg":
        series = [
            ("|g_new|", [r[2] for r in rows]),
            ("|g_nrt|", [r[3] for r in rows]),
            ("|g_new-g_nrt|", [r[1] for r in rows]),
        ]
        write_text(args.out, svg_line_plot(xs, series,
                                           title=f"space factors, q={spec.q:g}"))
        return EXIT_OK
    if args.fmt == "csv":
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
    _emit_text(text, args)
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
        _check_usage(args)
        return _COMMANDS[args.command](args)
    except tuple(_EXIT_CODES) as err:
        print(f"error: {err}", file=sys.stderr)
        return next(_EXIT_CODES[kind] for kind in type(err).__mro__ if kind in _EXIT_CODES)


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
