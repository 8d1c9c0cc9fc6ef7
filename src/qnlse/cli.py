"""Command-line front end.

Subcommands: ``verify`` (run every verification suite), ``residual``
(scan one equation against one closed form), ``propagate`` (march a
manufactured field and emit frames), ``converge`` (order-of-accuracy
study), ``limit`` (classical-limit order table), ``compare`` (the two
space factors side by side).  ``_SUBCOMMANDS`` lists, per subcommand,
the flags it reads, and its formats, each with what ``--out`` must name
where the output cannot go to stdout; any other flag is a usage error.
Only ``propagate`` and ``compare`` offer ``--format svg``.

``verify`` runs its suites on every usable CPU through ``_pool``, the
pool's only user, which reads the workers' outcomes once every task has
been taken.  ``propagate`` streams its march (``stream_frames``),
one checked block of frames at a time, and formats the frames in this
process, one at a time: it writes each CSV frame, and each JSON frame
sent to stdout, as soon as it is formatted, and keeps only the last
frame for svg.

Exit codes: 0 all checks passed, 1 a tolerance or verification check
failed, 2 usage or configuration error.  ``QNLSE_SEED`` seeds the
randomized suites (default 42).
"""

from __future__ import annotations

import argparse
import collections
import itertools
import os
import sys
from pathlib import Path
from typing import Optional

from .errors import DomainError, QnlseError
from .integrators import (
    GridSpec,
    OdeSpaceCase,
    OdeTimeCase,
    PdeCase,
    convergence_study,
    require_interval,
    sample_field,
    stream_frames,
)
from .reports import (
    csv_table_text,
    field_svg_text,
    float_reprs,
    frame_csv_text,
    frame_filename,
    frame_step,
    frames_json_parts,
    moduli,
    report_csv_text,
    report_json_text,
    svg_line_plot,
    write_text,
)
from .residuals import Analytic, FiniteDifference, scan_residual
from .solutions import (
    FreeParticleSpec,
    SolutionKind,
    closed_form,
    form_factors,
    manufactured_field,
    manufactured_form,
    marched_form,
    separated_form,
    separated_space_curve,
)
from .verify import FIRST_ORDER_FLOOR, LIMIT_DELTAS, classical_limit_table, run_verification

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2


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
_REPORT = {"json": None, "csv": None}

# command -> (help, the flags it reads before --format and --out, which
# every command takes, and its --format choices, each mapped to what --out
# must name, or None where the output may go to stdout)
_SUBCOMMANDS = {
    "verify": ("run every verification suite", (), _REPORT),
    "residual": ("scan one equation's residual over the grid",
                 _MARCH + ("--method", "--tol", "--solution", "--form"), _REPORT),
    "propagate": ("march a manufactured field and emit frames", _MARCH,
                  {"json": None, "csv": "DIRECTORY", "svg": "FILE"}),
    "converge": ("order-of-accuracy study",
                 _PARTICLE + ("--xmin", "--xmax", "--study", "--levels"), _REPORT),
    "limit": ("classical-limit distances and fitted orders",
              ("--p", "--mass", "--hbar"), _REPORT),
    "compare": ("compare the two separated space factors",
                ("--q", "--p", "--hbar", "--xmin", "--xmax", "--nx"), {**_REPORT, "svg": "FILE"}),
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


def _check_usage(args: argparse.Namespace) -> None:
    """The checks that reject a configuration before any command runs."""
    if "equation" in args:
        # q by the rule of the factor the command uses: the space factor or the marched form
        space = vars(args).get("form") == "space" or vars(args).get("study") == "ode-space"
        kind = SolutionKind(args.equation)
        try:
            separated_form(kind, "x", args.q) if space else marched_form(kind, args.q)
        except DomainError as err:
            raise UsageError(f"--equation {args.equation}: {err}") from err
    if "tol" in args and not 0 < args.tol < float("inf"):  # nan fails both tests
        raise UsageError("--tol must be positive and finite")
    if args.command in ("converge", "limit") and args.p == 0:
        raise UsageError(f"{args.command} needs a nonzero --p: at p = 0 every closed form "
                         "is 1, so no order can be fitted")
    if "levels" in args and args.levels < 2:
        raise UsageError("--levels must be at least 2")
    target = _SUBCOMMANDS[args.command][2][args.fmt]
    if target is not None and args.out is None:
        raise UsageError(f"{args.command} --format {args.fmt} needs --out {target}")
    if "xmin" in args:
        require_interval(args.xmin, args.xmax)
    if "form" in args:
        if args.form == "phi" and args.equation != "new":
            raise UsageError("--form phi applies to --equation new only")
        if (args.solution or args.equation) == "plane" and args.form in ("time", "space"):
            raise UsageError("--solution plane has no separated factors; pick new or nrt")
    # last, q by the rule of each factor of the closed form the command
    # samples: the scanned --solution, or the field a march reproduces
    if args.command == "residual":
        solution, form = args.solution or args.equation, args.form
    elif args.command == "propagate" or vars(args).get("study") == "pde":
        solution, form = manufactured_form(SolutionKind(args.equation))
    else:
        return
    flag = "--equation" if solution == args.equation else "--solution"
    for axis in form_factors(solution, form):
        try:
            separated_form(SolutionKind(solution), axis, args.q)
        except DomainError as err:
            raise UsageError(f"{flag} {solution}: {err}") from err


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


def cmd_residual(args: argparse.Namespace) -> int:
    spec, grid = _particle(args), _grid(args)
    solution = args.solution or args.equation
    sampler = closed_form(solution, args.form, spec)
    method = Analytic() if args.method == "analytic" else FiniteDifference()
    rep = scan_residual(
        f"{args.equation}-{args.form}", sampler, grid, method,
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
    the files whose ``frame_step`` is above ``last``.  The directory is
    read entry by entry, keeping only the stale names."""
    with os.scandir(directory) as entries:
        names = [entry.name for entry in entries if (frame_step(entry.name) or 0) > last]
    for name in names:
        (directory / name).unlink()


def cmd_propagate(args: argparse.Namespace) -> int:
    spec, grid = _particle(args), _grid(args)
    equation = SolutionKind(args.equation)
    exact = manufactured_field(equation, spec)
    initial = sample_field(exact, grid, 0.0)
    frames = stream_frames(equation, initial, spec.q, spec.m, spec.hbar, boundary=exact)
    # nothing is written before the first block of the march has passed its check
    frames = itertools.chain([next(frames)], frames)
    xs = grid.x_values()
    if args.fmt == "svg":
        last = collections.deque(frames, maxlen=1)[0]
        write_text(args.out, field_svg_text(xs, last.t, last.values))
        return EXIT_OK
    if args.fmt == "csv":
        args.out.mkdir(parents=True, exist_ok=True)
        x_col = float_reprs(xs)
        for k, frame in enumerate(frames):
            write_text(args.out / frame_filename(k), frame_csv_text(x_col, frame.t, frame.values))
        _remove_stale_frames(args.out, grid.n_steps)
        return EXIT_OK
    parts = frames_json_parts(equation.value, spec.q, xs,
                              ((frame.t, frame.values) for frame in frames))
    if args.out is None:
        sys.stdout.writelines(parts)  # frame by frame: one frame's text at a time
    else:
        # one write_text of the whole text: bench/tracer.py counts the files
        # and bytes written through it.  Joining 64 frames at a time lets
        # each frame's piece go before the text is whole.
        batches = iter(lambda: "".join(itertools.islice(parts, 64)), "")
        write_text(args.out, "".join(batches))
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
    passed = min_order >= FIRST_ORDER_FLOOR
    report["min_order"] = min_order
    report["passed"] = int(passed)
    _emit_report(report, args)
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_compare(args: argparse.Namespace) -> int:
    # the space factors do not depend on the mass
    spec = FreeParticleSpec(q=args.q, p=args.p, hbar=args.hbar)
    # compare samples x only: the grid's time axis is one frame
    xs = GridSpec(args.xmin, args.xmax, args.nx, dt=1.0, n_steps=0).x_values()
    g_new = separated_space_curve(SolutionKind.NEW, spec)(xs)
    g_nrt = separated_space_curve(SolutionKind.NRT, spec)(xs)
    columns = {"x": xs, "abs_diff": moduli(g_new - g_nrt), "mod_new": moduli(g_new),
               "mod_nrt": moduli(g_nrt)}
    if args.fmt == "svg":
        series = [("|g_new|", columns["mod_new"]), ("|g_nrt|", columns["mod_nrt"]),
                  ("|g_new-g_nrt|", columns["abs_diff"])]
        write_text(args.out, svg_line_plot(xs, series,
                                           title=f"space factors, q={spec.q:g}"))
        return EXIT_OK
    if args.fmt == "csv":
        text = csv_table_text({name: float_reprs(col) for name, col in columns.items()})
    else:
        text = report_json_text({"q": spec.q, "max_abs_diff": float(columns["abs_diff"].max()),
                                 **{name: col.tolist() for name, col in columns.items()}})
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
