"""Command-line contract: exit codes, formats, round-trips, determinism."""

import argparse
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tracemalloc
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from qnlse import _pool, cli, residuals
from qnlse.cli import main
from qnlse.errors import (
    ConvergenceError,
    DegenerateStudyError,
    DomainError,
    PropagationError,
    QnlseError,
)
from qnlse.reports import (
    frame_csv_text,
    frame_filename,
    frames_json_parts,
    parse_report_csv,
    write_text,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_malformed_flag_exits_2(self, capsys):
        code, _, _ = run(capsys, "residual", "--bogus")
        assert code == 2

    def test_missing_command_exits_2(self, capsys):
        code, _, _ = run(capsys, )
        assert code == 2

    def test_nrt_at_q2_exits_2_naming_precondition(self, capsys):
        code, _, err = run(capsys, "residual", "--equation", "nrt", "--q", "2")
        assert code == 2
        assert "2" in err and "nrt" in err

    def test_space_form_takes_the_space_rule_of_q(self, capsys):
        # the marched (time) rule refused q = 0, which the q-power space factor admits
        code, out, err = run(capsys, "residual", "--form", "space", "--equation", "new",
                             "--q", "0")
        assert code == 0 and err == ""
        assert json.loads(out)["max_abs"] <= 1e-15
        code, out, err = run(capsys, "residual", "--form", "time", "--equation", "new",
                             "--q", "0")
        assert code == 2 and out == ""
        assert err == "error: --equation new: the q-power time equation requires q != 0, got q=0.0\n"

    def test_ode_space_study_takes_the_space_rule_of_q(self, capsys):
        # the space rule admits q = 0; the study then runs, and refuses its
        # rounding-level errors itself (exit 1, not a usage refusal)
        code, out, err = run(capsys, "converge", "--study", "ode-space", "--equation", "new",
                             "--q", "0", "--levels", "2")
        assert (code, out) == (1, "")
        assert err.startswith("error: the errors ") and "fit no order" in err
        # the time rule let q = 2.5 through, and the library refused it unprefixed
        code, out, err = run(capsys, "converge", "--study", "ode-space", "--equation", "nrt",
                             "--q", "2.5")
        assert code == 2 and out == ""
        assert err == ("error: --equation nrt: the NRT space equation requires q != 2 and "
                       "(2-q)(3-q) > 0, got q=2.5\n")

    # the NRT product form samples the space factor, so its rule of q
    @pytest.mark.parametrize("argv", [
        ("propagate",), ("residual", "--form", "field"), ("converge", "--study", "pde"),
    ], ids=["propagate", "residual-field", "converge-pde"])
    def test_nrt_product_form_takes_the_space_rule_of_q(self, capsys, argv):
        code, out, err = run(capsys, *argv, "--equation", "nrt", "--q", "2.5")
        assert (code, out) == (2, "")
        assert err == ("error: --equation nrt: the NRT space equation requires q != 2 and "
                       "(2-q)(3-q) > 0, got q=2.5\n")

    def test_solution_rule_names_the_solution(self, capsys):
        # the closed form of --solution, not the equation, refuses the q
        code, out, err = run(capsys, "residual", "--equation", "new", "--solution", "nrt",
                             "--q", "2.5")
        assert (code, out) == (2, "")
        assert err == ("error: --solution nrt: the NRT space equation requires q != 2 and "
                       "(2-q)(3-q) > 0, got q=2.5\n")

    def test_separated_ode_overflow_exits_1(self, capsys):
        # at q = 0.01 the coarse RK4 step of the q-power time factor
        # overflows; the run must end with an error line, not a traceback
        code, out, err = run(capsys, "converge", "--study", "ode-time",
                             "--equation", "new", "--q", "0.01", "--levels", "2")
        assert code == 1
        assert out == ""
        assert err.startswith("error: RK4 step") and "overflowed" in err

    def test_q_near_pole_exits_2(self, capsys):
        code, out, err = run(capsys, "converge", "--study", "ode-time", "--q", "1e-13")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "q != 0" in err

    def test_bad_grid_exits_2(self, capsys):
        code, _, _ = run(capsys, "residual", "--nx", "2")
        assert code == 2
        code, _, _ = run(capsys, "residual", "--xmin", "1", "--xmax", "0")
        assert code == 2

    def test_own_solution_passes(self, capsys):
        code, out, _ = run(capsys, "residual", "--equation", "new",
                           "--solution", "plane", "--tol", "1e-6")
        assert code == 0
        assert json.loads(out)["passed"] == 1

    def test_cross_equation_fails_with_exit_1(self, capsys):
        code, out, _ = run(capsys, "residual", "--equation", "nrt",
                           "--solution", "new", "--tol", "1e-6")
        assert code == 1
        report = json.loads(out)
        assert report["passed"] == 0
        assert report["max_abs"] > 1e-3

    def test_fd_method_flag(self, capsys):
        code, out, _ = run(capsys, "residual", "--method", "fd",
                           "--solution", "plane", "--tol", "1e-4")
        assert code == 0
        assert json.loads(out)["max_abs"] <= 1e-5

    def test_non_finite_residual_is_one_error_line(self, capsys, monkeypatch):
        # no flag makes the residual non-finite: a nan one stands for any
        monkeypatch.setattr(residuals, "nrt_residual", lambda *args: math.nan)
        code, out, err = run(capsys, "residual", "--equation", "nrt", "--q", "1.1",
                             "--nx", "11", "--steps", "3")
        assert (code, out) == (2, "")
        assert err == "error: residual not finite at (x=-5.0, t=0.0): nan " \
                      "[while scanning nrt-field]\n"

    @pytest.mark.parametrize("error, expected", [
        (cli.UsageError, 2),
        (DomainError, 2),
        (PropagationError, 1),
        (ConvergenceError, 1),
        (DegenerateStudyError, 1),
        (QnlseError, 1),
    ])
    def test_command_errors_map_to_exit_codes(self, capsys, monkeypatch, error, expected):
        def fail(_cfg):
            raise error("raised by the command")

        monkeypatch.setitem(cli._COMMANDS, "residual", fail)
        code, out, err = run(capsys, "residual")
        assert code == expected
        assert out == ""
        assert "raised by the command" in err


# The functions through which the commands start real work.
WORK_ENTRY_POINTS = (
    "run_verification", "stream_frames", "scan_residual", "convergence_study",
    "manufactured_field", "sample_field", "classical_limit_table",
    "closed_form", "separated_space_curve",
)


# The flags each command reads; every other flag is a usage error.
_MARCH_FLAGS = ("--q", "--p", "--mass", "--hbar", "--equation",
                "--xmin", "--xmax", "--nx", "--dt", "--steps")
COMMAND_FLAGS = {
    "verify": ("--format", "--out"),
    "residual": _MARCH_FLAGS + ("--method", "--tol", "--solution", "--form",
                                "--format", "--out"),
    "propagate": _MARCH_FLAGS + ("--format", "--out"),
    "converge": ("--q", "--p", "--mass", "--hbar", "--equation", "--xmin", "--xmax",
                 "--study", "--levels", "--format", "--out"),
    "limit": ("--p", "--mass", "--hbar", "--format", "--out"),
    "compare": ("--q", "--p", "--hbar", "--xmin", "--xmax", "--nx", "--format", "--out"),
}

# flag -> (argument, namespace attribute, parsed value)
FLAG_VALUES = {
    "--q": ("1.25", "q", 1.25),
    "--p": ("0.75", "p", 0.75),
    "--mass": ("2", "mass", 2.0),
    "--hbar": ("0.5", "hbar", 0.5),
    "--equation": ("nrt", "equation", "nrt"),
    "--xmin": ("-2", "xmin", -2.0),
    "--xmax": ("3", "xmax", 3.0),
    "--nx": ("41", "nx", 41),
    "--dt": ("0.01", "dt", 0.01),
    "--steps": ("7", "steps", 7),
    "--method": ("fd", "method", "fd"),
    "--tol": ("0.001", "tol", 0.001),
    "--solution": ("plane", "solution", "plane"),
    "--form": ("time", "form", "time"),
    "--study": ("ode-space", "study", "ode-space"),
    "--levels": ("4", "levels", 4),
    "--format": ("csv", "fmt", "csv"),
    "--out": ("report.txt", "out", Path("report.txt")),
}


class TestFormatOutPairsFailFast:
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def forbidden(*_args, **_kwargs):
            raise AssertionError("work started before the usage error")

        for name in WORK_ENTRY_POINTS:
            monkeypatch.setattr(cli, name, forbidden)

    @pytest.mark.parametrize("command", ["verify", "residual", "converge", "limit"])
    def test_svg_rejected_for_reports(self, capsys, tmp_path, command):
        for extra in ((), ("--out", str(tmp_path / "report.svg"))):
            code, out, err = run(capsys, command, "--format", "svg", *extra)
            assert code == 2
            assert out == ""
            assert "svg" in err
        assert not (tmp_path / "report.svg").exists()

    @pytest.mark.parametrize("flag", sorted(FLAG_VALUES))
    @pytest.mark.parametrize("command", sorted(COMMAND_FLAGS))
    def test_each_command_takes_only_its_flags(self, capsys, command, flag):
        text, dest, value = FLAG_VALUES[flag]
        if flag in COMMAND_FLAGS[command]:
            args = cli.build_parser().parse_args([command, flag, text])
            assert getattr(args, dest) == value
        else:
            code, out, err = run(capsys, command, flag, text)
            assert code == 2
            assert out == ""
            assert f"unrecognized arguments: {flag}" in err

    @pytest.mark.parametrize("study", ["pde", "ode-time", "ode-space"])
    @pytest.mark.parametrize("xmin,xmax", [("1", "0"), ("0", "0"), ("nan", "1"), ("0", "inf")])
    def test_converge_rejects_bad_domain(self, capsys, study, xmin, xmax):
        code, out, err = run(capsys, "converge", "--study", study,
                             "--xmin", xmin, "--xmax", xmax)
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and ("finite" in err or "exceed" in err)

    @pytest.mark.parametrize("levels", ["1", "0", "-3"])
    def test_converge_needs_two_levels(self, capsys, levels):
        code, out, err = run(capsys, "converge", "--levels", levels)
        assert (code, out) == (2, "")
        assert err == "error: --levels must be at least 2\n"

    @pytest.mark.parametrize("tol", ["nan", "inf", "-inf", "0", "-1e-6"])
    def test_residual_needs_a_positive_finite_tol(self, capsys, tol):
        code, out, err = run(capsys, "residual", f"--tol={tol}")
        assert (code, out) == (2, "")
        assert err == "error: --tol must be positive and finite\n"

    @pytest.mark.parametrize("command, fmt, target", [
        ("propagate", "csv", "DIRECTORY"),
        ("propagate", "svg", "FILE"),
        ("compare", "svg", "FILE"),
    ])
    def test_file_formats_need_out(self, capsys, command, fmt, target):
        code, out, err = run(capsys, command, "--format", fmt)
        assert code == 2
        assert out == ""
        assert f"needs --out {target}" in err


class TestOutOfRangeInputs:
    # dx = 2.5e-301 squares to 0 and 2.5e-161 to a subnormal whose
    # reciprocal overflows: either grid is refused before the dt warning
    @pytest.mark.parametrize("argv", [
        ("propagate", "--xmin", "0", "--xmax", "1e-300", "--nx", "5"),
        ("propagate", "--xmin", "0", "--xmax", "1e-160", "--nx", "5"),
        ("converge", "--study", "pde", "--xmin", "0", "--xmax", "1e-300"),
    ])
    def test_march_grid_without_a_finite_inverse_dx_squared_exits_2(self, capsys, argv):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert re.fullmatch(r"error: dx=\S+ is too small to march: 1/dx\^2 is not finite\n",
                            err)

    @pytest.mark.parametrize("argv", [
        ("residual", "--xmin", "0", "--xmax", "1e-300", "--nx", "5"),
        ("compare", "--xmin", "0", "--xmax", "1e-300", "--nx", "5"),
    ])
    def test_scans_still_take_a_grid_too_fine_to_march(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert (code, err) == (0, "")

    # at p = 0 every closed form is 1: the studies ran to the end, then
    # exited 1 because no error was positive to fit a slope to
    @pytest.mark.parametrize("argv", [
        ("limit", "--p", "0"),
        ("converge", "--p", "0"),
        ("converge", "--study", "ode-time", "--p", "-0"),
    ])
    def test_order_studies_refuse_zero_momentum(self, capsys, monkeypatch, argv):
        ran = []
        for name in ("convergence_study", "classical_limit_table"):
            monkeypatch.setattr(cli, name, lambda *args: ran.append(args))
        code, out, err = run(capsys, *argv)
        assert (code, out, ran) == (2, "", [])
        assert err == (f"error: {argv[0]} needs a nonzero --p: at p = 0 every closed form "
                       "is 1, so no order can be fitted\n")

    # dt * n_steps = 2e308 overflowed the times with a numpy warning
    # before the error line
    @pytest.mark.parametrize("command, nx", [("residual", "3"), ("propagate", "5")])
    def test_time_span_past_the_float_range_is_one_error_line(self, capsys, command, nx):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, command, "--dt", "1e308", "--steps", "2", "--nx", nx)
        assert (code, out) == (2, "")
        assert err == "error: the time span dt * n_steps must be finite, got dt=1e+308\n"

    # numpy refused the times of 10**300 steps: a ValueError traceback, exit 1
    def test_residual_mesh_over_the_memory_share_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "residual", "--nx", "3", "--dt", "1e-300",
                             "--steps", str(10**300))
        assert (code, out) == (2, "")
        assert err.startswith("error: 1.00e+300 steps on 3 points need 4.80e+301 bytes of "
                              "scan mesh, ")
        assert err.count("\n") == 1

    # the counts were printed in full, two 300-digit integers in a line of
    # 703 characters, and a scan spoke of frames
    @pytest.mark.parametrize("command, nx", [("residual", "3"), ("propagate", "5")])
    def test_memory_refusal_of_a_huge_step_count_is_one_short_line(self, capsys, command, nx):
        code, out, err = run(capsys, command, "--nx", nx, "--dt", "1e-300",
                             "--steps", str(10**300))
        assert (code, out) == (2, "")
        [line] = err.splitlines()
        assert len(line) <= 200
        assert ("frames" in line) == (command == "propagate")

    def test_negative_seed_exits_2_before_any_suite_runs(self, capsys, monkeypatch):
        ran = []
        monkeypatch.setattr(_pool, "run_tasks", lambda *args: ran.append(args))
        monkeypatch.setenv("QNLSE_SEED", "-1")
        code, out, err = run(capsys, "verify")
        assert (code, out, ran) == (2, "", [])
        assert err == "error: the seed (QNLSE_SEED) must be a non-negative integer, got -1\n"

    @pytest.mark.parametrize("study, step", [("ode-time", "dt"), ("ode-space", "dx"),
                                             ("pde", "dx")])
    def test_converge_level_past_the_float_range_names_the_underflow(self, capsys, study, step):
        code, out, err = run(capsys, "converge", "--study", study, "--levels", "2000")
        step0 = "0.2" if study == "pde" else "0.05"
        assert (code, out) == (2, "")
        assert err == (f"error: refinement level 1999 takes {step}0={step0} down to {step}=0: "
                       "the step underflows\n")

    # usage refusals: they come before the command, and so before its grid is built
    @pytest.mark.parametrize("argv, message", [
        (("--equation", "nrt", "--form", "phi"), "--form phi applies to --equation new only"),
        (("--equation", "nrt", "--form", "phi", "--nx", "1"),
         "--form phi applies to --equation new only"),
        (("--solution", "plane", "--form", "time"),
         "--solution plane has no separated factors; pick new or nrt"),
    ], ids=["nrt-phi", "nrt-phi-nx-1", "plane-time"])
    def test_residual_form_refusals_run_before_the_command(self, capsys, monkeypatch,
                                                           argv, message):
        entered = []
        monkeypatch.setitem(cli._COMMANDS, "residual", entered.append)
        code, out, err = run(capsys, "residual", *argv)
        assert (code, out, err, entered) == (2, "", f"error: {message}\n", [])


def _subparsers(parser):
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_readme_flag_table_matches_parser():
    """README's per-command flag table lists each subparser's options and
    --format choices, in order."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## CLI", 1)[1].split("\n## ", 1)[0]
    documented = {}
    for row in re.findall(r"^\| *([a-z]+) *\|(.*)\|$", section, re.MULTILINE):
        command, cell = row
        if command == "command":
            continue
        documented[command] = [tuple(token.split(" ", 1))
                               for token in re.findall(r"`([^`]+)`", cell)]
    parsed = {}
    for command, sub in _subparsers(cli.build_parser()).items():
        entries = []
        for action in sub._actions:
            if isinstance(action, argparse._HelpAction):
                continue
            (flag,) = action.option_strings
            if flag == "--format":
                entries.append((flag, "{" + ",".join(action.choices) + "}"))
            else:
                entries.append((flag,))
        parsed[command] = entries
    assert documented == parsed


class TestSeparatedForms:
    def test_time_form(self, capsys):
        code, out, _ = run(capsys, "residual", "--form", "time",
                           "--equation", "new", "--solution", "new")
        assert code == 0
        assert json.loads(out)["equation"] == "new-time"

    def test_space_cross_pairing_fails(self, capsys):
        code, out, _ = run(capsys, "residual", "--form", "space",
                           "--equation", "new", "--solution", "nrt")
        assert code == 1

    def test_plane_has_no_factors(self, capsys):
        code, _, err = run(capsys, "residual", "--form", "time",
                           "--solution", "plane")
        assert code == 2
        assert "plane" in err

    def test_phi_is_new_only(self, capsys):
        code, _, _ = run(capsys, "residual", "--form", "phi", "--equation", "nrt")
        assert code == 2

    def test_phi_form_scans_the_normalized_equation(self, capsys):
        code, out, err = run(capsys, "residual", "--form", "phi", "--equation", "new",
                             "--solution", "plane")
        report = json.loads(out)
        assert (code, err, report["equation"], report["passed"]) == (0, "", "new-phi", 1)
        assert report["max_abs"] <= 1e-14


class TestRoundTrip:
    def test_json_and_csv_carry_identical_numbers(self, capsys, tmp_path):
        args = ("residual", "--solution", "plane", "--tol", "1e-6")
        code, out_json, _ = run(capsys, *args, "--format", "json")
        assert code == 0
        csv_path = tmp_path / "report.csv"
        code, _, _ = run(capsys, *args, "--format", "csv", "--out", str(csv_path))
        assert code == 0
        from_json = json.loads(out_json)
        from_csv = parse_report_csv(csv_path.read_text())
        assert set(from_json) == set(from_csv)
        for key, value in from_json.items():
            if isinstance(value, float):
                assert from_csv[key] == value, key
            else:
                assert str(from_csv[key]) == str(value), key

    def test_repeated_runs_are_byte_identical(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            code, _, _ = run(capsys, "compare", "--format", "csv",
                             "--out", str(path))
            assert code == 0
        assert a.read_bytes() == b.read_bytes()

    def test_propagated_frames_are_byte_identical(self, capsys, tmp_path):
        dirs = (tmp_path / "run1", tmp_path / "run2")
        for d in dirs:
            code, _, _ = run(capsys, "propagate", "--steps", "5", "--dt", "1e-5",
                             "--nx", "41", "--xmin", "-1", "--xmax", "1",
                             "--format", "csv", "--out", str(d))
            assert code == 0
        names = sorted(p.name for p in dirs[0].iterdir())
        assert names == [f"frame_{k:06d}.csv" for k in range(6)]
        for name in names:
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()


class TestPropagateCommand:
    def test_zero_steps_single_frame(self, capsys, tmp_path):
        out = tmp_path / "frames"
        code, _, _ = run(capsys, "propagate", "--steps", "0", "--format", "csv",
                         "--out", str(out))
        assert code == 0
        files = sorted(p.name for p in out.iterdir())
        assert files == ["frame_000000.csv"]
        header, first = (out / "frame_000000.csv").read_text().splitlines()[:2]
        assert header == "x,t,re,im"
        x, t, re, im = (float(v) for v in first.split(","))
        assert (x, t) == (-5.0, 0.0)

    def test_shorter_run_removes_stale_frames(self, capsys, tmp_path):
        out = tmp_path / "frames"
        out.mkdir()
        keep = ("frame_7.csv", "frame_0000009.csv", "frame_000009.txt", "notes.csv")
        for name in keep:
            (out / name).write_text("not a frame\n")
        for steps in ("5", "2"):
            code, _, _ = run(capsys, "propagate", "--steps", steps, "--dt", "1e-5",
                             "--nx", "21", "--xmin", "-1", "--xmax", "1",
                             "--format", "csv", "--out", str(out))
            assert code == 0
        frames = [f"frame_{k:06d}.csv" for k in range(3)]
        assert sorted(p.name for p in out.iterdir()) == sorted(frames + list(keep))
        last_t = float((out / frames[-1]).read_text().splitlines()[1].split(",")[1])
        assert last_t == pytest.approx(2e-5)

    def test_shorter_run_keeps_files_named_almost_as_frames(self, capsys, tmp_path):
        # each would be a stale step-1 frame if its name were read loosely
        out = tmp_path / "frames"
        out.mkdir()
        keep = ("frame_1.csv", "frame_0000001.csv", "frame_000001.CSV", "frame_+00001.csv")
        for name in keep:
            (out / name).write_text("not a frame\n")
        for steps in ("2", "0"):
            code, _, _ = run(capsys, "propagate", "--steps", steps, "--dt", "1e-5",
                             "--nx", "21", "--xmin", "-1", "--xmax", "1",
                             "--format", "csv", "--out", str(out))
            assert code == 0
        assert sorted(p.name for p in out.iterdir()) == sorted([frame_filename(0), *keep])
        assert all((out / name).read_text() == "not a frame\n" for name in keep)

    def test_march_over_the_memory_share_is_one_error_line(self, capsys):
        code, out, err = run(capsys, "propagate", "--steps", str(10**12), "--nx", "401")
        assert (code, out) == (2, "")
        assert err.startswith("error: 1000000000000 steps on 401 points need ")
        assert err.count("\n") == 1

    def test_json_frames(self, capsys):
        code, out, _ = run(capsys, "propagate", "--steps", "2", "--dt", "1e-5",
                           "--nx", "21", "--xmin", "-1", "--xmax", "1")
        assert code == 0
        payload = json.loads(out)
        assert len(payload["frames"]) == 3
        assert payload["frames"][2]["t"] == pytest.approx(2e-5)

    def test_readme_initial_svg_example_is_silent(self, capsys, tmp_path):
        # README: qnlse propagate --steps 0 --format svg --out initial.svg;
        # no step runs, so the step-size heuristic has nothing to warn about
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "propagate", "--steps", "0", "--format", "svg",
                                 "--out", str(tmp_path / "initial.svg"))
        assert (code, out, err) == (0, "", "")

    def test_failing_march_reports_its_status_without_numpy_warnings(self):
        # a stage overflows at step 2; the march stops on its status, and
        # numpy's floating-point warnings stay out of the user's way
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        proc = subprocess.run(
            [sys.executable, "-m", "qnlse", "propagate", "--q", "0.5", "--dt", "0.05",
             "--steps", "40", "--nx", "201", "--xmin", "-1", "--xmax", "1"],
            capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert "RuntimeWarning: dt=0.05 exceeds the diffusive-scaling heuristic" in proc.stderr
        assert proc.stderr.endswith(
            "error: field value became non-finite at step 2, index 1\n")
        assert "_kernels.py" not in proc.stderr
        assert proc.stderr.count("Warning") == 1

    def test_svg_output(self, capsys, tmp_path):
        path = tmp_path / "frame.svg"
        code, _, _ = run(capsys, "propagate", "--steps", "0", "--format", "svg",
                         "--out", str(path))
        assert code == 0
        root = ET.parse(path).getroot()
        assert root.tag.endswith("svg")
        polylines = [e for e in root.iter() if e.tag.endswith("polyline")]
        assert len(polylines) == 3


NX = 21
MARCH = ("propagate", "--q", "1.3", "--dt", "1e-5", "--nx", str(NX),
         "--xmin", "-1", "--xmax", "1")


def emitted(capsys, tmp_path, steps):
    """The CSV frames, the JSON file and the JSON on stdout of one march."""
    out = tmp_path / "run"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    for argv in (("--format", "csv", "--out", str(out / "csv")),
                 ("--format", "json", "--out", str(out / "frames.json")), ()):
        code, stdout, _ = run(capsys, *MARCH, "--steps", str(steps), *argv)
        assert code == 0
    csv_frames = {p.name: p.read_bytes() for p in sorted((out / "csv").iterdir())}
    return csv_frames, (out / "frames.json").read_bytes(), stdout


def json_from_csv_frames(csv_frames) -> str:
    """The JSON text ``propagate`` writes for the march these CSV frames
    hold, rebuilt with ``json.dumps`` from the frames' own float text."""
    frames, xs = [], None
    for text in csv_frames.values():
        rows = [line.split(",") for line in text.decode().splitlines()[1:]]
        xs = [float(row[0]) for row in rows]
        frames.append({"t": float(rows[0][1]), "re": [float(row[2]) for row in rows],
                       "im": [float(row[3]) for row in rows]})
    payload = {"equation": "new", "q": 1.3, "x": xs, "frames": frames}
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


class TestFrameEmission:
    # 130 steps: a JSON file joined from three batches of parts
    @pytest.mark.parametrize("steps", [0, 1, 2, 9, 10, 130])
    def test_csv_json_file_and_stdout_agree(self, capsys, tmp_path, steps):
        csv_frames, json_file, stdout = emitted(capsys, tmp_path, steps)
        assert list(csv_frames) == [frame_filename(k) for k in range(steps + 1)]
        assert json_file == stdout.encode()
        assert stdout == json_from_csv_frames(csv_frames)
        assert emitted(capsys, tmp_path, steps) == (csv_frames, json_file, stdout)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_each_frame_is_written_before_the_next_is_formatted(self, capsys, tmp_path,
                                                                monkeypatch, fmt):
        events = []

        def csv_text(x_col, t, row):
            events.append("format")
            return frame_csv_text(x_col, t, row)

        def write_frame(path, text):
            events.append("write")
            write_text(path, text)

        def json_parts(*args):
            for part in frames_json_parts(*args):
                events.append("format")
                yield part

        class Stdout:
            def writelines(self, parts):
                for part in parts:
                    events.append("write")

        monkeypatch.setattr(cli, "frame_csv_text", csv_text)
        monkeypatch.setattr(cli, "write_text", write_frame)
        monkeypatch.setattr(cli, "frames_json_parts", json_parts)
        monkeypatch.setattr(sys, "stdout", Stdout())
        argv = ("--format", "csv", "--out", str(tmp_path / "csv")) if fmt == "csv" else ()
        assert main([*MARCH, "--steps", "10", *argv]) == 0
        # csv: one file a frame; json: the head, one part a frame, the tail
        assert events == ["format", "write"] * (11 if fmt == "csv" else 13)

    def test_write_failure_leaves_the_earlier_frames(self, tmp_path):
        out = tmp_path / "csv"
        (out / frame_filename(3)).mkdir(parents=True)
        with pytest.raises(IsADirectoryError):
            main([*MARCH, "--steps", "9", "--format", "csv", "--out", str(out)])
        assert all((out / frame_filename(k)).is_file() for k in range(3))
        assert sorted(p.name for p in out.iterdir()) == [frame_filename(k) for k in range(4)]

    def test_write_failure_exits_1_with_the_error_line(self, tmp_path):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        out = tmp_path / "csv"
        (out / frame_filename(3)).mkdir(parents=True)
        proc = subprocess.run([sys.executable, "-m", "qnlse", *MARCH, "--steps", "9",
                               "--format", "csv", "--out", str(out)],
                              capture_output=True, text=True, env=env, check=False)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.splitlines()[-1].replace(str(out), "OUT") == (
            "IsADirectoryError: [Errno 21] Is a directory: 'OUT/frame_000003.csv'")

    def test_json_failing_at_frame_3_leaves_frames_0_to_2_on_stdout(self, capsys,
                                                                    monkeypatch):
        whole = run(capsys, *MARCH, "--steps", "9")[1]

        def fails_at_frame_3(*args):
            for k, part in enumerate(frames_json_parts(*args)):
                if k == 4:  # after the head and frames 0-2
                    raise OSError("no space left")
                yield part

        monkeypatch.setattr(cli, "frames_json_parts", fails_at_frame_3)
        with pytest.raises(OSError, match="no space left"):
            main([*MARCH, "--steps", "9"])
        cut = capsys.readouterr().out
        assert whole.startswith(cut)
        assert cut.endswith("\n    }") and cut.count('"t": ') == 3


def failing_march(steps=100):
    """NEW at q = 0.5 on 21 points, whose march turns non-finite at step
    93, in the second block of 64 steps."""
    return ("propagate", "--q", "0.5", "--dt", "0.002", "--steps", str(steps), "--nx", "21",
            "--xmin", "-1", "--xmax", "1")


FAILING_MARCH_ERROR = "error: field value became non-finite at step 93, index 10\n"


@pytest.mark.filterwarnings("ignore:dt=0.002 exceeds:RuntimeWarning")
class TestMarchFailingAfterItsFirstBlock:
    """What a march that fails in a later block leaves: the output of the
    whole checked blocks before the failing step's, then exit 1 with one
    error line."""

    def test_csv_keeps_the_files_of_the_checked_blocks(self, capsys, tmp_path):
        out = tmp_path / "csv"
        code, stdout, err = run(capsys, *failing_march(), "--format", "csv", "--out", str(out))
        assert (code, stdout, err) == (1, "", FAILING_MARCH_ERROR)
        # frame 0 and the first block's 64 steps
        assert sorted(p.name for p in out.iterdir()) == [frame_filename(k) for k in range(65)]
        code, _, _ = run(capsys, *failing_march(64), "--format", "csv",
                         "--out", str(tmp_path / "clean"))
        assert code == 0
        assert all((out / frame_filename(k)).read_bytes()
                   == (tmp_path / "clean" / frame_filename(k)).read_bytes() for k in range(65))

    def test_json_on_stdout_stops_after_the_checked_blocks(self, capsys):
        code, stdout, err = run(capsys, *failing_march())
        assert (code, err) == (1, FAILING_MARCH_ERROR)
        assert stdout.endswith("\n    }") and stdout.count('"t": ') == 65
        whole = run(capsys, *failing_march(64))[1]  # the march to the last checked step
        assert whole.startswith(stdout) and '"t": ' not in whole[len(stdout):]

    @pytest.mark.parametrize("fmt", ["json", "svg"])
    def test_a_file_is_not_written(self, capsys, tmp_path, fmt):
        out = tmp_path / f"frames.{fmt}"
        code, stdout, err = run(capsys, *failing_march(), "--format", fmt, "--out", str(out))
        assert (code, stdout, err) == (1, "", FAILING_MARCH_ERROR)
        assert not out.exists()


@pytest.mark.parametrize("fmt", ["csv", "svg"])
def test_propagate_memory_does_not_grow_with_the_steps(tmp_path, fmt):
    # the march hands each checked block of 64 frames on; holding them all,
    # 2,000 steps on 101 points took 3.8 MB more than 200 steps
    def peak(steps):
        out = tmp_path / f"{steps}.{fmt}"
        argv = ["propagate", "--q", "1.0", "--nx", "101", "--dt", "1e-5", "--steps", str(steps),
                "--format", fmt, "--out", str(out)]
        tracemalloc.start()
        try:
            assert main(argv) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            shutil.rmtree(out, ignore_errors=True)

    peak(200)  # first-call imports and caches stay outside
    assert peak(2000) - peak(200) <= 1_000_000  # measured 0.17 to 0.36 MB

def test_verify_does_not_import_orjson():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
    script = ("import sys; from qnlse import cli; code = cli.main(['verify', '--out', "
              "sys.argv[1]]); sys.exit(code or 3 * ('orjson' in sys.modules))")
    proc = subprocess.run([sys.executable, "-c", script, os.devnull],
                          capture_output=True, text=True, env=env, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")


# What ``import qnlse.cli`` adds to a process that has imported numpy.  The
# process starts without ``site`` (``-S``), so that no module a ``.pth``
# file happens to load first drops out of the list.
CLI_IMPORTS = {
    "__future__", "_bisect", "_csv", "_json", "_random", "_sha512", "argparse", "bisect",
    "cmath", "copy", "csv", "dataclasses", "errno", "fnmatch", "gettext", "ipaddress", "json",
    "json.decoder", "json.encoder", "json.scanner", "ntpath", "pathlib", "random", "urllib",
    "urllib.parse", "qnlse", "qnlse._kernels", "qnlse._pool", "qnlse.cli", "qnlse.errors",
    "qnlse.fields", "qnlse.integrators", "qnlse.qmath", "qnlse.reports", "qnlse.residuals",
    "qnlse.solutions", "qnlse.verify",
}


def test_cli_import_loads_only_the_listed_modules():
    import numpy

    path = [Path(cli.__file__).parents[1], Path(numpy.__file__).parents[1]]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(map(str, path)))
    script = ("import sys, numpy; before = set(sys.modules); import qnlse.cli; "
              "print(*sorted(set(sys.modules) - before))")
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, env=env, check=True)
    assert set(proc.stdout.split()) - CLI_IMPORTS == set()


class TestStudies:
    def test_converge_ode(self, capsys):
        code, out, _ = run(capsys, "converge", "--study", "ode-time",
                           "--levels", "4")
        assert code == 0
        report = json.loads(out)
        assert abs(report["observed_order"] - 4.0) <= 0.5

    def test_converge_ode_space(self, capsys):
        code, out, _ = run(capsys, "converge", "--study", "ode-space",
                           "--equation", "nrt", "--levels", "4")
        assert code == 0
        assert abs(json.loads(out)["observed_order"] - 4.0) <= 0.5

    def test_converge_pde(self, capsys):
        code, out, _ = run(capsys, "converge", "--study", "pde", "--q", "1.1")
        assert code == 0
        report = json.loads(out)
        assert abs(report["observed_order"] - 2.0) <= 0.3

    @pytest.mark.parametrize("equation", ["new", "nrt"])
    @pytest.mark.parametrize("p", ["-1", "-3"])
    def test_converge_ode_space_at_negative_p_fits_order_4(self, capsys, equation, p):
        # the integrator took the branch of |p| and so missed the closed
        # form of p < 0 by an O(1) error at every level
        code, out, err = run(capsys, "converge", "--study", "ode-space", "--equation", equation,
                             "--p", p, "--q", "1.1")
        report = json.loads(out)
        assert (code, err, report["monotone"]) == (0, "", 1)
        assert abs(report["observed_order"] - 4.0) <= 0.05
        assert report["error_2"] <= 1e-7

    # studies whose errors do not fall strictly, which fit no order: at
    # rounding level, where the scheme is exact, or past the march's horizon
    @pytest.mark.parametrize("argv, errors", [
        (("--study", "ode-space", "--equation", "new", "--q", "0"),
         "3.55e-16, 5.47e-16, 1.34e-15"),
        (("--study", "ode-time", "--equation", "new", "--q", "-0.9", "--p", "0.1"),
         "6.59e-17, 1.11e-16, 1.11e-16"),
        (("--study", "pde", "--equation", "new", "--q", "0.7"),
         "1.87e-07, 4.67e-08, 4.81e-08"),
        (("--study", "pde", "--equation", "new", "--q", "0.5"), None),
        (("--study", "pde", "--equation", "new", "--q", "-0.9"), None),
        (("--study", "pde", "--equation", "nrt", "--q", "1.9"), None),
        (("--study", "pde", "--equation", "nrt", "--q", "3.5"), None),
    ], ids=["ode-space-new-q0", "ode-time-new-q-0.9", "pde-new-q0.7", "pde-new-q0.5",
            "pde-new-q-0.9", "pde-nrt-q1.9", "pde-nrt-q3.5"])
    def test_converge_refuses_errors_that_do_not_fall(self, capsys, argv, errors):
        code, out, err = run(capsys, "converge", *argv)
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error: the errors (\S+), (\S+), (\S+) at steps (0\.2, 0\.1, 0\.05|"
                            r"0\.05, 0\.025, 0\.0125) do not fall strictly from the coarsest "
                            r"level to the finest, so they fit no order\n", err)
        if errors is not None:
            assert f"the errors {errors} at" in err

    def test_limit_orders(self, capsys):
        code, out, _ = run(capsys, "limit")
        assert code == 0
        report = json.loads(out)
        assert report["min_order"] >= 0.9

    def test_compare_at_q_one_coincides(self, capsys):
        code, out, _ = run(capsys, "compare", "--q", "1")
        assert code == 0
        assert json.loads(out)["max_abs_diff"] <= 1e-10

    def test_compare_at_q_15_differs(self, capsys):
        code, out, _ = run(capsys, "compare", "--q", "1.5")
        assert code == 0
        assert json.loads(out)["max_abs_diff"] > 1e-3

    def test_compare_svg(self, capsys, tmp_path):
        path = tmp_path / "compare.svg"
        code, _, _ = run(capsys, "compare", "--format", "svg", "--out", str(path))
        assert code == 0
        ET.parse(path)


class TestVerifyCommand:
    def test_verify_passes_and_roundtrips(self, capsys, tmp_path):
        code, out, _ = run(capsys, "verify")
        assert code == 0
        report = json.loads(out)
        assert report["all_passed"] == 1
        csv_path = tmp_path / "verify.csv"
        code, _, _ = run(capsys, "verify", "--format", "csv", "--out", str(csv_path))
        assert code == 0
        from_csv = parse_report_csv(csv_path.read_text())
        for key, value in report.items():
            if isinstance(value, float):
                assert from_csv[key] == value
        assert from_csv["all_passed"] == 1


# q at the poles and edges of both equations' rules, and about q = 1
FUZZ_Q = (-1.5, -1.0, -0.9, -0.5, 0.0, 1e-9, 0.01, 0.5, 1 - 1e-6, 1.0, 1 + 1e-6, 1.1, 1.5,
          1.9, 2.0, 2.5, 3.0, 3.5, 5.0, 20.0)
FUZZ_P = (1e-8, 0.1, 1.0, 3.0, 10.0, -1.0)
EQUATION_RULE = re.compile(r"the (q-power|NRT) (time|space) equation requires")


def fuzz_argv(rng):
    command = rng.choice(("converge", "residual", "compare", "limit", "propagate"))
    argv = [command, "--p", repr(rng.choice(FUZZ_P))]
    if command != "limit":
        argv += ["--q", repr(rng.choice(FUZZ_Q))]
    if command in ("converge", "residual", "propagate"):
        argv += ["--equation", rng.choice(("new", "nrt"))]
    if command == "converge":
        argv += ["--study", rng.choice(("pde", "ode-time", "ode-space")),
                 "--levels", str(rng.choice((2, 3, 4)))]
    if command == "residual":
        argv += ["--form", rng.choice(("field", "phi", "time", "space")),
                 "--solution", rng.choice(("plane", "new", "nrt")),
                 "--method", rng.choice(("analytic", "fd"))]
    if command == "propagate":  # JSON on stdout; in one block, a failing march writes nothing
        argv += ["--nx", str(rng.choice((3, 11, 41))), "--steps", str(rng.choice((0, 1, 64))),
                 "--dt", repr(rng.choice((1e-5, 1e-3, 1e-2)))]
    return argv


def report_numbers(report):
    """Every number of a report, the values of its frames included."""
    for value in report.values():
        if isinstance(value, list):
            for item in value:
                yield from report_numbers(item) if isinstance(item, dict) else [item]
        elif not isinstance(value, str):
            yield value


@pytest.mark.filterwarnings("ignore:dt=.*diffusive-scaling heuristic:RuntimeWarning")
@pytest.mark.parametrize("seed", [0, 1])
def test_fuzzed_commands_keep_the_exit_contract(capsys, seed):
    # random.Random(seed) replays a failing draw, named by its argv
    rng = random.Random(seed)
    for _ in range(200):
        argv = fuzz_argv(rng)
        code, out, err = run(capsys, *argv)
        assert code in (0, 1, 2), argv
        if not out:
            # a refusal: one error line, no traceback
            assert code != 0 and err.startswith("error: ") and err.count("\n") == 1, argv
            if EQUATION_RULE.search(err) and argv[0] != "compare":  # compare has no --equation
                assert re.match(r"error: --(equation|solution) (new|nrt): ", err), argv
            continue
        # a report, whole and finite; exit 1 is a check it failed
        report = json.loads(out)
        assert err == "" and all(map(math.isfinite, report_numbers(report))), argv
        assert code == 0 or report["passed"] == 0, argv
        if argv[0] == "converge":
            errors = [report[f"error_{i}"] for i in range(int(argv[-1]))]
            assert all(b < a for a, b in zip(errors, errors[1:])), argv
