"""Command-line contract: exit codes, formats, round-trips, determinism."""

import argparse
import functools
import json
import math
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from qnlse import _pool, cli
from qnlse.cli import main
from qnlse.errors import (
    ConvergenceError,
    DegenerateStudyError,
    DomainError,
    PropagationError,
    QnlseError,
)
from qnlse.reports import frame_filename, parse_report_csv


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
        # no flag sets a potential: a nan one stands for any non-finite residual
        monkeypatch.setattr(cli, "scan_residual",
                            functools.partial(cli.scan_residual, potential=lambda x: math.nan))
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
    "run_verification", "propagate", "scan_residual", "convergence_study",
    "manufactured_field", "sample_field", "classical_limit_table",
    "q_plane_wave_field", "product_solution_field", "separated_space_curve",
    "separated_time_curve",
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

    @pytest.mark.parametrize("cpus", [1, 2, 3])
    def test_shorter_run_removes_stale_frames(self, capsys, tmp_path, frames_on, cpus):
        frames_on(cpus, frames_per_chunk=1)
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
        assert_no_child_left()

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


@pytest.fixture
def frames_on(monkeypatch):
    """``frames_on(cpus, frames_per_chunk)``: run propagate as if on
    ``cpus`` CPUs, formatting chunks of that many frames of the NX-point grid."""
    def frames_on(cpus, frames_per_chunk):
        monkeypatch.setattr(_pool, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(cli, "FRAME_CHUNK_VALUES", frames_per_chunk * NX)
    return frames_on


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def emitted(capsys, tmp_path, steps):
    """The CSV frames, the JSON file and the JSON on stdout of one march."""
    out = tmp_path / "run"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    for argv in (("--format", "csv", "--out", str(out / "csv")),
                 ("--format", "json", "--out", str(out / "frames.json")), ()):
        code, stdout, _ = run(capsys, *MARCH, "--steps", str(steps), *argv)
        assert code == 0
        assert_no_child_left()
    csv_frames = {p.name: p.read_bytes() for p in sorted((out / "csv").iterdir())}
    return csv_frames, (out / "frames.json").read_bytes(), stdout


class TestFrameEmissionOnEveryCpu:
    @pytest.mark.parametrize("steps", [0, 1, 2, 9, 10])
    def test_split_emission_equals_one_chunk_on_one_cpu(self, capsys, tmp_path,
                                                       frames_on, steps):
        frames_on(1, frames_per_chunk=10**6)
        serial = emitted(capsys, tmp_path, steps)
        assert list(serial[0]) == [frame_filename(k) for k in range(steps + 1)]
        assert len(json.loads(serial[2])["frames"]) == steps + 1
        assert serial[1] == serial[2].encode()
        for cpus in (1, 2, 3):
            for per_chunk in (1, 3, 4):  # 11 frames: 11, 3+3+3+2 and 4+4+3 chunks
                frames_on(cpus, per_chunk)
                assert emitted(capsys, tmp_path, steps) == serial, (cpus, per_chunk)

    def test_late_write_failure_raises_the_serial_error(self, tmp_path, frames_on):
        outcomes = []
        for cpus in (1, 2, 3):
            frames_on(cpus, frames_per_chunk=1)
            out = tmp_path / f"on{cpus}"
            (out / frame_filename(3)).mkdir(parents=True)
            with pytest.raises(OSError) as caught:
                main([*MARCH, "--steps", "9", "--format", "csv", "--out", str(out)])
            outcomes.append((type(caught.value), str(caught.value).replace(str(out), "OUT")))
            assert all((out / frame_filename(k)).is_file() for k in range(3))
            assert_no_child_left()
        assert outcomes[0][0] is IsADirectoryError
        assert outcomes[1:] == outcomes[:1] * 2

    def test_late_write_failure_exits_as_a_serial_run(self, tmp_path):
        script = ("import sys; from qnlse import _pool, cli; "
                  "_pool._usable_cpus = lambda: int(sys.argv[1]); "
                  f"cli.FRAME_CHUNK_VALUES = {NX}; sys.exit(cli.main(sys.argv[2:]))")
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1]))
        outcomes = []
        for cpus in ("1", "2"):
            out = tmp_path / f"on{cpus}"
            (out / frame_filename(3)).mkdir(parents=True)
            proc = subprocess.run([sys.executable, "-c", script, cpus, *MARCH, "--steps", "9",
                                   "--format", "csv", "--out", str(out)],
                                  capture_output=True, text=True, env=env, check=False)
            outcomes.append((proc.returncode, proc.stdout,
                             proc.stderr.splitlines()[-1].replace(str(out), "OUT")))
        assert outcomes[0] == (1, "", "IsADirectoryError: [Errno 21] Is a directory: "
                                      "'OUT/frame_000003.csv'")
        assert outcomes[1] == outcomes[0]

    def test_chunk_lost_with_its_worker_is_named(self, capsys, tmp_path, frames_on,
                                                 monkeypatch):
        parent, died = os.getpid(), tmp_path / "worker-died"
        real = cli.frame_csv_text

        def dies_in_the_worker(*args):
            if os.getpid() != parent:
                died.touch()
                os._exit(3)
            deadline = time.monotonic() + 10.0  # let the worker take a chunk first
            while not died.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
            return real(*args)

        frames_on(2, frames_per_chunk=1)
        monkeypatch.setattr(cli, "frame_csv_text", dies_in_the_worker)
        code, out, err = run(capsys, *MARCH, "--steps", "3", "--format", "csv",
                             "--out", str(tmp_path / "csv"))
        assert (code, out) == (1, "")
        assert re.fullmatch(r"error: the chunk of frames (\d)-\1 was not reported: "
                            r"propagate worker \d+ exited with status 3\n", err)
        assert_no_child_left()


@pytest.mark.parametrize("n_frames, n_points", [
    (1, 21), (11, 21), (301, 401), (5001, 401), (10**6, 10**4), (7, 10**6)])
def test_frame_chunks_cover_the_march_in_order(n_frames, n_points):
    chunks = cli._frame_chunks(n_frames, n_points)
    assert [k for c in chunks for k in range(n_frames)[c]] == list(range(n_frames))
    assert 1 <= len(chunks) <= _pool.MAX_TASKS
    sizes = [c.stop - c.start for c in chunks]
    assert len(set(sizes[:-1])) <= 1 and 0 < sizes[-1] <= sizes[0]
    # about FRAME_CHUNK_VALUES values a chunk, unless the task limit needs more
    assert sizes[0] in (min(n_frames, max(1, cli.FRAME_CHUNK_VALUES // n_points)),
                        -(-n_frames // _pool.MAX_TASKS))


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
