"""Verification-suite plumbing: seeding, determinism, result shape,
nan handling and the scheduler that runs the suites on every CPU."""

import dataclasses
import inspect
import itertools
import math
import os
import pickle
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from qnlse import _pool, integrators, verify
from qnlse.cli import main
from qnlse.errors import DomainError, QnlseError
from qnlse.integrators import fit_observed_order
from qnlse.verify import (
    DEFAULT_SEED,
    SuiteResult,
    run_verification,
    seed_from_env,
    suite_binomial_identity,
    suite_cross_equation,
    suite_lambda_uniqueness,
    suite_pde_classical_agreement,
    suite_propagation_determinism,
    suite_residual_exactness_analytic,
)


def test_env_seed_parsing(monkeypatch):
    monkeypatch.setenv("QNLSE_SEED", "7")
    assert seed_from_env() == 7
    monkeypatch.setenv("QNLSE_SEED", "not-a-number")
    assert seed_from_env() == DEFAULT_SEED
    monkeypatch.delenv("QNLSE_SEED")
    assert seed_from_env() == DEFAULT_SEED


def test_randomized_suites_are_reproducible():
    names = ["binomial-identity", "hypergeometric-ode"]
    a = run_verification(seed=123, names=names)
    b = run_verification(seed=123, names=names)
    assert [(r.name, r.worst) for r in a] == [(r.name, r.worst) for r in b]


def test_different_seed_changes_draws():
    names = ["binomial-identity"]
    a = run_verification(seed=1, names=names)[0]
    b = run_verification(seed=2, names=names)[0]
    assert a.worst != b.worst
    assert a.passed and b.passed


def test_unknown_suite_names_rejected():
    with pytest.raises(DomainError, match=r"\['no-such-suite', 'zz'\]"):
        run_verification(seed=1, names=["origin-normalization", "zz", "no-such-suite"])


def test_result_dict_shape():
    r = run_verification(names=["origin-normalization"])[0]
    d = r.as_dict()
    assert set(d) == {"name", "passed", "worst", "tolerance", "detail"}
    assert d["passed"] == 1


def test_all_suites_pass_with_default_seed():
    results = run_verification()
    failed = [r.name for r in results if not r.passed]
    assert failed == []
    assert len(results) == 22


def test_march_pair_suites_keep_their_worsts():
    # their worsts, bit for bit
    agreement = suite_pde_classical_agreement()
    assert agreement.passed
    assert agreement.worst == 6.333169253753702e-06
    assert "propagator gap 0 " in agreement.detail
    determinism = suite_propagation_determinism()
    assert determinism.passed
    assert determinism.worst == 0.0


def test_classical_agreement_holds_one_block_of_each_march():
    # it marches NEW and NRT in lockstep, block by block; holding both
    # 1,001-frame marches whole, it peaked at 13.5 MB
    suite_pde_classical_agreement()  # first-call imports and caches stay outside
    tracemalloc.start()
    try:
        result = suite_pde_classical_agreement()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.passed
    assert peak < 2_000_000  # measured 1.37 MB


# ---------------------------------------------------------------------------
# what verify loads: no numpy.random, no LAPACK
# ---------------------------------------------------------------------------

ORDER_FIT_SUITES = ["deformed-exp-limit", "classical-limit", "non-coincidence",
                    "ode-order", "pde-spatial-order"]  # registry order

# Reads the peak RSS of ``python -c "import qnlse.cli"`` and of ``python -m
# qnlse verify``, and its own.  A spawned child's ru_maxrss starts at its
# parent's high-water mark, so the readings come from this small process.
PEAKS = """
import os, sys

def peak(*argv):
    pid = os.posix_spawn(sys.executable, [sys.executable, *argv], os.environ,
                         file_actions=[(os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0)])
    _, status, usage = os.wait4(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0, argv
    return usage.ru_maxrss / 1024

with open("/proc/self/status") as status:
    own = next(int(line.split()[1]) for line in status if line.startswith("VmHWM:")) / 1024
print(own, peak("-c", "import qnlse.cli"), peak("-m", "qnlse", "verify"))
"""


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(Path(verify.__file__).parents[1]),
                PYTHONDONTWRITEBYTECODE="1", QNLSE_SEED="42")


def test_a_serial_run_never_imports_numpy_random():
    # numpy.random costs 5.2 MB and 10-15 ms of import, for scalar draws
    script = ("import sys\n"
              "from qnlse import _pool, verify\n"
              "_pool._usable_cpus = lambda: 1\n"
              "assert all(r.passed for r in verify.run_verification(42))\n"
              "print('numpy.random' in sys.modules)\n")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=child_env(), timeout=300)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


def test_order_fits_call_no_least_squares_solver(monkeypatch):
    # np.polyfit starts OpenBLAS (1.3 MB) to fit lines through 3 or 4 points
    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.lstsq called")

    monkeypatch.setattr(np.linalg, "lstsq", refuse)
    # np.polyfit calls the name it imported
    monkeypatch.setitem(getattr(np.polyfit, "__wrapped__", np.polyfit).__globals__,
                        "lstsq", refuse)
    assert fit_observed_order([0.1, 0.05, 0.025], [4e-3, 1e-3, 2.5e-4]) == pytest.approx(2.0)
    results = run_on(1, monkeypatch, seed=42, names=ORDER_FIT_SUITES)
    assert [(r.name, r.passed) for r in results] == [(name, True) for name in ORDER_FIT_SUITES]


def test_order_fits_equal_numpy_polyfit(monkeypatch, capsys):
    fits = []

    def recorded(resolutions, errors):
        fits.append((resolutions, errors))
        return fit_observed_order(resolutions, errors)

    monkeypatch.setattr(integrators, "fit_observed_order", recorded)
    monkeypatch.setattr(verify, "fit_observed_order", recorded)
    run_on(1, monkeypatch, seed=42, names=ORDER_FIT_SUITES)
    assert main(["limit"]) == 0
    for study in ("pde", "ode-time", "ode-space"):
        for equation in ("new", "nrt"):
            assert main(["converge", "--study", study, "--equation", equation]) == 0
    capsys.readouterr()
    assert len(fits) == 19
    for resolutions, errors in fits:
        reference = np.polyfit(np.log(resolutions), np.log(errors), 1)[0]
        # measured: at most 1.9e-15, 14 ulps (converge --study pde)
        assert fit_observed_order(resolutions, errors) == pytest.approx(reference, rel=1e-14)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc, KiB ru_maxrss")
def test_verify_peaks_within_3_mb_of_the_import():
    # measured on 2 CPUs: 30.2 MB for the import, 31.1 MB for verify;
    # numpy.random and LAPACK would add 7.7-8.6 MB
    done = subprocess.run([sys.executable, "-c", PEAKS], capture_output=True, text=True,
                          env=child_env(), timeout=300)
    assert done.returncode == 0, done.stderr
    own, imported, verified = map(float, done.stdout.split())
    assert own < 15.0
    assert verified - imported <= 3.0


# ---------------------------------------------------------------------------
# a nan check value fails its suite
# ---------------------------------------------------------------------------


def nan_on_first_call(real):
    """``real`` with a nan in place of its first result."""
    calls = []

    def patched(*args, **kwargs):
        calls.append(None)
        value = real(*args, **kwargs)
        if len(calls) > 1:
            return value
        if isinstance(value, float):
            return math.nan
        return dataclasses.replace(value, max_abs=math.nan)

    return patched


def test_nan_fails_a_max_suite(monkeypatch):
    monkeypatch.setattr(verify, "check_binomial_identity",
                        nan_on_first_call(verify.check_binomial_identity))
    result = suite_binomial_identity(random.Random(DEFAULT_SEED))
    assert not result.passed
    assert math.isnan(result.worst)


@pytest.mark.parametrize("suite", [suite_lambda_uniqueness, suite_cross_equation,
                                   suite_residual_exactness_analytic])
def test_nan_fails_a_scan_suite(monkeypatch, suite):
    # the first two keep the smallest residual (min), the last the largest
    monkeypatch.setattr(verify, "scan_residual", nan_on_first_call(verify.scan_residual))
    result = suite()
    assert not result.passed
    assert math.isnan(result.worst)


# ---------------------------------------------------------------------------
# the scheduler: one queue, pulled by this process and forked workers
# ---------------------------------------------------------------------------

ALL_SEEDED = ["binomial-identity", "hypergeometric-ode", "hypergeometric-symmetry",
              "power-integer-consistency", "deformed-exp-product-rule", "deformed-exp-limit"]
SEEDED = ["binomial-identity", "power-integer-consistency",
          "deformed-exp-product-rule", "deformed-exp-limit"]
UNSEEDED = ["classical-limit", "non-coincidence", "origin-normalization",
            "lambda-uniqueness"]
MIXED = ["deformed-exp-limit", "binomial-identity", "origin-normalization",
         "cross-equation-rejection", "power-integer-consistency", "non-coincidence"]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_on(cpus, monkeypatch, **kwargs):
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: cpus)
    return run_verification(**kwargs)


@pytest.mark.parametrize("names", [SEEDED, UNSEEDED, MIXED, ["deformed-exp-product-rule"]],
                         ids=["seeded", "unseeded", "mixed", "one"])
def test_split_run_equals_serial_run(monkeypatch, names):
    for seed in range(21):
        split = run_on(3, monkeypatch, seed=seed, names=names)
        serial = run_on(1, monkeypatch, seed=seed, names=names)
        assert split == serial
        assert repr(split) == repr(serial)
        assert [r.name for r in split] == [n for n in verify._SUITE_FUNCS if n in names]
        assert_no_child_left()


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_outcomes_larger_than_a_pipe_come_back_in_task_order(monkeypatch, tmp_path, cpus):
    # every process holds its first task until each of the ``cpus``
    # processes has one, whichever tasks they pulled; then each worker
    # waits on its full pipe until the queue is empty, so the parent
    # runs the rest
    size = 1 << 20

    def run(task):
        (tmp_path / str(os.getpid())).touch()
        deadline = time.monotonic() + 10.0
        while len(list(tmp_path.iterdir())) < cpus and time.monotonic() < deadline:
            time.sleep(0.001)
        return os.getpid(), bytes([task]) * size

    monkeypatch.setattr(_pool, "_usable_cpus", lambda: cpus)
    outcomes = _pool.run_tasks(5, run, str)
    assert [payload for _, payload in outcomes] == [bytes([task]) * size for task in range(5)]
    assert len({pid for pid, _ in outcomes}) == cpus
    assert_no_child_left()


@pytest.mark.parametrize("names", [MIXED, ["non-coincidence"]], ids=["mixed", "unseeded"])
def test_each_seeded_suite_builds_one_generator(monkeypatch, names):
    seeds = []
    monkeypatch.setattr(verify, "random", SimpleNamespace(
        Random=lambda seed: seeds.append(seed) or random.Random(seed)))
    run_on(1, monkeypatch, seed=5, names=names)
    assert seeds == [f"5:{name}" for name in ALL_SEEDED if name in names]


def test_a_seeded_suite_alone_gives_its_row_of_the_full_run(monkeypatch):
    assert ALL_SEEDED == [name for name, func in verify._SUITE_FUNCS.items()
                          if "rng" in inspect.signature(func).parameters]
    # the unseeded suites draw nothing, so stand-ins keep the full run short
    for name in verify._SUITE_FUNCS:
        if name not in ALL_SEEDED:
            monkeypatch.setitem(verify._SUITE_FUNCS, name,
                                lambda name=name: SuiteResult(name, True, 0.0, 0.0))
    for seed in range(10):
        full = dict(zip(verify._SUITE_FUNCS, run_verification(seed=seed)))
        for name in ALL_SEEDED:
            alone = run_verification(seed=seed, names=[name])
            assert alone == [full[name]]
            assert repr(alone) == repr([full[name]])


A, B, C = "classical-limit", "non-coincidence", "origin-normalization"  # registry order


@pytest.fixture
def fake_suites(monkeypatch, tmp_path):
    """Replace suites A, B and C by ``behaviour(name, in_worker)`` and make
    a forked worker pull the first task: the parent starts pulling only
    once a suite has started in another process.  Returns the dict of
    behaviours to fill in, and a function listing where each suite ran."""
    parent = os.getpid()
    started = tmp_path / "worker-started"
    behaviours = {}

    def fake(name):
        def suite():
            in_worker = os.getpid() != parent
            with open(tmp_path / f"ran-{name}", "w") as f:
                f.write("worker" if in_worker else "parent")
            if in_worker:
                started.touch()
            behaviours[name](name, in_worker)
            return SuiteResult(name, True, 0.0, 0.0)
        return suite

    for name in (A, B, C):
        monkeypatch.setitem(verify._SUITE_FUNCS, name, fake(name))
    real_pull = _pool._pull

    def pull(queue):
        if os.getpid() == parent:
            deadline = time.monotonic() + 10.0
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
        return real_pull(queue)

    monkeypatch.setattr(_pool, "_pull", pull)
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: 2)

    def where():
        return {name: (tmp_path / f"ran-{name}").read_text()
                for name in (A, B, C) if (tmp_path / f"ran-{name}").exists()}

    return behaviours, where


def passes(name, in_worker):
    pass


def raises(name, in_worker):
    raise DomainError(f"{name} failed")


def test_worker_error_surfaces_with_type_and_message(fake_suites):
    behaviours, where = fake_suites
    behaviours.update({A: raises, B: passes, C: passes})
    with pytest.raises(DomainError) as caught:
        run_verification(seed=1, names=[A, B, C])
    assert type(caught.value) is DomainError
    assert str(caught.value) == f"{A} failed"
    assert where()[A] == "worker"
    assert_no_child_left()


def wait_until_started(where, name):
    deadline = time.monotonic() + 10.0
    while name not in where() and time.monotonic() < deadline:
        time.sleep(0.001)


def test_earliest_failing_suite_wins_across_processes(fake_suites):
    def raises_late(name, in_worker):
        wait_until_started(where, B)  # the parent's later suite fails first
        raises(name, in_worker)

    behaviours, where = fake_suites
    behaviours.update({A: raises_late, B: raises, C: raises})
    with pytest.raises(DomainError, match=f"^{A} failed$"):
        run_verification(seed=1, names=[A, B, C])
    assert where()[A] == "worker" and where()[B] == "parent"
    assert C not in where()  # the queue was drained after the parent's failure
    assert_no_child_left()


def test_serial_run_raises_the_same_error(monkeypatch):
    monkeypatch.setitem(verify._SUITE_FUNCS, A, lambda: raises(A, False))
    monkeypatch.setitem(verify._SUITE_FUNCS, B, lambda: raises(B, False))
    for cpus in (1, 2):
        with pytest.raises(DomainError, match=f"^{A} failed$"):
            run_on(cpus, monkeypatch, seed=1, names=[A, B, C])
        assert_no_child_left()


def test_dead_worker_raises_with_its_exit_status(fake_suites):
    def dies(name, in_worker):
        assert in_worker, "would end the test process"
        os._exit(3)

    behaviours, where = fake_suites
    behaviours.update({A: dies, B: passes, C: passes})
    with pytest.raises(QnlseError, match=f"^suite {A} was not reported: "
                                         r"verify worker \d+ exited with status 3$"):
        run_verification(seed=1, names=[A, B, C])
    assert where() == {A: "worker", B: "parent", C: "parent"}
    assert_no_child_left()


def test_interrupt_reaps_the_worker_after_its_current_task(fake_suites):
    def slow(name, in_worker):
        wait_until_started(where, B)
        time.sleep(0.2)  # time for the interrupted parent to drain the queue

    def interrupted(name, in_worker):
        raise KeyboardInterrupt

    behaviours, where = fake_suites
    behaviours.update({A: slow, B: interrupted, C: passes})
    with pytest.raises(KeyboardInterrupt):
        run_verification(seed=1, names=[A, B, C])
    assert where() == {A: "worker", B: "parent"}
    assert_no_child_left()


def test_exception_that_does_not_pickle_keeps_its_text(fake_suites):
    class Unpicklable(Exception):  # a local class does not pickle
        pass

    def raises_unpicklable(name, in_worker):
        raise Unpicklable(f"{name} failed")

    behaviours, where = fake_suites
    behaviours.update({A: raises_unpicklable, B: passes, C: passes})
    with pytest.raises(QnlseError, match=f"^Unpicklable: {A} failed$"):
        run_verification(seed=1, names=[A, B, C])
    assert where()[A] == "worker"
    assert_no_child_left()


def test_worker_cut_off_in_its_third_message_reports_the_first_two(monkeypatch, tmp_path):
    # the worker pulls tasks 0, 1 and 2 while the parent waits, sends two
    # whole messages and half the third, and dies
    parent = os.getpid()
    cut = tmp_path / "cut"
    real_send, real_pull, real_messages = _pool._send, _pool._pull, _pool._messages

    def send(out, task, value, error):
        if task < 2:
            return real_send(out, task, value, error)
        data = pickle.dumps((task, (value, error)), pickle.HIGHEST_PROTOCOL)
        os.write(out, data[:len(data) // 2])
        cut.touch()
        os._exit(3)

    def pull(queue):
        if os.getpid() == parent:
            deadline = time.monotonic() + 10.0
            while not cut.exists() and time.monotonic() < deadline:
                time.sleep(0.001)
        return real_pull(queue)

    received = []

    def messages(fd):
        for message in real_messages(fd):
            received.append(message)
            yield message

    monkeypatch.setattr(_pool, "_send", send)
    monkeypatch.setattr(_pool, "_pull", pull)
    monkeypatch.setattr(_pool, "_messages", messages)
    monkeypatch.setattr(_pool, "_usable_cpus", lambda: 2)
    with pytest.raises(QnlseError, match=r"^task 2 was not reported: "
                                         r"verify worker \d+ exited with status 3$"):
        _pool.run_tasks(4, lambda task: f"value {task}", lambda task: f"task {task}")
    assert received == [(0, ("value 0", None)), (1, ("value 1", None))]
    assert_no_child_left()


def test_a_message_cut_at_any_byte_loads_only_the_whole_ones_before_it():
    sent = [(0, (SuiteResult("binomial-identity", True, 1e-15, 1e-12), None)),
            (1, (None, DomainError("x" * 5000))),
            (2, (bytes(range(256)), None))]
    stream = b"".join(pickle.dumps(message, pickle.HIGHEST_PROTOCOL) for message in sent)
    ends = list(itertools.accumulate(
        len(pickle.dumps(message, pickle.HIGHEST_PROTOCOL)) for message in sent))
    for cut in range(len(stream) + 1):
        reader, writer = os.pipe()
        try:
            os.write(writer, stream[:cut])
            os.close(writer)
            received = list(_pool._messages(reader))
        finally:
            os.close(reader)
        whole = sum(end <= cut for end in ends)
        assert repr(received) == repr(sent[:whole]), cut
