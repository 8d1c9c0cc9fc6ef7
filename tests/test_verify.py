"""Verification-suite plumbing: seeding, determinism, result shape,
nan handling and the scheduler that runs the suites on every CPU."""

import dataclasses
import math
import os
import time
import tracemalloc

import numpy as np
import pytest

from qnlse import _pool, verify
from qnlse.errors import DomainError, QnlseError
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
    result = suite_binomial_identity(np.random.default_rng(DEFAULT_SEED))
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


@pytest.mark.parametrize("names,builds", [(MIXED, 1), (["non-coincidence"], 0)],
                         ids=["mixed", "unseeded"])
def test_only_the_seeded_task_builds_a_generator(monkeypatch, names, builds):
    seeds = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda seed: seeds.append(seed) or real(seed))
    run_on(1, monkeypatch, seed=5, names=names)
    assert seeds == [5] * builds


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
