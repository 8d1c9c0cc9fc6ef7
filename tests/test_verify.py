"""Verification-suite plumbing: seeding, determinism, result shape."""

import pytest

from qnlse.errors import DomainError
from qnlse.verify import (
    DEFAULT_SEED,
    run_verification,
    seed_from_env,
    suite_pde_classical_agreement,
    suite_propagation_determinism,
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
    # the parent's worsts, bit for bit
    agreement = suite_pde_classical_agreement()
    assert agreement.passed
    assert agreement.worst == 6.333169254111433e-06
    assert "propagator gap 0 " in agreement.detail
    determinism = suite_propagation_determinism()
    assert determinism.passed
    assert determinism.worst == 0.0
