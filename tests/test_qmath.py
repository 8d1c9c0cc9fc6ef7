"""Special-function layer: principal powers, deformed exponential, 2F1."""

import cmath
import math

import numpy as np
import pytest

from qnlse.errors import ConvergenceError, DomainError
from qnlse.integrators import fit_observed_order
from qnlse.qmath import (
    EPS_Q_ONE,
    HypParams,
    check_binomial_identity,
    cpow_principal,
    hyp2f1,
    hyp2f1_deriv,
    hyp2f1_series,
    q_exp,
    q_exp_real_cutoff,
)

RNG = np.random.default_rng(1234)


def longdouble_series(alpha, beta, gamma, z, n_terms=100_000):
    """Independent brute-force partial sum in extended precision."""
    term = np.clongdouble(1.0)
    total = np.clongdouble(1.0)
    zc = np.clongdouble(z)
    for n in range(n_terms):
        term = term * (alpha + n) * (beta + n) / ((gamma + n) * (n + 1.0)) * zc
        total = total + term
        if abs(term) < 1e-25 * abs(total):
            break
    return complex(total)


class TestPrincipalPower:
    def test_base_one_any_exponent(self):
        for e in (2.0, -3.5, 0.5 + 2.5j, -1j):
            assert cpow_principal(1.0, e) == 1.0

    def test_principal_root_of_minus_one(self):
        assert cpow_principal(-1.0, 0.5) == pytest.approx(1j, abs=1e-15)

    def test_negative_zero_imag_stays_on_upper_branch(self):
        assert cpow_principal(complex(-1.0, -0.0), 0.5) == pytest.approx(1j, abs=1e-15)

    def test_hand_value_reciprocal(self):
        # 1/(1-i) = (1+i)/2
        assert cpow_principal(1 - 1j, -1.0) == pytest.approx(0.5 + 0.5j, abs=1e-15)

    def test_zero_base(self):
        assert cpow_principal(0.0, 2.5) == 0
        with pytest.raises(DomainError):
            cpow_principal(0.0, -1.0)
        with pytest.raises(DomainError):
            cpow_principal(0.0, 1j)

    def test_overflow_raises(self):
        with pytest.raises(DomainError):
            cpow_principal(1e300, 5.0)

    def test_matches_repeated_multiplication(self):
        worst = 0.0
        for _ in range(200):
            base = complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2))
            if abs(base) < 0.2:
                continue
            for n in range(-3, 4):
                direct = 1 + 0j
                for _ in range(abs(n)):
                    direct *= base
                if n < 0:
                    direct = 1 / direct
                err = abs(cpow_principal(base, n) - direct) / max(1.0, abs(direct))
                worst = max(worst, err)
        assert worst <= 1e-13


class TestDeformedExponential:
    def test_hand_values(self):
        assert q_exp(2.0, 1.0) == pytest.approx(0.5)
        assert q_exp(0.5, 1.0) == pytest.approx(0.25)

    def test_pole_raises(self):
        with pytest.raises(DomainError):
            q_exp(2.0, -1.0)

    def test_near_one_dispatch_is_continuous(self):
        # the (q-1)-inside form tends to exp(-z); the dispatch must agree
        z = 0.7 - 0.3j
        assert q_exp(1.0, z) == pytest.approx(cmath.exp(-z), abs=1e-14)
        assert q_exp(1.0 + 0.5 * EPS_Q_ONE, z) == pytest.approx(cmath.exp(-z), abs=1e-14)
        assert abs(q_exp(1.0 + 1e-9, z) - cmath.exp(-z)) < 1e-8

    def test_limit_order_in_q_minus_one(self):
        zs = [complex(RNG.uniform(-2, 2), RNG.uniform(-2, 2)) for _ in range(20)]
        deltas = (1e-2, 1e-3, 1e-4)
        for sign in (1.0, -1.0):
            sups = [
                max(abs(q_exp(1.0 + sign * d, z) - cmath.exp(-z)) for z in zs)
                for d in deltas
            ]
            assert fit_observed_order(deltas, sups) >= 0.9

    def test_real_cutoff(self):
        assert q_exp_real_cutoff(0.5, 3.0) == 0.0
        assert q_exp_real_cutoff(0.5, -3.0) == pytest.approx(6.25)
        assert q_exp_real_cutoff(1.0001, 0.0) == pytest.approx(1.0)

    def test_real_cutoff_overflow_is_typed(self):
        with pytest.raises(DomainError):
            q_exp_real_cutoff(0.999, -1e7)

    @pytest.mark.parametrize("q, x", [(1.5, math.nan), (math.inf, 1.0), (math.nan, 0.5),
                                      (1.5, math.inf), (0.5, -math.inf)])
    def test_real_cutoff_rejects_non_finite_arguments(self, q, x):
        with pytest.raises(DomainError, match="non-finite"):
            q_exp_real_cutoff(q, x)

    def test_product_rule_with_matching_convention(self):
        # e(x)e(y) = e(x + y + (q-1)xy) wherever both brackets are positive
        count = 0
        while count < 300:
            q = RNG.uniform(0.2, 1.8)
            if abs(q - 1) < 1e-6:
                continue
            x, y = RNG.uniform(-1.5, 1.5, size=2)
            combined = x + y + (q - 1) * x * y
            if min(1 + (q - 1) * x, 1 + (q - 1) * y, 1 + (q - 1) * combined) <= 1e-6:
                continue
            lhs = q_exp_real_cutoff(q, x) * q_exp_real_cutoff(q, y)
            rhs = q_exp_real_cutoff(q, combined)
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))
            count += 1


class TestHyp2f1:
    def test_value_at_zero_is_one(self):
        assert hyp2f1(HypParams(0.7, -1.3, 2.2, 0.0)) == 1.0

    def test_degenerate_closed_form(self):
        # beta == gamma collapses to (1-z)^(-alpha)
        assert hyp2f1(HypParams(0.5, 1.0, 1.0, 0.5)) == pytest.approx(math.sqrt(2))

    def test_against_frozen_arbitrary_precision_values(self):
        # frozen from a 40-digit evaluation of the same function
        cases = [
            ((0.5, 0.3, 1.2, 0.2 + 0j), 1.0275243059313621747 + 0.0j),
            ((-1.5, 2.0, 2.5, 0.5 + 0.3j),
             0.43939428156674148241 - 0.27396050810752640745j),
            ((2.0, -1.25, 0.75, -0.4 + 0.6j),
             2.2590777426579789434 - 2.3098295066404917624j),
            ((2.0, 1.0, 1.0, 0.3j),
             0.76592879387256966399 + 0.5050079959599360198j),
        ]
        for (a, b, c, z), expected in cases:
            got = hyp2f1(HypParams(a, b, c, z))
            assert got == pytest.approx(expected, rel=1e-12)

    def test_series_against_longdouble_oracle(self):
        for _ in range(25):
            a, b = RNG.uniform(-3, 3, size=2)
            c = RNG.uniform(0.5, 4)
            z = 0.8 * math.sqrt(RNG.uniform()) * cmath.exp(1j * RNG.uniform(-3, 3))
            got = hyp2f1_series(a, b, c, z)
            want = longdouble_series(a, b, c, z)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want))

    def test_symmetry_in_first_two_parameters(self):
        for _ in range(100):
            a, b = RNG.uniform(-3, 3, size=2)
            c = RNG.uniform(0.5, 4)
            z = 0.9 * math.sqrt(RNG.uniform()) * cmath.exp(1j * RNG.uniform(-3, 3))
            f1 = hyp2f1(HypParams(a, b, c, z))
            f2 = hyp2f1(HypParams(b, a, c, z))
            assert abs(f1 - f2) <= 1e-12 * max(1.0, abs(f1))

    def test_terminating_series_is_polynomial(self):
        # alpha = -2 terminates: F(-2, b; c; z) has three terms
        a, b, c, z = -2.0, 1.7, 2.1, 0.95 + 0j  # |z| < 1 keeps the precondition
        expected = 1 + (a * b / c) * z + (a * (a + 1) * b * (b + 1) / (c * (c + 1) * 2)) * z**2
        assert hyp2f1_series(a, b, c, z) == pytest.approx(expected, rel=1e-14)

    def test_gamma_pole_rejected(self):
        for gamma in (0.0, -1.0, -3.0):
            with pytest.raises(DomainError):
                HypParams(0.5, 0.5, gamma, 0.1)
        HypParams(0.5, 0.5, -1.5, 0.1)  # non-integer negatives are fine

    def test_series_domain_limit(self):
        with pytest.raises(DomainError):
            hyp2f1(HypParams(0.5, 0.3, 1.2, 1.0 + 0j))
        # degenerate route has no |z| < 1 restriction
        assert hyp2f1(HypParams(2.0, 1.0, 1.0, 3.0 + 0j)) == pytest.approx(0.25)

    def test_convergence_budget(self):
        with pytest.raises(ConvergenceError):
            hyp2f1_series(2.0, 3.0, 0.5, 0.999999 + 0j)


class TestHyp2f1Derivatives:
    def test_first_coefficient_at_zero(self):
        p = HypParams(0.7, -1.2, 1.9, 0.0)
        assert hyp2f1_deriv(p, 1) == pytest.approx(0.7 * -1.2 / 1.9)

    def test_degenerate_first_derivative(self):
        # d/dz (1-z)^(-1/2) = (1/2)(1-z)^(-3/2)
        p = HypParams(0.5, 1.0, 1.0, 0.5)
        assert hyp2f1_deriv(p, 1) == pytest.approx(math.sqrt(2))

    def test_against_central_difference(self):
        h = 1e-5
        for _ in range(20):
            a, b = RNG.uniform(-2, 2, size=2)
            c = RNG.uniform(0.5, 4)
            z = 0.5 * math.sqrt(RNG.uniform()) * cmath.exp(1j * RNG.uniform(-3, 3))
            exact = hyp2f1_deriv(HypParams(a, b, c, z), 1)
            d_h = (hyp2f1(HypParams(a, b, c, z + h)) - hyp2f1(HypParams(a, b, c, z - h))) / (2 * h)
            d_h2 = (hyp2f1(HypParams(a, b, c, z + h / 2)) - hyp2f1(HypParams(a, b, c, z - h / 2))) / h
            richardson = (4 * d_h2 - d_h) / 3
            assert abs(exact - richardson) <= 1e-6 * max(1.0, abs(exact))

    def test_bad_order_rejected(self):
        with pytest.raises(DomainError):
            hyp2f1_deriv(HypParams(0.5, 0.5, 1.5, 0.1), 3)


class TestBinomialIdentity:
    def test_alpha_zero_is_exact(self):
        assert check_binomial_identity(0.0, 1.7, 0.3 + 0.2j) == 0.0

    def test_near_radius_edge(self):
        assert check_binomial_identity(2.0, 3.0, 0.9) <= 1e-10

    def test_complex_argument(self):
        assert check_binomial_identity(-2.0, 1.5, 0.3 + 0.4j) <= 1e-10

    def test_random_draws(self):
        for _ in range(200):
            alpha = RNG.uniform(-3, 3)
            gamma = RNG.uniform(0.5, 4)
            z = 0.9 * math.sqrt(RNG.uniform()) * cmath.exp(1j * RNG.uniform(-3, 3))
            assert check_binomial_identity(alpha, gamma, z) <= 1e-10

    def test_radius_precondition(self):
        with pytest.raises(DomainError):
            check_binomial_identity(1.0, 1.0, 1.2)
