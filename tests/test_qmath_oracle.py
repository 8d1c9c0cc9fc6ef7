"""The special functions against mpmath at 50 digits, on seeded points of
each function's domain: the two deformed exponentials, ``cpow_principal``,
``hyp2f1`` on both of its routes, ``hyp2f1_series`` and the first two
z-derivatives of ``hyp2f1_deriv``.

Each bound is on the forward error of one evaluation in double precision:
relative for the deformed exponentials, and otherwise a multiple of the
unit roundoff u = 2**-53 times the condition of the evaluation: for a
power exp(e*Log b), 1 + |e*Log b|, the size of the exponent whose
rounding exp amplifies; for a series, the sum of the absolute values of
its terms, which bounds what its rounding can reach.
"""

import cmath
import math
import random

import mpmath
import pytest

from qnlse.errors import DomainError
from qnlse.qmath import (
    HypParams,
    cpow_principal,
    hyp2f1,
    hyp2f1_deriv,
    hyp2f1_series,
    q_exp,
    q_exp_real_cutoff,
)

U = 2.0 ** -53

# Relative forward error of both deformed exponentials at |q - 1| from
# 1e-2 down to 1e-8, |x| and each part of z at most 2.  The worst seen is
# 5.6e-16.  Taken as [1 + (q-1)z]**(1/(1-q)), the bracket's rounding is
# amplified by 1/|q - 1|: the worst errors were 9.3e-15, 1.1e-12, 1.1e-10
# and 8.9e-9 on these draws, so that form fails the bound at every row.
Q_EXP_BOUND = 2e-15
# The worst seen is 1.5 u for a power and 8.1 u for a series (of a first
# derivative), each times its condition: the nth term of a series carries
# the rounding of the n products that formed it.
POWER_UNITS = 4
SERIES_UNITS = 32


def rel_error(got: complex, exact) -> float:
    return float(abs(mpmath.mpc(got) - exact) / abs(exact))


def abs_series(a: float, b: float, c: float, z: complex) -> float:
    """The sum of |(a)_n (b)_n / ((c)_n n!) z**n| over n, the condition of
    summing the series (less than 1e-17 of it is left out)."""
    term = total = 1.0
    n = 0
    while term > 1e-17 * total:
        term *= abs((a + n) * (b + n) / ((c + n) * (n + 1)) * z)
        total += term
        n += 1
    return total


def draw_z(rng, radius=0.9) -> complex:
    return radius * math.sqrt(rng.random()) * cmath.exp(1j * rng.uniform(-math.pi, math.pi))


def series_draws(seed, n=40):
    """(alpha, beta, gamma, z): the verify suites' series domain."""
    rng = random.Random(seed)
    return [(rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0), rng.uniform(0.5, 4.0), draw_z(rng))
            for _ in range(n)]


@pytest.mark.parametrize("delta", [1e-2, 1e-4, 1e-6, 1e-8])
def test_deformed_exponentials_match_mpmath_near_q_one(delta):
    rng = random.Random(f"q-exp:{delta}")
    with mpmath.workdps(50):
        for _ in range(50):
            q = 1.0 + rng.choice((-1.0, 1.0)) * delta * rng.uniform(1.0, 2.0)
            x = rng.uniform(-2.0, 2.0)
            z = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            exact_x = mpmath.power(1 + (mpmath.mpf(q) - 1) * x, 1 / (1 - mpmath.mpf(q)))
            exact_z = mpmath.exp(mpmath.log(1 + (mpmath.mpf(q) - 1) * mpmath.mpc(z))
                                 / (1 - mpmath.mpf(q)))
            assert rel_error(q_exp_real_cutoff(q, x), exact_x) <= Q_EXP_BOUND
            assert rel_error(q_exp(q, z), exact_z) <= Q_EXP_BOUND


# Points where (q-1)x overflows a double, on both sides of q = 1.  The
# exponent E = Log(bracket)/(1-q) is formed within a few units of its last
# place, and exp passes that on times |E|.
OVERFLOWING_BRACKETS = [(-1e300, -1e300), (1e200, 1e200), (-1.0, -1.7976931348623157e308),
                        (3.0, 1e308), (3.0, complex(1e308, 1e308)), (3.0, complex(-1e308)),
                        (-1.0, complex(0.0, -1e308)), (1e200, complex(-1e200, 1.0))]


@pytest.mark.parametrize("q, x", OVERFLOWING_BRACKETS)
def test_deformed_exponentials_match_mpmath_where_the_bracket_overflows(q, x):
    with mpmath.workdps(30):
        exact = mpmath.exp(mpmath.log(1 + (mpmath.mpf(q) - 1) * mpmath.mpmathify(x))
                           / (1 - mpmath.mpf(q)))
        bound = Q_EXP_BOUND + 4 * U * float(abs(mpmath.log(exact)))
        assert rel_error(q_exp(q, x), exact) <= bound
        if isinstance(x, float):
            assert rel_error(q_exp_real_cutoff(q, x), exact) <= bound


def test_q_exp_keeps_the_cut_on_the_upper_side():
    # at q = 1.4 and z = -5 the bracket is -1 and the exponent -2.5: on the
    # upper side of the cut (-1)**-2.5 is exp(-2.5i*pi) = -i, whichever the
    # sign of the zero on z's imaginary part
    for z in (complex(-5.0, 0.0), complex(-5.0, -0.0)):
        assert q_exp(1.4, z) == pytest.approx(-1j, abs=1e-14)


def test_cpow_principal_matches_mpmath():
    rng = random.Random("cpow")
    with mpmath.workdps(50):
        for _ in range(100):
            base = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
            e = complex(rng.uniform(-3.0, 3.0), rng.uniform(-1.0, 1.0))
            cond = 1.0 + abs(e * cmath.log(base))
            exact = mpmath.power(mpmath.mpc(base), mpmath.mpc(e))
            assert rel_error(cpow_principal(base, e), exact) <= POWER_UNITS * U * cond


HUGE = 1.7976931348623157e308


def test_cpow_principal_is_zero_where_the_phase_overflows_and_the_modulus_underflows():
    # e*Log(0.5j) = -1.2e308 + i*inf: exp(-1.2e308) rounds to 0 at any phase
    with mpmath.workdps(30):
        exact = mpmath.power(mpmath.mpc(0.5j), mpmath.mpf(HUGE))
        assert abs(exact) < mpmath.mpf("1e-1000") and complex(exact) == 0j
    assert cpow_principal(0.5j, HUGE) == 0j


@pytest.mark.parametrize("power", [
    lambda: cpow_principal(-1.0, HUGE),
    lambda: hyp2f1(HypParams(-HUGE, 0.999999999999, 0.999999999999, 2.0)),  # (1 - 2)**HUGE
], ids=["cpow_principal", "hyp2f1"])
def test_cpow_principal_refuses_a_unit_modulus_whose_phase_overflows(power):
    # e*Log(-1) = i*inf: the modulus is 1, so only the phase could place the value
    with mpmath.workdps(30):
        assert abs(mpmath.power(mpmath.mpc(-1.0), mpmath.mpf(HUGE))) == 1
    with pytest.raises(DomainError, match=r"^the phase of a complex power overflowed \("):
        power()


def test_hyp2f1_power_route_matches_mpmath():
    # beta == gamma: (1 - z)**(-alpha), off the cut [1, inf), |z| past 1 too
    rng = random.Random("hyp2f1-power")
    with mpmath.workdps(50):
        for _ in range(40):
            a, c = rng.uniform(-3.0, 3.0), rng.uniform(0.5, 4.0)
            z = complex(rng.uniform(-3.0, 0.9), rng.uniform(-2.0, 2.0))
            cond = 1.0 + abs(a * cmath.log(1.0 - z))
            exact = mpmath.hyp2f1(a, c, c, z)
            assert rel_error(hyp2f1(HypParams(a, c, c, z)), exact) <= POWER_UNITS * U * cond


def test_hyp2f1_series_and_its_route_match_mpmath():
    with mpmath.workdps(50):
        for a, b, c, z in series_draws("hyp2f1-series"):
            exact = mpmath.hyp2f1(a, b, c, z)
            bound = SERIES_UNITS * U * abs_series(a, b, c, z)
            for got in (hyp2f1_series(a, b, c, z), hyp2f1(HypParams(a, b, c, z))):
                assert float(abs(mpmath.mpc(got) - exact)) <= bound


@pytest.mark.parametrize("order", [1, 2])
def test_hyp2f1_deriv_matches_mpmath(order):
    # d^n/dz^n F(a, b; c; z) = (a)_n (b)_n / (c)_n F(a+n, b+n; c+n; z) (DLMF 15.5.2),
    # with F summed by mpmath
    with mpmath.workdps(50):
        for a, b, c, z in series_draws(f"hyp2f1-deriv-{order}"):
            coeff = mpmath.rf(a, order) * mpmath.rf(b, order) / mpmath.rf(c, order)
            exact = coeff * mpmath.hyp2f1(a + order, b + order, c + order, z)
            bound = (SERIES_UNITS * U * float(abs(coeff))
                     * abs_series(a + order, b + order, c + order, z))
            got = hyp2f1_deriv(HypParams(a, b, c, z), order)
            assert float(abs(mpmath.mpc(got) - exact)) <= bound
