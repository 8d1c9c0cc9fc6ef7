"""The ``qmath`` contract: each public function returns finite values or
raises a ``QnlseError``, and warns of nothing, whatever floats it is
given: finite, non-finite, zero, negative or huge."""

import cmath
import math
import warnings

from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnlse.errors import QnlseError
from qnlse.qmath import (
    HypParams,
    check_binomial_identity,
    cpow_principal,
    hyp2f1,
    hyp2f1_deriv,
    hyp2f1_series,
    q_exp,
    q_exp_real_cutoff,
)

HUGE = 1.7976931348623157e308
INF, NAN = math.inf, math.nan
EDGES = [0.0, -0.0, 1.0, -1.0, 0.5, -0.5, 2.0, 1e-300, -1e-300, 1e200, -1e200, 1e300, -1e300,
         HUGE, -HUGE, INF, -INF, NAN]

reals = st.sampled_from(EDGES) | st.floats()
complexes = st.builds(complex, reals, reals)
# |z| < 1 passes the series' first check, so the other arguments are reached
small = st.builds(complex, st.floats(-0.7, 0.7), st.floats(-0.7, 0.7)) | complexes


def finite_or_refused(call, *args):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            value = call(*args)
        except QnlseError:
            return
    assert cmath.isfinite(value), f"{call.__name__}{args} = {value!r}"


def hyp2f1_of(alpha, beta, gamma, z):
    return hyp2f1(HypParams(alpha, beta, gamma, z))


def hyp2f1_deriv_of(alpha, beta, gamma, z, order):
    return hyp2f1_deriv(HypParams(alpha, beta, gamma, z), order)


@settings(max_examples=200, deadline=None)
@given(q=reals, z=complexes)
@example(q=1.0, z=complex(-1e300))  # overflow at q = 1
@example(q=1.0, z=complex(0, INF))
@example(q=1e200, z=complex(1e200))  # (q-1)z overflows
@example(q=-1e300, z=complex(-1e300))
@example(q=0.0, z=complex(HUGE, HUGE))  # abs((q-1)z) overflows
def test_q_exp(q, z):
    finite_or_refused(q_exp, q, z)


@settings(max_examples=200, deadline=None)
@given(q=reals, x=reals)
@example(q=1.0, x=-1e300)  # overflow at q = 1
@example(q=-1e300, x=-1e300)  # (q-1)x overflows
@example(q=1e200, x=1e200)
@example(q=-1.0, x=-HUGE)
def test_q_exp_real_cutoff(q, x):
    finite_or_refused(q_exp_real_cutoff, q, x)


@settings(max_examples=200, deadline=None)
@given(base=complexes, exponent=complexes)
@example(base=0.5j, exponent=complex(HUGE))  # the exponent's imaginary part overflows
def test_cpow_principal(base, exponent):
    finite_or_refused(cpow_principal, base, exponent)


@settings(max_examples=200, deadline=None)
@given(alpha=reals, beta=reals, gamma=reals, z=small)
@example(alpha=-HUGE, beta=0.999999999999, gamma=0.999999999999, z=2.0 + 0j)
@example(alpha=1.5, beta=3.0, gamma=0.5, z=complex(HUGE, HUGE))  # abs(z) overflows
def test_hyp2f1(alpha, beta, gamma, z):
    finite_or_refused(hyp2f1_of, alpha, beta, gamma, z)


@settings(max_examples=200, deadline=None)
@given(alpha=reals, beta=reals, gamma=reals, z=small)
@example(alpha=1.0, beta=-1.0, gamma=NAN, z=0.5j)  # math.floor(nan)
@example(alpha=1.0, beta=0.0, gamma=-INF, z=0j)  # math.floor(-inf)
@example(alpha=1.0, beta=0.5, gamma=1.5, z=complex(HUGE, HUGE))  # abs(z) overflows
# the second term has finite parts and a modulus past the largest double
@example(alpha=1.0, beta=2.17e154, gamma=1.0, z=complex(0.831491579260158, 0.3444150891285808))
def test_hyp2f1_series(alpha, beta, gamma, z):
    finite_or_refused(hyp2f1_series, alpha, beta, gamma, z)


@settings(max_examples=200, deadline=None)
@given(alpha=reals, beta=reals, gamma=reals, z=small, order=st.sampled_from([1, 2]))
@example(alpha=1e300, beta=-1.0, gamma=0.9, z=0j, order=2)  # inf * 0 in the coefficient
@example(alpha=2.0, beta=1.000000000001, gamma=5e-324, z=complex(-1e-300), order=2)  # 1/gamma
def test_hyp2f1_deriv(alpha, beta, gamma, z, order):
    finite_or_refused(hyp2f1_deriv_of, alpha, beta, gamma, z, order)


@settings(max_examples=200, deadline=None)
@given(alpha=reals, gamma=reals, z=small)
@example(alpha=1e300, gamma=-1.0, z=complex(HUGE, HUGE))  # abs(z) overflows
@example(alpha=0.5, gamma=NAN, z=0.5j)  # math.floor(nan)
def test_check_binomial_identity(alpha, gamma, z):
    finite_or_refused(check_binomial_identity, alpha, gamma, z)
