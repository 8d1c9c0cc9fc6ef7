"""The scalar RK4 of the separated factors against the generic form it
replaced: the same trajectories, bit for bit, and the same errors."""

import cmath
import math
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnlse import integrators
from qnlse.errors import DomainError, PropagationError
from qnlse.solutions import SolutionKind

# ---------------------------------------------------------------------------
# the oracle: RK4 through a generic y + a*k helper, and the tracked power
# with a phase-step method
# ---------------------------------------------------------------------------


def _axpy(y, a, k):
    """y + a*k for a number, an ndarray, or componentwise for a tuple."""
    if type(y) is tuple:
        return tuple(yi + a * ki for yi, ki in zip(y, k))
    return y + a * k


def _finite(y):
    if isinstance(y, np.ndarray):
        return bool(np.isfinite(y).all())
    return all(map(cmath.isfinite, y if type(y) is tuple else (y,)))


def oracle_rk4_step(state, rhs, t, dt):
    try:
        k1 = rhs(t, state)
        k2 = rhs(t + 0.5 * dt, _axpy(state, 0.5 * dt, k1))
        k3 = rhs(t + 0.5 * dt, _axpy(state, 0.5 * dt, k2))
        k4 = rhs(t + dt, _axpy(state, dt, k3))
    except OverflowError as err:
        raise PropagationError(f"RK4 step dt={dt} at t={t} overflowed: {err}") from err
    slope = _axpy(_axpy(_axpy(k1, 2.0, k2), 2.0, k3), 1.0, k4)  # k1 + 2 k2 + 2 k3 + k4
    new = _axpy(state, dt / 6.0, slope)
    if not _finite(new):
        raise PropagationError(f"RK4 step dt={dt} at t={t} produced a non-finite value")
    return new


class OracleTrackedPower:
    def __init__(self, initial):
        self.theta = cmath.phase(initial)

    def _phase_step(self, value):
        d = cmath.phase(value) - self.theta
        d -= 2.0 * math.pi * round(d / (2.0 * math.pi))
        return d

    def __call__(self, value, s):
        r = abs(value)
        if r == 0.0:
            raise DomainError("trajectory value reached zero (fractional power undefined)")
        if s == 1.0:
            return value
        if not math.isfinite(r):
            raise OverflowError(f"trajectory value {value} is not finite")
        ang = s * (self.theta + self._phase_step(value))
        return r**s * complex(math.cos(ang), math.sin(ang))

    def advance(self, value):
        self.theta += self._phase_step(value)


@contextmanager
def oracle_integrators():
    with mock.patch.object(integrators, "rk4_step", oracle_rk4_step), \
            mock.patch.object(integrators, "_TrackedPower", OracleTrackedPower):
        yield


def outcome(fn, *args):
    """The result of a call, or the type and message of what it raised."""
    try:
        return "ok", fn(*args)
    except (DomainError, PropagationError, OverflowError) as err:
        return type(err), str(err)


def assert_same(result, expected):
    assert result == expected
    assert repr(result) == repr(expected)  # signed zeros too


# ---------------------------------------------------------------------------
# whole trajectories
# ---------------------------------------------------------------------------

admissible_q = st.one_of(st.floats(0.05, 1.95), st.sampled_from([0.5, 1.0, 1.5]))


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(list(SolutionKind)), q=admissible_q,
       lam=st.one_of(st.floats(0.1, 5.0), st.floats(5.0, 500.0)),
       span=st.floats(0.01, 3.0), negative=st.booleans(),
       step=st.one_of(st.floats(0.01, 0.1), st.floats(0.1, 1.5)),
       space=st.booleans())
def test_separated_trajectories_keep_the_oracle_bits(kind, q, lam, span, negative, step, space):
    if negative:
        span = -span
    if space:
        fn, args = integrators.integrate_separated_space, (kind, q, lam, 0.7, 1.0, span, step)
    else:
        fn, args = integrators.integrate_separated_time, (kind, q, lam, 1.0, span, step)
    with oracle_integrators():
        expected = outcome(fn, *args)
    assert_same(outcome(fn, *args), expected)


@pytest.mark.parametrize("fn, args, ending", [
    (integrators.integrate_separated_time, (SolutionKind.NRT, 0.5, 1.3, 1.0, -1.0, 0.05), "ok"),
    (integrators.integrate_separated_time, (SolutionKind.NEW, 0.5, 400.0, 1.0, 8.0, 0.05),
     "overflowed"),
    (integrators.integrate_separated_space, (SolutionKind.NRT, 1.5, 400.0, 0.7, 1.0, -8.0, 1.0),
     "overflowed"),
    (integrators.integrate_separated_space, (SolutionKind.NEW, 1.9, 40.0, 0.7, 1.0, 8.0, 1.0),
     "non-finite"),
])
def test_separated_trajectories_end_as_the_oracle_ends(fn, args, ending):
    with oracle_integrators():
        expected = outcome(fn, *args)
    result = outcome(fn, *args)
    assert_same(result, expected)
    assert result[0] == "ok" if ending == "ok" else ending in result[1]


def test_nrt_space_map_back_overflow_is_a_propagation_error():
    # the step itself is finite; mapping u back to g = u^(1/(2-q)) overflows
    with pytest.raises(PropagationError, match=r"^space factor overflowed at x=1.0: "):
        integrators.integrate_separated_space(SolutionKind.NRT, 1.78125, 52.0, 0.7, 1.0,
                                              1.0, 0.5)


# ---------------------------------------------------------------------------
# single steps, with zero, huge and non-finite states
# ---------------------------------------------------------------------------

parts = st.one_of(st.floats(-3.0, 3.0),
                  st.sampled_from([0.0, -0.0, 1e308, -1e308, 1e200, math.inf, -math.inf,
                                   math.nan]))
values = st.builds(complex, parts, parts)


@settings(max_examples=300, deadline=None)
@given(state=values, slope=values, s=st.sampled_from([1.0, 0.5, 1.5, 2.7]),
       c=st.sampled_from([1j, -2.5j, 1e300 + 1e300j]), t=st.floats(-2.0, 2.0),
       dt=st.one_of(st.floats(1e-4, 2.0), st.floats(-2.0, -1e-4)), pair=st.booleans())
def test_single_steps_raise_what_the_oracle_raises(state, slope, s, c, t, dt, pair):
    def run(step, tracker_cls):
        tracker = tracker_cls(1.0)
        if pair:
            return outcome(step, (state, slope), lambda _x, y: (y[1], c * tracker(y[0], s)),
                           t, dt)
        return outcome(step, state, lambda _t, y: c * tracker(y, s), t, dt)

    assert_same(run(integrators.rk4_step, integrators._TrackedPower),
                run(oracle_rk4_step, OracleTrackedPower))


def test_array_step_keeps_the_oracle_bits():
    y = np.array([1 + 2j, -0.5j, -0.0 + 0j, 3.0])
    for rhs in (lambda t, v: 1j * v, lambda t, v: v * v * 1e155):
        with np.errstate(over="ignore", invalid="ignore"):
            result = outcome(integrators.rk4_step, y, rhs, 0.25, 0.5)
            expected = outcome(oracle_rk4_step, y, rhs, 0.25, 0.5)
        assert result[0] == expected[0]
        if result[0] == "ok":
            assert result[1].tobytes() == expected[1].tobytes()
        else:
            assert result[1] == expected[1]
