"""The method-of-lines RK4 kernel against closed forms and its linear path."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnlse import _kernels
from qnlse.errors import PropagationError
from qnlse.integrators import GridSpec, interior_linf_error, manufactured_field, propagate, sample_field
from qnlse.solutions import FreeParticleSpec, SolutionKind, marched_form


def test_march_matches_closed_form():
    spec = FreeParticleSpec(q=1.2)
    exact = manufactured_field(SolutionKind.NEW, spec)
    grid = GridSpec(-3.0, 3.0, 121, 5e-5, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        frames = propagate(SolutionKind.NEW, sample_field(exact, grid, 0.0), spec.q,
                           spec.m, spec.hbar, boundary=exact)
    assert interior_linf_error(frames[-1], exact) < 1e-5


def test_unit_power_shortcut_keeps_linear_path_exact():
    # s = 1 must bypass the magnitude/angle round trip entirely
    n = 9
    v0 = (np.linspace(1, 2, n) + 1j * np.linspace(-1, 1, n)).astype(np.complex128)
    th0 = np.angle(v0)
    pot = np.zeros(n)
    bl = np.ones((1, 3), dtype=np.complex128) * v0[0]
    br = np.ones((1, 3), dtype=np.complex128) * v0[-1]
    frames = _kernels.propagate_frames(v0, th0, 1.0, -1j, -1.0, 1.0, pot, 0.0, 1, bl, br)
    # dt = 0 keeps the interior exactly equal to the initial values
    assert np.array_equal(frames[1][1:-1], v0[1:-1])


# ---------------------------------------------------------------------------
# the buffered kernel against the expression form it replaced
# ---------------------------------------------------------------------------


def expression_form_frames(v0, th0, s, cinv, kappa, dxinv2, pot, dt, n_steps, bl, br):
    """The RK4 march written as whole-array expressions, one temporary per
    operation: the reference whose bits and errors the buffered kernel
    must keep."""
    two_pi = 2.0 * math.pi

    def phase_step(y, theta):
        d = np.angle(y) - theta
        d -= two_pi * np.round(d / two_pi)
        return d

    def tracked_power(y, theta):
        if s == 1.0:
            return y.copy()
        r = np.abs(y)
        if np.any(r == 0.0):
            return None
        ang = s * (theta + phase_step(y, theta))
        return r**s * (np.cos(ang) + 1j * np.sin(ang))

    def rhs(y, theta):
        w = tracked_power(y, theta)
        if w is None:
            return None
        out = np.zeros_like(y)
        lap = (w[2:] - 2.0 * w[1:-1] + w[:-2]) * dxinv2
        out[1:-1] = (kappa * lap + pot[1:-1] * w[1:-1]) * cinv
        return out

    theta = np.array(th0, dtype=np.float64)
    frames = np.empty((n_steps + 1, v0.shape[0]), dtype=np.complex128)
    y = v0.copy()
    frames[0, :] = y

    def fail(reason, step, index=0):
        raise PropagationError(f"field value became {reason} at step {step}, index {index}")

    for step in range(n_steps):
        y[0], y[-1] = bl[step, 0], br[step, 0]
        k1 = rhs(y, theta)
        if k1 is None:
            fail("zero", step)
        stage = y + 0.5 * dt * k1
        stage[0], stage[-1] = bl[step, 1], br[step, 1]
        k2 = rhs(stage, theta)
        if k2 is None:
            fail("zero", step)
        stage = y + 0.5 * dt * k2
        stage[0], stage[-1] = bl[step, 1], br[step, 1]
        k3 = rhs(stage, theta)
        if k3 is None:
            fail("zero", step)
        stage = y + dt * k3
        stage[0], stage[-1] = bl[step, 2], br[step, 2]
        k4 = rhs(stage, theta)
        if k4 is None:
            fail("zero", step)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y[0], y[-1] = bl[step, 2], br[step, 2]
        finite = np.isfinite(y.real) & np.isfinite(y.imag)
        if not np.all(finite):
            fail("non-finite", step, int(np.argmin(finite)))
        zero = y == 0
        if np.any(zero):
            fail("zero", step, int(np.argmax(zero)))
        theta += phase_step(y, theta)
        frames[step + 1, :] = y
    return frames


def march_outcome(march, args):
    """The frame bytes of a clean march, or the type and message of its error."""
    try:
        return "ok", march(*args).tobytes()
    except PropagationError as err:
        return type(err), str(err)


def assert_same_march(args):
    outcome = march_outcome(_kernels.propagate_frames, args)
    assert outcome == march_outcome(expression_form_frames, args)
    return outcome


components = st.one_of(st.floats(-3.0, 3.0), st.sampled_from([0.0, -0.0, 1.0, -1.0]))
nonzero_components = st.one_of(st.floats(0.05, 3.0), st.floats(-3.0, -0.05))


def complex_array(draw, shape, parts):
    size = int(np.prod(shape))
    out = np.empty(size, dtype=np.complex128)
    out.real = draw(st.lists(parts, min_size=size, max_size=size))
    out.imag = draw(st.lists(parts, min_size=size, max_size=size))
    return out.reshape(shape)


@st.composite
def kernel_args(draw):
    n = draw(st.integers(3, 33))
    n_steps = draw(st.integers(0, 6))
    s = draw(st.one_of(st.just(1.0), st.floats(0.3, 3.0, exclude_min=True, exclude_max=True)))
    v0 = complex_array(draw, (n,), components)
    th0 = np.unwrap(np.angle(v0)) + 2.0 * math.pi * draw(st.integers(-2, 2))
    if draw(st.booleans()):
        pot = np.zeros(n)
    else:
        pot = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    cinv = -1j / draw(st.floats(0.2, 2.0))
    kappa = -draw(st.floats(0.1, 2.0))
    dxinv2 = draw(st.floats(1.0, 400.0))
    dt = draw(st.floats(1e-6, 1e-3))
    bl = complex_array(draw, (n_steps, 3), nonzero_components)
    br = complex_array(draw, (n_steps, 3), nonzero_components)
    return v0, th0, s, cinv, kappa, dxinv2, pot, dt, n_steps, bl, br


@settings(max_examples=100, deadline=None)
@given(kernel_args())
def test_buffered_kernel_keeps_the_expression_form_bits(args):
    assert_same_march(args)


def test_buffered_kernel_keeps_powers_with_numpy_shortcuts():
    # r**0.5 and r**2 take numpy's sqrt and square shortcuts
    n = 12
    v0 = np.exp(1j * np.linspace(-4.0, 4.0, n)) * np.linspace(1.0, 2.0, n)
    bl = np.full((4, 3), v0[0])
    br = np.full((4, 3), v0[-1])
    for s in (0.5, 2.0):
        outcome = assert_same_march((v0, np.unwrap(np.angle(v0)), s, -1j, -0.5, 100.0,
                                     np.zeros(n), 1e-4, 4, bl, br))
        assert outcome[0] == "ok"


def assert_march_fails(args, message):
    with pytest.raises(PropagationError, match=f"^field value became {message}$"):
        _kernels.propagate_frames(*args)
    assert_same_march(args)


def test_failing_marches_stop_where_the_expression_form_stops():
    n = 9
    v0 = (np.linspace(1.0, 2.0, n) + 1j * np.linspace(-1.0, 1.0, n)).astype(np.complex128)
    th0 = np.angle(v0)
    bl = np.full((5, 3), v0[0])
    br = np.full((5, 3), v0[-1])

    zero_end = br.copy()
    zero_end[2, 2] = 0.0  # the state at the end of step 2 vanishes at the last point
    assert_march_fails((v0, th0, 1.0, -1j, -0.5, 10.0, np.zeros(n), 1e-3, 5, bl, zero_end),
                       f"zero at step 2, index {n - 1}")

    zero_stage = bl.copy()
    zero_stage[1, 1] = 0.0  # a half-step stage of step 1 has no fractional power
    assert_march_fails((v0, th0, 0.8, -1j, -0.5, 10.0, np.zeros(n), 1e-3, 5, zero_stage, br),
                       "zero at step 1, index 0")

    nan_stage = bl.copy()
    nan_stage[1, 1] = complex(0.0, math.nan)  # a nan stage value, but not a zero one
    for s in (1.0, 0.8):
        assert_march_fails((v0, th0, s, -1j, -0.5, 10.0, np.zeros(n), 1e-3, 5, nan_stage, br),
                           "non-finite at step 1, index 1")

    huge = v0.copy()
    huge[6] = 1e308  # the Laplacian overflows, and each of the four stages widens it by a point
    assert_march_fails((huge, np.angle(huge), 1.0, -1j, -0.5, 10.0, np.ones(n), 1e-3, 5, bl, br),
                       "non-finite at step 0, index 2")


# ---------------------------------------------------------------------------
# branch tracking and the linear step
# ---------------------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from([SolutionKind.NEW, SolutionKind.NRT]),
       q=st.one_of(st.floats(0.85, 0.97), st.floats(1.03, 1.2)),
       p=st.floats(1.0, 2.0), t=st.floats(0.0, 0.5), dt=st.floats(1e-6, 1e-3))
def test_tracked_power_follows_the_continuous_log_past_pi(kind, q, p, t, dt):
    spec = FreeParticleSpec(q=q, p=p)
    field = manufactured_field(kind, spec)
    s, _ = marched_form(kind, q)
    xs = np.linspace(-10.0, 10.0, 201)
    log_before, log_after = field.log_value(xs, t), field.log_value(xs, t + dt)
    assert np.max(np.abs(log_after.imag)) > math.pi  # the field winds past the cut
    y = np.exp(log_after)
    theta = log_before.imag
    n = xs.size
    ang, tmp, r = np.empty(n), np.empty(n), np.empty(n)
    step = _kernels._phase_step(y, theta, ang, tmp)
    assert np.max(np.abs(theta + step - log_after.imag)) <= 1e-12 * np.max(np.abs(log_after.imag))
    w = _kernels._tracked_power(y, theta, s, np.empty(n, dtype=np.complex128), r, ang, tmp)
    exact = np.exp(s * log_after)
    assert np.max(np.abs(w - exact) / np.abs(exact)) <= 1e-12
    # the principal branch is off by a finite phase wherever |arg y| wound past pi
    assert np.max(np.abs(y**s - exact) / np.abs(exact)) > 1e-3


@st.composite
def linear_steps(draw):
    n = draw(st.integers(3, 33))
    v0 = complex_array(draw, (n,), nonzero_components)
    pot = np.zeros(n) if draw(st.booleans()) else np.array(
        draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    cinv = -1j / draw(st.floats(0.2, 2.0))
    kappa = -draw(st.floats(0.1, 2.0))
    dxinv2 = draw(st.floats(1.0, 400.0))
    dt = draw(st.floats(1e-6, 1e-3))
    bl = complex_array(draw, (1, 3), nonzero_components)
    br = complex_array(draw, (1, 3), nonzero_components)
    return v0, cinv, kappa, dxinv2, pot, dt, bl, br


@settings(max_examples=50, deadline=None)
@given(linear_steps())
def test_unit_power_step_is_the_linear_schroedinger_rk4_step(case):
    v0, cinv, kappa, dxinv2, pot, dt, bl, br = case
    n = v0.size
    frames = _kernels.propagate_frames(v0, np.angle(v0), 1.0, cinv, kappa, dxinv2, pot, dt,
                                       1, bl, br)
    # the RHS is cinv * (kappa * D2 + diag(pot)) on the interior rows;
    # the end rows are zero, since the ends are Dirichlet values
    d2 = np.zeros((n, n))
    for i in range(1, n - 1):
        d2[i, i - 1:i + 2] = (dxinv2, -2.0 * dxinv2, dxinv2)
    h = kappa * d2 + np.diag(pot)
    h[[0, -1]] = 0.0
    a = cinv * h

    def with_ends(v, j):
        v = v.copy()
        v[0], v[-1] = bl[0, j], br[0, j]
        return v

    y = with_ends(v0, 0)
    k1 = a @ y
    k2 = a @ with_ends(y + 0.5 * dt * k1, 1)
    k3 = a @ with_ends(y + 0.5 * dt * k2, 1)
    k4 = a @ with_ends(y + dt * k3, 2)
    expected = with_ends(y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4), 2)
    scale = max(np.max(np.abs(v)) for v in (y, k1 * dt, k2 * dt, k3 * dt, k4 * dt))
    spread = 1.0 + dt * abs(cinv) * (4.0 * abs(kappa) * dxinv2 + np.max(np.abs(pot)))
    assert np.max(np.abs(frames[1] - expected)) <= 64 * np.finfo(float).eps * scale * spread
