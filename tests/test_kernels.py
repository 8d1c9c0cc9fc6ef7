"""The method-of-lines RK4 kernel against closed forms and its linear path."""

import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qnlse import _kernels
from qnlse.errors import PropagationError
from qnlse.integrators import (Frame, GridSpec, interior_linf_error, manufactured_field, propagate,
                               sample_field)
from qnlse.solutions import FreeParticleSpec, SolutionKind, marched_form

EPS = np.finfo(np.float64).eps


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


def binomial_series(eps, s):
    """The stage series of (1 + eps)**s: its terms to eps**SERIES_ORDER,
    summed by Horner's rule as whole-array expressions."""
    coeffs = [complex(c) for c in _kernels.binomial_coefficients(s)]
    total = coeffs[-1] * eps + coeffs[-2]
    for c in coeffs[-3::-1]:
        total = total * eps + c
    return total


# the reference marches, like the kernel, raise at a failing step without numpy's warnings
QUIET = np.errstate(over="ignore", invalid="ignore", divide="ignore")


@QUIET
def expression_form_frames(v0, th0, s, cinv, kappa, dxinv2, pot, dt, n_steps, bl, br,
                           series=True):
    """The RK4 march written as whole-array expressions, one temporary per
    operation: the reference whose bits and errors the buffered kernel
    must keep.  With ``series=False`` every power is the tracked power,
    the anchor's at every step: the all-tracked march, a tolerance
    reference of the s != 1 frames."""
    two_pi = 2.0 * math.pi
    limit = _kernels.series_radius(s) * math.sqrt(0.5)
    c = kappa * dxinv2 * cinv
    pot_term = pot[1:-1] / (kappa * dxinv2)

    def phase_step(y, theta):
        d = np.angle(y) - theta
        d -= two_pi * np.round(d / two_pi)
        return d

    def tracked_power(y, theta):
        """y**s and its tracked phase, or (None, theta) if some |y| is zero."""
        r = np.abs(y)
        if np.any(r == 0.0):
            return None, theta
        phase = theta + phase_step(y, theta)
        ang = s * phase
        return r**s * (np.cos(ang) + 1j * np.sin(ang)), phase

    def series_power(v, base, base_power):
        eps = (v - base) / base
        if not np.all(np.abs(eps.view(np.float64)) <= limit):
            return None
        return binomial_series(eps, s) * base_power

    def slope(w):
        return (w[2:] - w[1:-1]) - (w[1:-1] - w[:-2]) + pot_term * w[1:-1]

    theta = np.array(th0, dtype=np.float64)
    frames = np.empty((n_steps + 1, v0.shape[0]), dtype=np.complex128)
    y = v0.copy()
    frames[0, :] = y
    y_prev = wy = None

    def fail(reason, step, index=0):
        raise PropagationError(f"field value became {reason} at step {step}, index {index}")

    for step in range(n_steps):
        y[0], y[-1] = bl[step, 0], br[step, 0]
        if s == 1.0:
            wy = y
        else:
            carried = None
            if series and step % _kernels.REANCHOR_PERIOD:
                carried = series_power(y, y_prev, wy)
            if carried is None:
                wy, theta = tracked_power(y, theta)
                if wy is None:
                    fail("zero", step)
            else:
                wy = carried
            y_prev = y.copy()
        d = [slope(wy)]
        for h, j in ((0.5 * dt, 1), (0.5 * dt, 1), (dt, 2)):
            stage = y.copy()
            stage[1:-1] = y[1:-1] + (c * h) * d[-1]
            stage[0], stage[-1] = bl[step, j], br[step, j]
            w = stage
            if s != 1.0:
                w = series_power(stage, y, wy) if series else None
                if w is None:
                    w = tracked_power(stage, theta)[0]
                if w is None:
                    fail("zero", step)
            d.append(slope(w))
        d1, d2, d3, d4 = d
        y = y.copy()
        y[1:-1] = y[1:-1] + (c * dt / 6.0) * (d1 + 2.0 * (d2 + d3) + d4)
        y[0], y[-1] = bl[step, 2], br[step, 2]
        finite = np.isfinite(y.real) & np.isfinite(y.imag)
        if not np.all(finite):
            fail("non-finite", step, int(np.argmin(finite)))
        zero = y == 0
        if np.any(zero):
            fail("zero", step, int(np.argmax(zero)))
        frames[step + 1, :] = y
    return frames


@QUIET
def unfolded_form_frames(v0, th0, s, cinv, kappa, dxinv2, pot, dt, n_steps, bl, br):
    """The march before its folded constants: slopes
    ``k = (kappa*lap(w) + pot*w)*cinv`` with the three-point Laplacian,
    stages ``y + h*k``, the step ``y + dt/6*(k1 + 2*k2 + 2*k3 + k4)``, and
    every step's anchor power tracked: a tolerance reference."""
    two_pi = 2.0 * math.pi
    limit = _kernels.series_radius(s) * math.sqrt(0.5)

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

    def stage_power(v, y, wy, theta):
        if s == 1.0:
            return tracked_power(v, theta)
        eps = (v - y) / y
        if not np.all(np.abs(eps.view(np.float64)) <= limit):
            return tracked_power(v, theta)
        return binomial_series(eps, s) * wy

    def rhs(w):
        out = np.zeros_like(w)
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
        wy = tracked_power(y, theta)
        if wy is None:
            fail("zero", step)
        k1 = rhs(wy)
        stage = y + 0.5 * dt * k1
        stage[0], stage[-1] = bl[step, 1], br[step, 1]
        w = stage_power(stage, y, wy, theta)
        if w is None:
            fail("zero", step)
        k2 = rhs(w)
        stage = y + 0.5 * dt * k2
        stage[0], stage[-1] = bl[step, 1], br[step, 1]
        w = stage_power(stage, y, wy, theta)
        if w is None:
            fail("zero", step)
        k3 = rhs(w)
        stage = y + dt * k3
        stage[0], stage[-1] = bl[step, 2], br[step, 2]
        w = stage_power(stage, y, wy, theta)
        if w is None:
            fail("zero", step)
        k4 = rhs(w)
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


class CountingTrackedPower:
    """``_kernels._tracked_power``, counting its calls."""

    def __init__(self, monkeypatch):
        self.calls = 0
        self.tracked_power = _kernels._tracked_power
        monkeypatch.setattr(_kernels, "_tracked_power", self)

    def __call__(self, *args, **kwargs):
        self.calls += 1
        return self.tracked_power(*args, **kwargs)


def reanchor_steps(n_steps):
    """The steps of a march whose anchor takes the tracked power, where
    every power in between takes the series."""
    return -(-n_steps // _kernels.REANCHOR_PERIOD)


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


@st.composite
def smooth_kernel_args(draw):
    """A smooth field, ends that move little within a step and a short dt:
    marches whose powers take the series, all of them but the re-anchors'
    at the shortest dt."""
    n = draw(st.integers(3, 33))
    n_steps = draw(st.integers(1, 40))
    s = draw(st.one_of(st.sampled_from([0.5, 2.0, 3.0]),
                       st.floats(0.3, 3.0).filter(lambda s: s != 1.0)))
    amplitude = draw(st.floats(0.5, 2.0))
    k = draw(st.floats(-0.3, 0.3))
    v0 = amplitude * np.exp(1j * (k * np.arange(n) + draw(st.floats(-math.pi, math.pi))))
    th0 = np.unwrap(np.angle(v0)) + 2.0 * math.pi * draw(st.integers(-2, 2))
    if draw(st.booleans()):
        pot = np.zeros(n)
    else:
        pot = np.array(draw(st.lists(st.floats(-5.0, 5.0), min_size=n, max_size=n)))
    cinv = -1j / draw(st.floats(0.2, 2.0))
    kappa = -draw(st.floats(0.1, 2.0))
    dxinv2 = draw(st.floats(1.0, 400.0))
    dt = draw(st.sampled_from([1e-10, 1e-9, 1e-8, 1e-7]))
    moves = st.floats(-1e-6, 1e-6)
    bl = v0[0] * (1.0 + complex_array(draw, (n_steps, 3), moves))
    br = v0[-1] * (1.0 + complex_array(draw, (n_steps, 3), moves))
    return v0, th0, s, cinv, kappa, dxinv2, pot, dt, n_steps, bl, br


@settings(max_examples=100, deadline=None)
@given(smooth_kernel_args())
def test_buffered_kernel_keeps_the_expression_form_bits_on_series_stages(args):
    with pytest.MonkeyPatch.context() as monkeypatch:
        counter = CountingTrackedPower(monkeypatch)
        outcome = march_outcome(_kernels.propagate_frames, args)
    assert outcome == march_outcome(expression_form_frames, args)
    # at dt = 1e-8, |eps| <= dt*|cinv|*(4*|kappa|*dxinv2 + max|pot|)*max|w|/min|y|
    # <= 1e-8*5*3205*4 = 6.4e-4, within the 2**-10/sqrt(2) each part may take,
    # and the anchor of a step is as near that of the step before
    if args[7] <= 1e-8:
        assert counter.calls == reanchor_steps(args[8])


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


def propagate_args(monkeypatch, kind, q, n, dt, n_steps):
    """The arguments ``propagate`` hands the kernel for the manufactured
    march of ``kind`` at ``q`` on [-5, 5], p = 1, m = 0.5, hbar = 1."""
    seen = []
    kernel = _kernels.propagate_frames

    def record(*args):
        seen.append(args)
        return kernel(*args)

    monkeypatch.setattr(_kernels, "propagate_frames", record)
    spec = FreeParticleSpec(q=q)
    field = manufactured_field(kind, spec)
    grid = GridSpec(-5.0, 5.0, n, dt, n_steps)
    propagate(kind, sample_field(field, grid, 0.0), q, spec.m, spec.hbar, boundary=field)
    monkeypatch.undo()
    return seen[0]


# the benchmark's grid sizes, where numpy runs its long-array loops as
# well as their tails; s = 0.5 and 2 take numpy's sqrt and square shortcuts
@pytest.mark.parametrize("kind, q, n, dt, s", [
    (SolutionKind.NEW, 1.05, 401, 1e-5, 1.0 / 1.05),
    (SolutionKind.NRT, 0.9, 401, 1e-5, 2.0 - 0.9),
    (SolutionKind.NRT, 1.5, 401, 1e-5, 0.5),
    (SolutionKind.NEW, 0.5, 401, 1e-5, 2.0),
    (SolutionKind.NEW, 1.0, 1601, 2e-6, 1.0),
], ids=["new-401", "nrt-401", "sqrt-401", "square-401", "unit-1601"])
def test_buffered_kernel_keeps_the_expression_form_bits_at_benchmark_sizes(monkeypatch, kind, q, n,
                                                                          dt, s):
    args = propagate_args(monkeypatch, kind, q, n, dt, 20)  # one re-anchor after the first
    assert args[2] == s
    assert assert_same_march(args)[0] == "ok"
    # over four steps, the folded constants move the frames from the
    # unfolded form's, and the series from every power tracked, by rounding
    # alone (measured at most 6.8e-16 of the largest value); the marches at
    # s = 0.5 and 2 amplify their differences later on
    frames = _kernels.propagate_frames(*args)[:5]
    for reference in (unfolded_form_frames(*args), expression_form_frames(*args, series=False)):
        assert np.max(np.abs(frames - reference[:5])) <= 1e-14 * np.max(np.abs(frames))


def rough_args(n_steps):
    """A random field, which no stage of a step is near enough to take the series."""
    rng = np.random.default_rng(5)
    n = 33
    v0 = rng.uniform(0.5, 2.0, n) * np.exp(1j * rng.uniform(-math.pi, math.pi, n))
    bl = np.full((n_steps, 3), v0[0])
    br = np.full((n_steps, 3), v0[-1])
    return v0, np.angle(v0), 0.8, -1j, -0.5, 400.0, np.zeros(n), 1e-3, n_steps, bl, br


@pytest.mark.parametrize("smooth", [True, False], ids=["series", "exact"])
def test_tracked_power_runs_once_per_reanchor_period_where_every_power_takes_the_series(
        monkeypatch, smooth):
    n_steps = 40 if smooth else 5
    args = (propagate_args(monkeypatch, SolutionKind.NEW, 1.05, 401, 1e-5, n_steps) if smooth
            else rough_args(n_steps))
    counter = CountingTrackedPower(monkeypatch)
    frames = _kernels.propagate_frames(*args)
    assert counter.calls == (reanchor_steps(n_steps) if smooth else 4 * n_steps)
    monkeypatch.undo()
    assert frames.tobytes() == expression_form_frames(*args).tobytes()


UNWRITTEN = complex(1.25e300, -1.25e300)  # no march here writes this value


class RecordingNumpy:
    """numpy, recording each ufunc and ``count_nonzero`` call and any
    Python number among a ufunc's operands; ``np.empty`` fills its arrays
    with ``UNWRITTEN`` and keeps them."""

    def __init__(self):
        self.calls = 0
        self.number_operands = []
        self.allocated = []

    def rows_written(self):
        """The frames after the initial one that the march stored."""
        frames = self.allocated[0]
        return int(np.count_nonzero(np.any(frames[1:] != UNWRITTEN, axis=1)))

    def __getattr__(self, name):
        attr = getattr(np, name)
        if name == "empty":
            def empty(*args, **kwargs):
                out = attr(*args, **kwargs)
                out.fill(UNWRITTEN if out.dtype == np.complex128 else 0)
                self.allocated.append(out)
                return out

            return empty
        if not isinstance(attr, np.ufunc) and name != "count_nonzero":
            return attr

        def call(*args, **kwargs):
            self.calls += 1
            self.number_operands += [(name, a) for a in args if isinstance(a, (int, float, complex))]
            return attr(*args, **kwargs)

        return call


# the whole-array calls of a step the _kernels docstring states, where
# every power takes the series or the tracked power at once
@pytest.mark.parametrize("kind, q, per_step", [(SolutionKind.NEW, 1.05, 76),
                                               (SolutionKind.NRT, 1.0, 20)],
                         ids=["tracked-power", "unit-power"])
def test_no_ufunc_of_the_march_converts_a_python_number(monkeypatch, kind, q, per_step):
    # numpy converts a Python number operand again on every call; the
    # kernel hands its ufuncs 0-d arrays, made once per call
    n_steps = 70  # a re-anchor, and a block of stored frames and a part of one
    args = propagate_args(monkeypatch, kind, q, 33, 1e-5, n_steps)
    expected = _kernels.propagate_frames(*args)
    recorder = RecordingNumpy()
    monkeypatch.setattr(_kernels, "np", recorder)
    frames = _kernels.propagate_frames(*args)
    blocks = -(-n_steps // _kernels.BLOCK_ROWS)
    assert recorder.calls == per_step * n_steps + 4 * blocks
    assert recorder.number_operands == []
    assert frames.tobytes() == expected.tobytes()


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
    # the Laplacian overflows at index 6 alone (first differences of 1e308
    # do not, where 2*1e308 did and so did its neighbours' product with
    # dxinv2), and each of the three later stages widens it by a point
    huge[6] = 1e308
    assert_march_fails((huge, np.angle(huge), 1.0, -1j, -0.5, 10.0, np.ones(n), 1e-3, 5, bl, br),
                       "non-finite at step 0, index 3")

    # the clean march at s = 0.8 takes the series in every power but the
    # first anchor's, so each fault below reaches the guard, which sends its
    # power to the tracked power
    with pytest.MonkeyPatch.context() as monkeypatch:
        counter = CountingTrackedPower(monkeypatch)
        _kernels.propagate_frames(v0, th0, 0.8, -1j, -0.5, 10.0, np.zeros(n), 1e-3, 5, bl, br)
    assert counter.calls == 1

    zero_full_stage = bl.copy()
    zero_full_stage[3, 2] = 0.0  # the full-step stage of step 3 vanishes at its end
    assert_march_fails((v0, th0, 0.8, -1j, -0.5, 10.0, np.zeros(n), 1e-3, 5, zero_full_stage, br),
                       "zero at step 3, index 0")

    for bad in (math.inf, complex(math.nan, 1.0)):
        bad_stage = br.copy()
        bad_stage[2, 1] = bad  # the half-step stages' end is inf or nan, and three stages widen it
        assert_march_fails((v0, th0, 0.8, -1j, -0.5, 10.0, np.zeros(n), 1e-3, 5, bl, bad_stage),
                           f"non-finite at step 2, index {n - 4}")

    for bad in (math.inf, math.nan):
        pot = np.zeros(n)
        pot[4] = bad  # k1 is not finite at index 4, and each later stage widens it by a point
        for s in (1.0, 0.8):
            assert_march_fails((v0, th0, s, -1j, -0.5, 10.0, pot, 1e-3, 5, bl, br),
                               "non-finite at step 0, index 1")


def long_march_args(s, n_steps=130):
    """A clean march of two blocks of stored frames and a part of one, whose
    powers at s != 1 all take the series but the re-anchors'."""
    n = 9
    v0 = (np.linspace(1.0, 2.0, n) + 1j * np.linspace(-1.0, 1.0, n)).astype(np.complex128)
    return [v0, np.angle(v0), s, -1j, -0.5, 10.0, np.zeros(n), 1e-3, n_steps,
            np.full((n_steps, 3), v0[0]), np.full((n_steps, 3), v0[-1])]


FAULT_STEPS = [0, 62, 63, 64, 65, 127]  # about the ends of the 64-row blocks


def with_fault(args, fault, step):
    """``args`` with one bad boundary value: a non-finite or zero end of the
    step's state, or a zero end of its half-step stages."""
    args = list(args)
    table, slot, value = {"non-finite": (10, 2, math.inf), "zero-end": (10, 2, 0.0),
                          "stage-zero": (9, 1, 0.0)}[fault]
    args[table] = args[table].copy()
    args[table][step, slot] = value
    return args


def assert_stops_like_the_reference(monkeypatch, args, step):
    """The march raises the reference's error, at ``step``, having stored no
    frame past the end of the step's block of stored frames."""
    _, message = march_outcome(expression_form_frames, args)
    assert f" at step {step}, " in message
    recorder = RecordingNumpy()
    monkeypatch.setattr(_kernels, "np", recorder)
    with pytest.raises(PropagationError) as err:
        _kernels.propagate_frames(*args)
    monkeypatch.undo()
    assert str(err.value) == message
    block_end = min((step // _kernels.BLOCK_ROWS + 1) * _kernels.BLOCK_ROWS, args[8])
    assert step <= recorder.rows_written() <= block_end


def test_long_march_takes_the_series_between_reanchors(monkeypatch):
    counter = CountingTrackedPower(monkeypatch)
    outcome = march_outcome(_kernels.propagate_frames, long_march_args(0.8))
    assert counter.calls == reanchor_steps(130)
    monkeypatch.undo()
    assert outcome == march_outcome(expression_form_frames, long_march_args(0.8))
    assert outcome[0] == "ok"


@pytest.mark.parametrize("step", FAULT_STEPS)
@pytest.mark.parametrize("s, fault", [(1.0, "non-finite"), (1.0, "zero-end"),
                                      (0.8, "non-finite"), (0.8, "stage-zero")])
def test_block_checks_raise_the_first_fault_within_its_block(monkeypatch, s, fault, step):
    assert _kernels.BLOCK_ROWS == 64
    assert_stops_like_the_reference(monkeypatch, with_fault(long_march_args(s), fault, step), step)


@pytest.mark.parametrize("bad_row, stage_zero", [(0, 62), (64, 65), (65, 127)])
def test_stage_zero_after_a_non_finite_row_raises_the_row(monkeypatch, bad_row, stage_zero):
    # the state turns non-finite at bad_row, which only the block's check
    # sees, and a later stage of the same block has a zero
    args = with_fault(with_fault(long_march_args(0.8), "non-finite", bad_row),
                      "stage-zero", stage_zero)
    assert_stops_like_the_reference(monkeypatch, args, bad_row)


def test_carried_anchor_drifts_within_its_bound_over_a_long_stable_march(monkeypatch):
    # NEW at q = 1.001 on 101 points: 5,000 steps of a march that does not
    # amplify its rounding, 15 of every 16 anchors carried by the series
    n_steps = 5000
    args = propagate_args(monkeypatch, SolutionKind.NEW, 1.001, 101, 1e-4, n_steps)
    _, th0, s, cinv, kappa, dxinv2, pot, dt = args[:8]
    frames = _kernels.propagate_frames(*args)
    tracked = expression_form_frames(*args, series=False)
    # the _kernels docstring's bound: every power within (4P + 2(2 + |s*theta|))u
    # of the all-tracked march's, relative, where theta moves by at most
    # E*T = p**2/(2m)*T = 0.5 rad from th0; per step, the slopes' move from
    # that and the two marches' rounding of the update, 2u of max|y|
    y_max = np.max(np.abs(tracked))
    phase = np.max(np.abs(s * th0)) + abs(s) * 0.5
    power = (4 * _kernels.REANCHOR_PERIOD + 2 * (2 + phase)) * EPS
    slope = dt * abs(kappa * dxinv2 * cinv) * (4 + np.max(np.abs(pot / (kappa * dxinv2))))
    bound = n_steps * (2 * EPS * y_max + slope * power * y_max**s)
    assert np.max(np.abs(frames - tracked)) <= bound  # measured 1.3e-14 against 5.7e-12
    spec = FreeParticleSpec(q=1.001)
    exact = manufactured_field(SolutionKind.NEW, spec)
    grid = GridSpec(-5.0, 5.0, 101, dt, n_steps)
    errors = [interior_linf_error(Frame(grid, n_steps * dt, march[-1]), exact)
              for march in (frames, tracked)]
    assert errors[0] == pytest.approx(errors[1], rel=1e-7)


MARCHED_POWERS = sorted({s for q in np.linspace(0.05, 1.9, 38)
                         for s in (1.0 / q, 2.0 - q, 1.0 / (2.0 - q))} | {0.5, 2.0, 3.0})


def mp_complex(value):
    """``value``, a numpy complex of any precision, as an mpmath number, exactly."""
    return mpmath.mpc(*(mpmath.mpf(n) / d for n, d in (value.real.as_integer_ratio(),
                                                      value.imag.as_integer_ratio())))


# at np.longdouble the kernel's march runs in that precision, with the
# series radius of its u (1.08e-19 where numpy's longdouble is x87's)
@pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["float64", "longdouble"])
@pytest.mark.parametrize("s", MARCHED_POWERS)
def test_stage_series_is_the_power_to_machine_precision_at_its_radius(s, dtype):
    radius = _kernels.series_radius(s, dtype)
    assert 0.0 < radius <= _kernels.SERIES_RADIUS_CAP
    u = float(np.finfo(dtype).eps)
    eps = radius * np.exp(1j * np.linspace(-math.pi, math.pi, 16, endpoint=False, dtype=dtype))
    series = binomial_series(eps, s)
    assert series.dtype == np.result_type(dtype, 1j)
    with mpmath.workdps(40):
        for e, value in zip(eps, series):
            exact = (1 + mp_complex(e)) ** s
            assert abs(mp_complex(value) - exact) <= 4 * u * abs(exact)


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
