"""Property tests: array evaluation of the closed forms, analytic against
finite-difference calculus, and scans of lifted scalar callables."""

import cmath

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnlse.fields import AffineFactor, ExpCurve, ExponentialField, PowerCurve, PowerProductField
from qnlse.integrators import GridSpec
from qnlse.residuals import Analytic, FiniteDifference, fd_partial, scan_residual
from qnlse.solutions import (
    FreeParticleSpec,
    SolutionKind,
    product_solution_field,
    q_plane_wave_field,
    separated_space_curve,
    separated_time_curve,
)

EPS = np.finfo(float).eps
ULPS = 4

coef = st.floats(-2.0, 2.0, allow_nan=False)
power = st.floats(-3.0, 3.0, allow_nan=False)
coord = st.floats(-3.0, 3.0, allow_nan=False)
amplitude = st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0, allow_nan=False)


def imaginary_factor():
    # purely imaginary coefficients keep Re(base) = 1
    return st.builds(lambda cx, ct, s: AffineFactor(1j * cx, 1j * ct, s), coef, coef, power)


power_fields = st.builds(PowerProductField, st.lists(imaginary_factor(), min_size=1,
                                                     max_size=3), amplitude)
exp_fields = st.builds(ExponentialField, coef.map(lambda k: 1j * k),
                       coef.map(lambda k: 1j * k), amplitude)
power_curves = st.builds(PowerCurve, coef.map(lambda c: 1j * c), power, amplitude)
exp_curves = st.builds(ExpCurve, coef.map(lambda k: 1j * k), amplitude)
coords = st.lists(coord, min_size=1, max_size=12).map(np.array)


def assert_within_ulps(array, scalars, scale=None):
    scalars = np.array(scalars, dtype=complex)
    scale = np.abs(scalars) if scale is None else scale
    assert array.shape == scalars.shape
    assert np.all(np.abs(array - scalars)
                  <= ULPS * np.maximum(EPS * scale, np.finfo(float).smallest_subnormal))


def term_scale(field, name, x, t):
    """Size of the summands of a power-product partial: the sums over
    factors in d_x, d_t and d_xx may cancel, and a relative ulp bound
    only holds against the terms that are added."""
    v = np.abs(field(x, t))
    if not isinstance(field, PowerProductField) or name in ("__call__", "log_value"):
        return None
    ws = [(abs(f.s), np.abs(f.cx / f.base(x, t)), np.abs(f.ct / f.base(x, t)))
          for f in field.factors]
    wx = sum(s * w for s, w, _ in ws)
    if name == "d_x":
        return v * wx
    if name == "d_t":
        return v * sum(s * w for s, _, w in ws)
    return v * (wx * wx + sum(s * w * w for s, w, _ in ws))


def field_methods(field):
    return [field, field.log_value, field.d_t, field.d_x, field.d_xx]


def curve_methods(curve):
    return [curve, curve.log_value, lambda u: curve.deriv(u, 1), lambda u: curve.deriv(u, 2)]


@settings(max_examples=60, deadline=None)
@given(st.one_of(power_fields, exp_fields), coords, coords)
# a subnormal power: d_xx of the array and the scalar call differ by one
# subnormal step (5e-324), where EPS * scale underflows to zero
@example(PowerProductField([AffineFactor(0.625j, 1j, 2.2250738585072014e-308)], 1),
         np.array([2.6875]), np.array([1.0]))
# Python's complex division and numpy's differ: a scalar call that divided
# in Python put d_x 1 ulp and d_xx 7 subnormal steps away from the array call
@example(PowerProductField([AffineFactor(1j * 1.1709046720538892e-154, 1j * 0.875, 1.125)],
                           2 + 0j),
         np.array([0.0]), np.array([3.0]))
def test_field_methods_broadcast_like_scalar_calls(field, xs, ts):
    x, t = np.meshgrid(xs, ts)
    for method in field_methods(field):
        scalars = [method(float(a), float(b)) for a, b in zip(x.ravel(), t.ravel())]
        assert all(type(v) is complex for v in scalars)
        scale = term_scale(field, getattr(method, "__name__", "__call__"), x, t)
        assert_within_ulps(method(x, t).ravel(), scalars,
                           None if scale is None else scale.ravel())


@settings(max_examples=60, deadline=None)
@given(st.one_of(power_curves, exp_curves), coords)
def test_curve_methods_broadcast_like_scalar_calls(curve, us):
    for method in curve_methods(curve):
        scalars = [method(float(u)) for u in us]
        assert all(type(v) is complex for v in scalars)
        assert_within_ulps(method(us), scalars)


# The exponentials are power products with no factors; their calculus
# still gives, bit for bit, the expressions of a dedicated exponential.
@settings(max_examples=60, deadline=None)
@given(exp_fields, coords, coords)
def test_exponential_field_keeps_the_exponential_expressions(field, xs, ts):
    x, t = np.meshgrid(xs, ts)
    kx, kt, v = field.kx, field.kt, field(x, t)
    assert np.array_equal(field.log_value(x, t), cmath.log(field.amplitude) + kx * x + kt * t)
    assert np.array_equal(field.d_t(x, t), kt * v)
    assert np.array_equal(field.d_x(x, t), kx * v)
    assert np.array_equal(field.d_xx(x, t), kx * kx * v)


@settings(max_examples=60, deadline=None)
@given(exp_curves, coords)
def test_exp_curve_keeps_the_exponential_expressions(curve, us):
    k, v = curve.k, curve(us)
    assert np.array_equal(curve.log_value(us), cmath.log(curve.amplitude) + k * us)
    assert np.array_equal(curve.deriv(us, 1), k * v)
    assert np.array_equal(curve.deriv(us, 2), k * k * v)


@settings(max_examples=60, deadline=None)
@given(power_fields, coord, coord)
def test_analytic_partials_match_finite_differences(field, x, t):
    fd = FiniteDifference()
    scale = max(1.0, abs(field(x, t)))
    for axis, order, exact in (("x", 1, field.d_x), ("x", 2, field.d_xx), ("t", 1, field.d_t)):
        got = fd_partial(field, (x, t), axis, order, fd)
        assert abs(got - exact(x, t)) <= 1e-5 * max(scale, abs(exact(x, t)))


@settings(max_examples=60, deadline=None)
@given(power_curves, coord)
def test_analytic_curve_derivatives_match_finite_differences(curve, u):
    fd = FiniteDifference()
    for order in (1, 2):
        exact = curve.deriv(u, order)
        got = fd_partial(lambda a, _t: curve(a), (u, 0.0), "x", order, fd)
        assert abs(got - exact) <= 1e-5 * max(1.0, abs(curve(u)), abs(exact))


class Bare:
    """A scalar-only view of a sampler: every call asserts scalar arguments."""

    def __init__(self, sampler, calculus):
        self._sampler = sampler
        for name in calculus:
            setattr(self, name, self._scalar_only(getattr(sampler, name)))

    @staticmethod
    def _scalar_only(method):
        def call(*args):
            assert all(np.ndim(a) == 0 for a in args)
            return method(*args)
        return call

    def __call__(self, *args):
        return self._scalar_only(self._sampler)(*args)


GRID = GridSpec(-4.0, 4.0, 17, 0.25, 4)
# the principal branch of a bare callable only agrees with the closed
# form's continuous one while |arg| stays below pi
SMALL_GRID = GridSpec(-0.5, 0.5, 11, 0.05, 4)


class OnePoint:
    """A scan grid holding the single point (x, t)."""

    n_points, n_steps = 1, 0  # read by the scan's memory bound

    def __init__(self, point):
        self.point = point

    def x_values(self):
        return np.array([self.point[0]])

    def t_values(self):
        return np.array([self.point[1]])


@pytest.mark.parametrize("method", [Analytic(), FiniteDifference()], ids=["an", "fd"])
@pytest.mark.parametrize("calculus", [("log_value", "d_t", "d_x", "d_xx", "deriv"), ()],
                         ids=["with-calculus", "bare"])
@settings(max_examples=8, deadline=None)
@given(q=st.sampled_from([0.5, 0.9, 1.1, 1.5]))
def test_scan_of_lifted_callable_matches_the_field(method, calculus, q):
    if isinstance(method, Analytic) and not calculus:
        return  # a bare callable has no exact partials to read
    spec = FreeParticleSpec(q=q)
    lam = spec.energy
    # closed forms of another q, so that the residual is O(1), not roundoff
    other = FreeParticleSpec(q=q + 0.2)
    cases = [
        ("new-field", q_plane_wave_field(other), {}),
        ("nrt-field", product_solution_field(SolutionKind.NRT, other), {}),
        ("new-time", separated_time_curve(SolutionKind.NEW, other), {"lam": lam}),
        ("nrt-space", separated_space_curve(SolutionKind.NRT, other), {"lam": lam}),
    ]
    grid = GRID if calculus else SMALL_GRID
    # FD amplifies roundoff in the values by 1/h^2
    rel = 1e-12 if isinstance(method, Analytic) else 1e-6
    for tag, sampler, extra in cases:
        def scan(s, g):
            return scan_residual(tag, s, g, method, q=q, m=spec.m, hbar=spec.hbar, **extra)

        direct = scan(sampler, grid)
        lifted = scan(Bare(sampler, [n for n in calculus if hasattr(sampler, n)]), grid)
        assert lifted.n_samples == direct.n_samples
        assert lifted.max_abs == pytest.approx(direct.max_abs, rel=rel)
        assert lifted.l2 == pytest.approx(direct.l2, rel=rel)
        # the worst point is a maximum of the field's own residual (ties,
        # such as points with equal px - Et on a plane wave, may go either way)
        at_worst = scan(sampler, OnePoint(lifted.worst_point)).max_abs
        assert at_worst == pytest.approx(direct.max_abs, rel=rel)
