"""Closed-form solutions: worked values, representations, limits."""

import cmath
import math

import numpy as np
import pytest

from qnlse.errors import DomainError
from qnlse.integrators import fit_observed_order
from qnlse.solutions import (
    FreeParticleSpec,
    SolutionKind,
    classical_plane_wave_field,
    closed_form,
    product_solution_field,
    q_plane_wave_field,
    q_plane_wave_hypergeometric,
    separated_space_curve,
    separated_time_curve,
)

DEFAULT = dict(p=1.0, m=0.5, hbar=1.0)


class TestFreeParticleSpec:
    def test_energy_is_derived(self):
        spec = FreeParticleSpec(q=1.5, p=2.0, m=0.5)
        assert spec.energy == pytest.approx(4.0)

    def test_defaults_give_unit_energy(self):
        assert FreeParticleSpec(q=1.5).energy == pytest.approx(1.0)

    @pytest.mark.parametrize("kwargs", [dict(m=0.0), dict(m=-1.0), dict(hbar=0.0),
                                        dict(q=float("nan"))])
    def test_invalid_parameters(self, kwargs):
        with pytest.raises(DomainError):
            FreeParticleSpec(**{"q": 1.5, **DEFAULT, **kwargs})


class TestPlaneWave:
    def test_origin_is_exactly_one(self):
        for q in (0.5, 1.0, 1.5, 2.0):
            assert q_plane_wave_field(FreeParticleSpec(q=q))(0.0, 0.0) == 1.0

    def test_hand_value_q2(self):
        spec = FreeParticleSpec(q=2.0, **DEFAULT)
        assert q_plane_wave_field(spec)(1.0, 0.0) == pytest.approx(0.5 + 0.5j)

    def test_classical_dispatch(self):
        spec = FreeParticleSpec(q=1.0, **DEFAULT)
        assert q_plane_wave_field(spec)(math.pi, 0.0) == pytest.approx(-1.0 + 0j, abs=1e-14)

    def test_amplitude_scales_the_wave(self):
        spec = FreeParticleSpec(q=2.0, **DEFAULT)
        assert q_plane_wave_field(spec, 2.0 + 0j)(0.0, 0.0) == pytest.approx(2.0 + 0j)
        assert q_plane_wave_field(spec, 1j)(1.0, 0.0) == pytest.approx(-0.5 + 0.5j)
        for x, t in ((0.3, 0.1), (-2.0, 0.7)):
            assert q_plane_wave_field(spec, 1.0 + 0j)(x, t) == q_plane_wave_field(spec)(x, t)

    @pytest.mark.parametrize("q", [1.0, 1.5])
    def test_amplitude_must_be_nonzero(self, q):
        with pytest.raises(DomainError):
            q_plane_wave_field(FreeParticleSpec(q=q), 0j)

    def test_field_partials_match_finite_differences(self):
        field = q_plane_wave_field(FreeParticleSpec(q=1.5))
        x, t, h = 0.4, 0.2, 1e-6
        dt_fd = (field(x, t + h) - field(x, t - h)) / (2 * h)
        dx_fd = (field(x + h, t) - field(x - h, t)) / (2 * h)
        dxx_fd = (field(x + h, t) - 2 * field(x, t) + field(x - h, t)) / h**2
        assert field.d_t(x, t) == pytest.approx(dt_fd, rel=1e-8)
        assert field.d_x(x, t) == pytest.approx(dx_fd, rel=1e-8)
        assert field.d_xx(x, t) == pytest.approx(dxx_fd, rel=1e-3)

    def test_continuous_log_tracks_winding(self):
        # at q = 0.9 the phase passes pi around |x| ~ 3.2; the continuous
        # log must keep growing while the principal argument wraps
        field = q_plane_wave_field(FreeParticleSpec(q=0.9))
        lo = field.log_value(3.0, 0.0).imag
        hi = field.log_value(5.0, 0.0).imag
        assert hi > lo > 0
        assert hi > math.pi  # beyond the principal range
        assert cmath.exp(field.log_value(5.0, 0.0)) == pytest.approx(field(5.0, 0.0))


class TestHypergeometricRoute:
    GAMMAS = (0.5, 1.0, 2.7)

    @pytest.mark.parametrize("q", [0.5, 0.9, 1.1, 1.5, 2.0])
    def test_matches_direct_form(self, q):
        spec = FreeParticleSpec(q=q)
        xs = np.linspace(-5, 5, 21)
        ts = np.linspace(0, 1, 5)
        wave = q_plane_wave_field(spec)
        for x in xs:
            for t in ts:
                direct = wave(float(x), float(t))
                for g in self.GAMMAS:
                    via_f = q_plane_wave_hypergeometric(spec, g, float(x), float(t))
                    assert abs(via_f - direct) <= 1e-10

    def test_gamma_independence(self):
        spec = FreeParticleSpec(q=1.5)
        values = [q_plane_wave_hypergeometric(spec, g, 0.4, 0.1) for g in self.GAMMAS]
        assert abs(values[0] - values[1]) <= 1e-12
        assert abs(values[0] - values[2]) <= 1e-12

    def test_origin(self):
        assert q_plane_wave_hypergeometric(FreeParticleSpec(q=1.5), 1.0, 0.0, 0.0) == 1.0

    def test_pointwise_cross_route_precision(self):
        spec = FreeParticleSpec(q=1.5, p=1.0, m=0.5, hbar=1.0)
        direct = q_plane_wave_field(spec)(0.4, 0.1)
        via_f = q_plane_wave_hypergeometric(spec, 1.0, 0.4, 0.1)
        assert abs(via_f - direct) <= 1e-12

    def test_thread_safety_smoke(self):
        # pure functions of their inputs: concurrent evaluation must
        # reproduce the serial values bit for bit
        from concurrent.futures import ThreadPoolExecutor

        wave = q_plane_wave_field(FreeParticleSpec(q=1.5))
        points = [(0.1 * i, 0.05 * j) for i in range(-20, 21) for j in range(5)]
        serial = [wave(x, t) for x, t in points]
        with ThreadPoolExecutor(max_workers=8) as pool:
            threaded = list(pool.map(lambda p: wave(*p), points))
        assert serial == threaded

    def test_classical_q(self):
        spec = FreeParticleSpec(q=1.0)
        assert q_plane_wave_hypergeometric(spec, 1.0, 0.7, 0.3) == pytest.approx(
            q_plane_wave_field(spec)(0.7, 0.3)
        )


class TestSeparatedFactors:
    def test_time_factor_hand_value(self):
        spec = FreeParticleSpec(q=2.0, **DEFAULT)
        assert separated_time_curve(SolutionKind.NEW, spec)(1.0) == pytest.approx(1.0 - 0.5j)

    def test_space_factor_hand_value(self):
        spec = FreeParticleSpec(q=3.0, **DEFAULT)
        got = separated_space_curve(SolutionKind.NEW, spec)(math.sqrt(2.0))
        assert got == pytest.approx(0.5 + 0.5j)

    def test_factors_are_one_at_origin(self):
        for q in (0.5, 1.0, 1.5):
            spec = FreeParticleSpec(q=q)
            for kind in SolutionKind:
                assert separated_time_curve(kind, spec)(0.0) == 1.0
                assert separated_space_curve(kind, spec)(0.0) == 1.0
                assert product_solution_field(kind, spec)(0.0, 0.0) == 1.0

    def test_classical_limits_coincide(self):
        spec = FreeParticleSpec(q=1.0, **DEFAULT)
        for kind in SolutionKind:
            f = separated_time_curve(kind, spec)
            assert f(math.pi) == pytest.approx(-1.0 + 0j, abs=1e-14)
            got = product_solution_field(kind, spec)(0.3, 0.2)
            assert got == pytest.approx(cmath.exp(1j * (0.3 - 0.2)), abs=1e-14)

    def test_product_equals_factorwise_evaluation(self):
        spec = FreeParticleSpec(q=1.5, **DEFAULT)
        for kind in SolutionKind:
            x, t = 0.3, 0.2
            f = separated_time_curve(kind, spec)
            g = separated_space_curve(kind, spec)
            expected = f(t) * g(x)
            assert product_solution_field(kind, spec)(x, t) == pytest.approx(expected, rel=1e-14)

    def test_kinds_differ_at_q_not_one(self):
        spec = FreeParticleSpec(q=1.5, **DEFAULT)
        gap = abs(
            separated_space_curve(SolutionKind.NEW, spec)(1.0)
            - separated_space_curve(SolutionKind.NRT, spec)(1.0)
        )
        assert gap > 1e-3

    def test_preconditions(self):
        with pytest.raises(DomainError):
            separated_time_curve(SolutionKind.NEW, FreeParticleSpec(q=0.0))
        with pytest.raises(DomainError):
            separated_time_curve(SolutionKind.NRT, FreeParticleSpec(q=2.0))
        with pytest.raises(DomainError):
            separated_space_curve(SolutionKind.NEW, FreeParticleSpec(q=-1.0))
        with pytest.raises(DomainError):
            separated_space_curve(SolutionKind.NRT, FreeParticleSpec(q=2.5))
        # q = 3 is fine for the q-power branch, excluded for NRT
        separated_space_curve(SolutionKind.NEW, FreeParticleSpec(q=3.0))(1.0)


class TestClassicalLimit:
    def test_fitted_order_at_least_09(self):
        xs = np.linspace(-2, 2, 21)
        ts = np.linspace(0, 1, 5)
        classical = classical_plane_wave_field(FreeParticleSpec(q=1.0))
        deltas = (1e-1, 1e-2, 1e-3)
        families = {
            "plane": lambda s: q_plane_wave_field(s),
            "new": lambda s: product_solution_field(SolutionKind.NEW, s),
            "nrt": lambda s: product_solution_field(SolutionKind.NRT, s),
        }
        for build in families.values():
            sups = []
            for d in deltas:
                sol = build(FreeParticleSpec(q=1.0 + d))
                sups.append(max(
                    abs(sol(float(x), float(t)) - classical(float(x), float(t)))
                    for x in xs for t in ts
                ))
            assert fit_observed_order(deltas, sups) >= 0.9

    def test_space_factor_gap_vanishes_linearly(self):
        xs = np.linspace(-2, 2, 21)
        deltas = (1e-1, 1e-2, 1e-3)
        sups = []
        for d in deltas:
            spec = FreeParticleSpec(q=1.0 + d, **DEFAULT)
            g_new = separated_space_curve(SolutionKind.NEW, spec)
            g_nrt = separated_space_curve(SolutionKind.NRT, spec)
            sups.append(max(abs(g_new(float(x)) - g_nrt(float(x))) for x in xs))
        assert fit_observed_order(deltas, sups) >= 0.9


class TestCurves:
    def test_curve_derivatives_match_finite_differences(self):
        spec = FreeParticleSpec(q=1.5)
        h = 1e-6
        for curve in (separated_time_curve(SolutionKind.NEW, spec),
                      separated_time_curve(SolutionKind.NRT, spec),
                      separated_space_curve(SolutionKind.NEW, spec),
                      separated_space_curve(SolutionKind.NRT, spec)):
            u = 0.6
            d1 = (curve(u + h) - curve(u - h)) / (2 * h)
            d2 = (curve(u + h) - 2 * curve(u) + curve(u - h)) / h**2
            assert curve.deriv(u, 1) == pytest.approx(d1, rel=1e-8)
            assert curve.deriv(u, 2) == pytest.approx(d2, rel=1e-3)

    def test_curve_pow_scales_exponent(self):
        spec = FreeParticleSpec(q=1.5)
        g = separated_space_curve(SolutionKind.NRT, spec)
        powered = g.pow(2.0 - spec.q)
        x = 0.8
        assert powered(x) == pytest.approx(
            cmath.exp((2.0 - spec.q) * g.log_value(x)), rel=1e-14
        )


class TestClosedFormChoice:
    @pytest.mark.parametrize("q", [0.9, 1.0, 1.5])
    def test_each_solution_and_form_names_its_closed_form(self, q):
        spec = FreeParticleSpec(q=q)
        x, t = np.meshgrid(np.linspace(-3.0, 3.0, 7), (0.0, 0.5))
        for solution, psi in (("plane", q_plane_wave_field(spec)),
                              ("new", product_solution_field(SolutionKind.NEW, spec)),
                              ("nrt", product_solution_field(SolutionKind.NRT, spec))):
            assert np.array_equal(closed_form(solution, "field", spec)(x, t), psi(x, t))
            assert np.array_equal(closed_form(solution, "phi", spec)(x, t), psi.pow(q)(x, t))
        for kind in SolutionKind:
            assert np.array_equal(closed_form(kind.value, "time", spec)(t),
                                  separated_time_curve(kind, spec)(t))
            assert np.array_equal(closed_form(kind.value, "space", spec)(x),
                                  separated_space_curve(kind, spec)(x))

    @pytest.mark.parametrize("form", ["time", "space"])
    def test_plane_wave_has_no_separated_factors(self, form):
        with pytest.raises(DomainError, match="the plane wave has no separated factors"):
            closed_form("plane", form, FreeParticleSpec(q=1.5))
