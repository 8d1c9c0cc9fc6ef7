"""Residual checkers: exactness on solutions, rejection of impostors."""

import cmath
import math
import re
import warnings

import numpy as np
import pytest

from qnlse.errors import DomainError
from qnlse.fields import AffineFactor, ExponentialField, PowerProductField
from qnlse.integrators import Frame, GridSpec, propagate
from qnlse.qmath import HypParams
from qnlse.residuals import (
    Analytic,
    FiniteDifference,
    fd_partial,
    hypergeom_ode_residual,
    new_nlse_phi_residual,
    new_nlse_residual,
    nrt_residual,
    scan_residual,
    separated_space_residual,
    separated_time_residual,
)
from qnlse.solutions import (
    FreeParticleSpec,
    SolutionKind,
    classical_plane_wave_field,
    product_solution_field,
    q_plane_wave_field,
    separated_space_curve,
    separated_time_curve,
)

RNG = np.random.default_rng(777)
GRID = GridSpec(-5.0, 5.0, 101, 0.1, 10)
AN = Analytic()
FD = FiniteDifference()


class TestFdPartial:
    def test_constant_field(self):
        const = lambda x, t: 1.0 + 0j
        for axis in ("x", "t"):
            for order in (1, 2):
                assert fd_partial(const, (0.3, 0.4), axis, order, FD) == pytest.approx(0j)

    def test_plane_wave_time_derivative(self):
        spec = FreeParticleSpec(q=1.0)
        field = classical_plane_wave_field(spec)
        point = (0.7, 0.2)
        got = fd_partial(field, point, "t", 1, FD)
        want = -1j * spec.energy / spec.hbar * field(*point)
        assert abs(got - want) <= 1e-8

    def test_q_plane_wave_second_space_derivative(self):
        field = q_plane_wave_field(FreeParticleSpec(q=1.5))
        point = (0.3, 0.1)
        got = fd_partial(field, point, "x", 2, FD)
        assert abs(got - field.d_xx(*point)) <= 1e-6

    def test_bad_axis(self):
        with pytest.raises(DomainError):
            fd_partial(lambda x, t: 0j, (0, 0), "y", 1, FD)


class TestHypergeomOde:
    def test_at_zero_argument(self):
        # gamma F'(0) = alpha beta exactly, so the residual vanishes
        for _ in range(20):
            p = HypParams(RNG.uniform(-3, 3), RNG.uniform(-3, 3),
                          RNG.uniform(0.5, 4), 0.0)
            assert hypergeom_ode_residual(p) <= 1e-13

    def test_plane_wave_specialization(self):
        q = 1.5
        assert hypergeom_ode_residual(HypParams(1 / (q - 1), 1.0, 1.0, 0.3j)) <= 1e-8

    def test_random_parameters(self):
        for _ in range(100):
            p = HypParams(
                RNG.uniform(-3, 3), RNG.uniform(-3, 3), RNG.uniform(0.5, 4),
                0.9 * math.sqrt(RNG.uniform()) * cmath.exp(1j * RNG.uniform(-3, 3)),
            )
            assert hypergeom_ode_residual(p) <= 1e-8


class TestFieldEquationExactness:
    @pytest.mark.parametrize("q", [0.5, 0.9, 1.1, 1.5, 2.0])
    def test_plane_wave_solves_q_power_field_equation(self, q):
        spec = FreeParticleSpec(q=q)
        psi = q_plane_wave_field(spec)
        rep_an = scan_residual("new-field", psi, GRID, AN, q=q, m=spec.m, hbar=spec.hbar)
        assert rep_an.max_abs <= 1e-8
        rep_fd = scan_residual("new-field", psi, GRID, FD, q=q, m=spec.m, hbar=spec.hbar)
        assert rep_fd.max_abs <= 1e-5

    @pytest.mark.parametrize("q", [0.5, 0.9, 1.1, 1.5])
    def test_product_solves_nrt_equation(self, q):
        spec = FreeParticleSpec(q=q)
        psi = product_solution_field(SolutionKind.NRT, spec)
        rep = scan_residual("nrt-field", psi, GRID, AN, q=q, m=spec.m, hbar=spec.hbar)
        assert rep.max_abs <= 1e-8

    def test_phi_form_with_power_of_plane_wave(self):
        q = 1.5
        spec = FreeParticleSpec(q=q)
        phi = q_plane_wave_field(spec).pow(q)
        assert abs(new_nlse_phi_residual(phi, q, spec.m, spec.hbar, None,
                                         (0.7, 0.4), AN)) <= 1e-8
        assert abs(new_nlse_phi_residual(phi, q, spec.m, spec.hbar, None,
                                         (0.7, 0.4), FD)) <= 1e-5

    def test_phi_form_with_product_solution(self):
        q = 1.5
        spec = FreeParticleSpec(q=q)
        phi = product_solution_field(SolutionKind.NEW, spec).pow(q)
        assert abs(new_nlse_phi_residual(phi, q, spec.m, spec.hbar, None,
                                         (0.3, 0.2), FD)) <= 1e-5

    def test_classical_reduction(self):
        # at q = 1 both field equations reduce to the linear equation
        spec = FreeParticleSpec(q=1.0)
        wave = classical_plane_wave_field(spec)
        assert abs(new_nlse_residual(wave, 1.0, spec.m, spec.hbar, (1.0, 0.5), AN)) <= 1e-10
        assert abs(nrt_residual(wave, 1.0, spec.m, spec.hbar, None, (1.0, 0.5), AN)) <= 1e-10

    def test_classical_wave_fails_deformed_equation(self):
        # the undeformed wave is not a q = 1.5 solution
        spec = FreeParticleSpec(q=1.0)
        wave = classical_plane_wave_field(spec)
        r = new_nlse_residual(wave, 1.5, spec.m, spec.hbar, (1.0, 0.5), AN)
        assert abs(r) > 1e-2

    def test_constant_potential_enters_hamiltonian(self):
        # phi = exp(i(px - Et)/hbar - i c t / hbar) solves the q = 1 equation
        # with V(x) = c
        spec = FreeParticleSpec(q=1.0)
        c = 0.7

        class Shifted:
            def __init__(self):
                self.base = classical_plane_wave_field(spec)

            def __call__(self, x, t):
                return self.base(x, t) * cmath.exp(-1j * c * t / spec.hbar)

            def log_value(self, x, t):
                return self.base.log_value(x, t) - 1j * c * t / spec.hbar

            def d_t(self, x, t):
                return (self.base.d_t(x, t) - 1j * c / spec.hbar * self.base(x, t)) \
                    * cmath.exp(-1j * c * t / spec.hbar)

            def d_x(self, x, t):
                return self.base.d_x(x, t) * cmath.exp(-1j * c * t / spec.hbar)

            def d_xx(self, x, t):
                return self.base.d_xx(x, t) * cmath.exp(-1j * c * t / spec.hbar)

        r = new_nlse_phi_residual(Shifted(), 1.0, spec.m, spec.hbar,
                                  lambda x: c, (0.4, 0.3), AN)
        assert abs(r) <= 1e-10

    def test_zero_field_rejected(self):
        zero = lambda x, t: 0j
        with pytest.raises(DomainError):
            new_nlse_residual(zero, 1.5, 0.5, 1.0, (0, 0), FD)


class TestSeparatedResiduals:
    @pytest.mark.parametrize("q", [0.5, 0.9, 1.1, 1.5])
    @pytest.mark.parametrize("kind", list(SolutionKind))
    def test_time_factor_exactness(self, kind, q):
        spec = FreeParticleSpec(q=q)
        f = separated_time_curve(kind, spec)
        for t in (0.0, 0.4, 1.0):
            assert abs(separated_time_residual(kind, f, q, spec.energy,
                                               spec.hbar, t, AN)) <= 1e-8
        assert abs(separated_time_residual(kind, f, q, spec.energy,
                                           spec.hbar, 0.7, FD)) <= 1e-5

    @pytest.mark.parametrize("q", [0.5, 0.9, 1.1, 1.5])
    @pytest.mark.parametrize("kind", list(SolutionKind))
    def test_space_factor_exactness(self, kind, q):
        spec = FreeParticleSpec(q=q)
        g = separated_space_curve(kind, spec)
        for x in (-5.0, -1.0, 0.0, 2.5, 5.0):
            assert abs(separated_space_residual(kind, g, q, spec.energy,
                                                spec.m, spec.hbar, x, AN)) <= 1e-8
        assert abs(separated_space_residual(kind, g, q, spec.energy,
                                            spec.m, spec.hbar, 1.3, FD)) <= 1e-5

    def test_origin_residuals_vanish(self):
        spec = FreeParticleSpec(q=1.5)
        for kind in SolutionKind:
            f = separated_time_curve(kind, spec)
            g = separated_space_curve(kind, spec)
            assert abs(separated_time_residual(kind, f, spec.q, spec.energy,
                                               spec.hbar, 0.0, AN)) <= 1e-10
            assert abs(separated_space_residual(kind, g, spec.q, spec.energy,
                                                spec.m, spec.hbar, 0.0, AN)) <= 1e-10

    def test_lambda_perturbation_is_visible(self):
        spec = FreeParticleSpec(q=1.5)
        for kind, tag in ((SolutionKind.NEW, "new-space"),
                          (SolutionKind.NRT, "nrt-space")):
            g = separated_space_curve(kind, spec)
            for factor in (1.01, 0.99):
                rep = scan_residual(tag, g, GRID, AN, q=spec.q, m=spec.m,
                                    hbar=spec.hbar, lam=spec.energy * factor)
                assert rep.max_abs > 1e-4

    def test_wrong_pairing_is_rejected(self):
        spec = FreeParticleSpec(q=1.5)
        g_nrt = separated_space_curve(SolutionKind.NRT, spec)
        worst = max(
            abs(separated_space_residual(SolutionKind.NEW, g_nrt, spec.q,
                                         spec.energy, spec.m, spec.hbar, x, AN))
            for x in np.linspace(0.5, 2.0, 16)
        )
        assert worst > 1e-3

    def test_cross_field_equations_reject(self):
        spec = FreeParticleSpec(q=1.5)
        r1 = scan_residual("nrt-field", product_solution_field(SolutionKind.NEW, spec),
                           GRID, AN, q=spec.q, m=spec.m, hbar=spec.hbar)
        r2 = scan_residual("new-field", product_solution_field(SolutionKind.NRT, spec),
                           GRID, AN, q=spec.q, m=spec.m, hbar=spec.hbar)
        assert r1.max_abs > 1e-3
        assert r2.max_abs > 1e-3

    def test_nrt_q2_rejected(self):
        f = separated_time_curve(SolutionKind.NEW, FreeParticleSpec(q=2.0))
        with pytest.raises(DomainError):
            separated_time_residual(SolutionKind.NRT, f, 2.0, 1.0, 1.0, 0.5, AN)


class TestMethodsAgree:
    def test_analytic_and_fd_agree(self):
        grid = GridSpec(-5.0, 5.0, 11, 0.25, 4)
        for q in (0.9, 1.5):
            spec = FreeParticleSpec(q=q)
            psi = q_plane_wave_field(spec)
            ra = scan_residual("new-field", psi, grid, AN, q=q, m=spec.m, hbar=spec.hbar)
            rf = scan_residual("new-field", psi, grid, FD, q=q, m=spec.m, hbar=spec.hbar)
            assert abs(ra.max_abs - rf.max_abs) <= 1e-4

    def test_analytic_requires_partials(self):
        bare = lambda x, t: 1.0 + 0j
        with pytest.raises(DomainError):
            new_nlse_residual(bare, 1.5, 0.5, 1.0, (0.1, 0.1), AN)

    @pytest.mark.parametrize("kind", list(SolutionKind))
    def test_analytic_requires_curve_deriv(self, kind):
        bare = lambda u: 1.0 + 0.5j
        with pytest.raises(DomainError, match="curve with an exact deriv"):
            separated_time_residual(kind, bare, 1.5, 1.0, 1.0, 0.3, AN)
        with pytest.raises(DomainError, match="curve with an exact deriv"):
            separated_space_residual(kind, bare, 1.5, 1.0, 0.5, 1.0, 0.3, AN)


class TestScan:
    def test_report_norm_inequality(self):
        spec = FreeParticleSpec(q=1.5)
        rep = scan_residual("new-field", q_plane_wave_field(spec), GRID, FD,
                            q=spec.q, m=spec.m, hbar=spec.hbar)
        assert rep.n_samples == 101 * 11
        assert rep.l2 <= rep.max_abs * math.sqrt(rep.n_samples) + 1e-30
        assert rep.max_abs >= 0

    def test_constant_field_scan_is_exactly_zero(self):
        # a constant field solves the free q-power equation with zero
        # residual identically (every derivative vanishes)
        const = PowerProductField([])
        rep = scan_residual("new-field", const, GRID, AN, q=1.5, m=0.5, hbar=1.0)
        assert rep.max_abs == 0.0
        assert rep.l2 == 0.0

    def test_worst_point_is_reported(self):
        spec = FreeParticleSpec(q=1.5)
        rep = scan_residual("nrt-field", product_solution_field(SolutionKind.NEW, spec),
                            GRID, AN, q=spec.q, m=spec.m, hbar=spec.hbar)
        x, t = rep.worst_point
        r = nrt_residual(product_solution_field(SolutionKind.NEW, spec), spec.q,
                         spec.m, spec.hbar, None, (x, t), AN)
        assert abs(r) == pytest.approx(rep.max_abs, rel=1e-12)

    @pytest.mark.parametrize("m, hbar", [(0.5, 0.0), (0.0, 1.0), (-1.0, 1.0), (0.5, math.nan)])
    def test_validates_mass_and_hbar(self, m, hbar):
        with pytest.raises(DomainError, match=r"mass|hbar"):
            scan_residual("new-field", lambda x, t: 1j, GRID, AN, q=1.5, m=m, hbar=hbar)

    def test_unknown_tag(self):
        with pytest.raises(DomainError):
            scan_residual("bogus", lambda x, t: 1j, GRID, AN, q=1.5)

    def test_missing_lam(self):
        spec = FreeParticleSpec(q=1.5)
        with pytest.raises(DomainError):
            scan_residual("new-space", separated_space_curve(SolutionKind.NEW, spec),
                          GRID, AN, q=spec.q)

    def test_worst_point_is_the_first_maximum_in_scan_order(self):
        # exp(-i t) solves nothing here; its residual |F| is the same,
        # bit for bit, at every x of one t row
        rep = scan_residual("new-field", ExponentialField(0j, -1j), GRID, AN, q=1.0)
        assert rep.worst_point[0] == -5.0

    def test_domain_error_names_first_offending_point_in_scan_order(self):
        # zeros at (0.0, 0.1) and (-0.5, 0.2): t-major order meets (0.0, 0.1) first
        holes = {(0.0, 0.1), (-0.5, 0.2)}
        field = lambda x, t: 0j if (round(x, 9), round(t, 9)) in holes else 1.0 + 0j
        grid = GridSpec(-1.0, 1.0, 5, 0.1, 3)
        with pytest.raises(DomainError, match=r"\(x=0\.0, t=0\.1\).*new-field"):
            scan_residual("new-field", field, grid, FD, q=1.5)

    def test_vanished_base_and_non_finite_value_raise_on_the_array_path(self):
        grid = GridSpec(-2.0, 2.0, 5, 0.1, 2)
        real_base = PowerProductField([AffineFactor(1.0, 0.0, 0.5)])  # 1 + x
        with pytest.raises(DomainError, match=r"base vanished at \(x=-1\.0, t=0\.0\)"):
            scan_residual("new-field", real_base, grid, AN, q=1.5)
        huge = ExponentialField(800.0, 0j)
        with pytest.raises(DomainError, match=r"not finite at \(x=1\.0, t=0\.0\)"):
            scan_residual("new-field", huge, grid, AN, q=1.5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_residual_raises_naming_the_scan(self, bad):
        # a d_xx that is not finite at x = 0 leaves the field's values
        # finite but the residual not; t-major order meets (0.0, 0.0) first
        spec = FreeParticleSpec(q=1.1)
        grid = GridSpec(-1.0, 1.0, 11, 0.1, 3)
        field = product_solution_field(SolutionKind.NRT, spec)

        class BadCurvatureAtOrigin:
            def __call__(self, x, t):
                return field(x, t)

            def __getattr__(self, name):
                return getattr(field, name)

            def d_xx(self, x, t):
                return bad if x == 0.0 else field.d_xx(x, t)

        # and it raises only its own error: numpy warns about nothing on the way
        with warnings.catch_warnings(), pytest.raises(
                DomainError, match=r"^residual not finite at \(x=0\.0, t=0\.0\): "
                                   r"(nan|inf) \[while scanning nrt-field\]$"):
            warnings.simplefilter("error")
            scan_residual("nrt-field", BadCurvatureAtOrigin(), grid,
                          AN, q=spec.q, m=spec.m, hbar=spec.hbar)

    # a scan read a potential by its own rule: a complex one was taken
    # (max_abs 1.0), a str one ended in a bare ValueError, and the tags
    # without a potential term dropped one silently
    @pytest.mark.parametrize("value, message", [
        (1j, "potential is not a real number at x=-1.0"),
        ("a", "potential is not a real number at x=-1.0"),
        (math.nan, "potential is not finite at x=-1.0"),
        (math.inf, "potential is not finite at x=-1.0")], ids=["complex", "str", "nan", "inf"])
    @pytest.mark.parametrize("tag", ["new-phi", "nrt-field"])
    def test_potential_is_refused_as_propagate_refuses_it(self, tag, value, message):
        spec = FreeParticleSpec(q=1.1)
        grid = GridSpec(-1.0, 1.0, 5, 0.01, 1)
        kind = SolutionKind.NEW if tag == "new-phi" else SolutionKind.NRT
        ran = []
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            scan_residual(tag, lambda x, t: ran.append((x, t)) or 1.0 + 0j, grid, AN,
                          q=spec.q, m=spec.m, hbar=spec.hbar, potential=lambda x: value)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            propagate(kind, Frame(grid, 0.0, np.ones(5, dtype=complex)), spec.q, spec.m,
                      spec.hbar, boundary=lambda x, t: 1.0 + 0j, potential=lambda x: value)
        assert ran == []

    @pytest.mark.parametrize("tag", ["new-field", "new-time", "nrt-time", "new-space",
                                     "nrt-space"])
    def test_tag_without_a_potential_term_refuses_one(self, tag):
        spec = FreeParticleSpec(q=1.5)
        grid = GridSpec(-1.0, 1.0, 5, 0.1, 1)
        with pytest.raises(DomainError, match=f"^equation '{tag}' has no potential term$"):
            scan_residual(tag, lambda *point: 1.0 + 0j, grid, AN, q=spec.q, lam=spec.energy,
                          potential=lambda x: 5.0)

    def test_domain_error_carries_location(self):
        # a field with a zero at an interior grid point aborts with coordinates
        hole = lambda x, t: complex(x - 0.5, 0.0) if abs(x - 0.5) > 1e-12 else 0j
        grid = GridSpec(0.0, 1.0, 3, 0.1, 1)
        with pytest.raises(DomainError, match=r"x=0\.5"):
            scan_residual("new-field", hole, grid, FD, q=1.5)

    def test_scan_bounds_only_the_axes_it_reads(self):
        # the times of 10**300 steps were built for every tag, and numpy
        # refused them with a ValueError
        spec = FreeParticleSpec(q=1.5)
        grid = GridSpec(-1.0, 1.0, 3, 1e-300, 10**300)
        for tag, sampler, points in [
                ("new-field", q_plane_wave_field(spec), 3),
                ("new-time", separated_time_curve(SolutionKind.NEW, spec), 1)]:
            with pytest.raises(DomainError, match=rf"^1\.00e\+300 steps on {points} points need "
                                                  r"\S+ bytes of scan mesh, "):
                scan_residual(tag, sampler, grid, AN, q=spec.q, lam=spec.energy)
        rep = scan_residual("new-space", separated_space_curve(SolutionKind.NEW, spec), grid,
                            AN, q=spec.q, lam=spec.energy)
        assert rep.n_samples == 3
