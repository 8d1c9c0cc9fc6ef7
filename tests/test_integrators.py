"""RK4 trajectories, the method-of-lines propagator, convergence studies."""

import cmath
import math
import warnings

import numpy as np
import pytest

from qnlse import _kernels, integrators
from qnlse.errors import DegenerateStudyError, DomainError, PropagationError
from qnlse.integrators import (
    Frame,
    GridSpec,
    OdeSpaceCase,
    OdeTimeCase,
    PdeCase,
    Trajectory,
    convergence_study,
    fit_observed_order,
    integrate_separated_space,
    integrate_separated_time,
    interior_linf_error,
    manufactured_field,
    propagate,
    rk4_step,
    sample_field,
    stream_frames,
)
from qnlse.solutions import (
    FreeParticleSpec,
    SolutionKind,
    separated_space_curve,
    separated_time_curve,
)


def quiet_propagate(*args, **kwargs):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        return propagate(*args, **kwargs)


class TestGridSpec:
    def test_dx_and_axes(self):
        grid = GridSpec(-5.0, 5.0, 101, 0.1, 10)
        assert grid.dx == pytest.approx(0.1)
        assert len(grid.x_values()) == 101
        assert grid.t_values()[-1] == pytest.approx(1.0)

    def test_zero_steps_allowed(self):
        grid = GridSpec(0.0, 1.0, 3, 0.1, 0)
        assert list(grid.t_values()) == [0.0]

    @pytest.mark.parametrize("kwargs", [
        dict(x_min=1.0, x_max=0.0), dict(n_points=2), dict(dt=0.0),
        dict(dt=-1.0), dict(n_steps=-1), dict(n_points=5.5), dict(n_points=11.0),
        dict(n_steps=2.0), dict(dt=1e308, n_steps=2), dict(n_steps=10**400),
    ])
    def test_validation(self, kwargs):
        base = dict(x_min=0.0, x_max=1.0, n_points=11, dt=0.1, n_steps=5)
        with pytest.raises(DomainError):
            GridSpec(**{**base, **kwargs})

    def test_numpy_integer_counts_accepted(self):
        grid = GridSpec(0.0, 1.0, np.int64(5), 0.1, np.int32(2))
        assert grid.dx == 0.25
        assert grid.t_values().size == 3


class TestRk4:
    def test_zero_rhs_keeps_state(self):
        state = np.array([1 + 2j, -0.5j])
        out = rk4_step(state, lambda t, y: 0.0 * y, 0.0, 0.1)
        assert np.array_equal(out, state)

    def test_rotation_accuracy(self):
        # classical RK4 at dt = 0.1 lands ~8.3e-7 from exp(i): the local
        # error dt^5/120 accumulated over ten unit-rate steps
        state = 1 + 0j
        for k in range(10):
            state = rk4_step(state, lambda t, y: 1j * y, k * 0.1, 0.1)
        assert abs(state - cmath.exp(1j)) <= 1e-6

    def test_halving_reduces_error_sixteenfold(self):
        def endpoint_error(dt):
            n = round(1.0 / dt)
            state = 1 + 0j
            for k in range(n):
                state = rk4_step(state, lambda t, y: 1j * y, k * dt, dt)
            return abs(state - cmath.exp(1j))

        ratio = endpoint_error(0.1) / endpoint_error(0.05)
        assert ratio == pytest.approx(16.0, rel=0.25)

    def test_nonfinite_stage_raises(self):
        with pytest.raises(PropagationError):
            rk4_step(1e308 + 0j, lambda t, y: y * y, 0.0, 1.0)


class TestSeparatedIntegration:
    def test_zero_span(self):
        assert integrate_separated_time(SolutionKind.NEW, 1.5, 1.0, 1.0, 0.0, 1e-3) \
            == [(0.0, 1.0 + 0j)]
        assert integrate_separated_space(SolutionKind.NEW, 1.5, 1.0, 0.5, 1.0, 0.0, 1e-3) \
            == [(0.0, 1.0 + 0j)]

    @pytest.mark.parametrize("q", [0.5, 1.5])
    @pytest.mark.parametrize("kind", list(SolutionKind))
    def test_negative_span_matches_closed_form(self, kind, q):
        # |span|/step steps of size span/n, not one step of size span
        spec = FreeParticleSpec(q=q)
        time = integrate_separated_time(kind, q, spec.energy, spec.hbar, -1.0, 1e-3)
        space = integrate_separated_space(kind, q, spec.energy, spec.m, spec.hbar, -1.0, 1e-3)
        assert len(time) == len(space) == 1001
        assert abs(time[-1][1] - separated_time_curve(kind, spec)(-1.0)) <= 1e-8
        assert abs(space[-1][1] - separated_space_curve(kind, spec)(-1.0)) <= 1e-8

    @pytest.mark.parametrize("span", [math.nan, math.inf, -math.inf])
    def test_non_finite_span_rejected(self, span):
        with pytest.raises(DomainError, match="span must be finite"):
            integrate_separated_time(SolutionKind.NRT, 1.5, 1.0, 1.0, span, 1e-3)
        with pytest.raises(DomainError, match="span must be finite"):
            integrate_separated_space(SolutionKind.NEW, 1.5, 1.0, 0.5, 1.0, span, 1e-3)

    @pytest.mark.parametrize("q", [0.5, 1.1, 1.5])
    @pytest.mark.parametrize("kind", list(SolutionKind))
    def test_time_factor_matches_closed_form(self, kind, q):
        spec = FreeParticleSpec(q=q)
        traj = integrate_separated_time(kind, q, spec.energy, spec.hbar, 1.0, 1e-3)
        exact = separated_time_curve(kind, spec)(1.0)
        assert abs(traj[-1][1] - exact) <= 1e-8

    @pytest.mark.parametrize("q", [0.5, 1.1, 1.5])
    @pytest.mark.parametrize("kind", list(SolutionKind))
    def test_space_factor_matches_closed_form(self, kind, q):
        spec = FreeParticleSpec(q=q)
        traj = integrate_separated_space(kind, q, spec.energy, spec.m, spec.hbar,
                                         1.0, 1e-3)
        exact = separated_space_curve(kind, spec)(1.0)
        assert abs(traj[-1][1] - exact) <= 1e-7

    def test_classical_q_matches_exponentials(self):
        spec = FreeParticleSpec(q=1.0)
        traj = integrate_separated_time(SolutionKind.NRT, 1.0, spec.energy,
                                        spec.hbar, 1.0, 1e-3)
        assert abs(traj[-1][1] - cmath.exp(-1j)) <= 1e-10

    def test_wide_range_space_integration_crosses_winding(self):
        # x_end = 5 passes the principal-branch wrap point; the tracked
        # power has to keep the trajectory on the closed form
        spec = FreeParticleSpec(q=1.5)
        traj = integrate_separated_space(SolutionKind.NEW, spec.q, spec.energy,
                                         spec.m, spec.hbar, 5.0, 1e-3)
        exact = separated_space_curve(SolutionKind.NEW, spec)(5.0)
        assert abs(traj[-1][1] - exact) <= 1e-6

    def test_preconditions(self):
        with pytest.raises(DomainError):
            integrate_separated_time(SolutionKind.NEW, 0.0, 1.0, 1.0, 1.0, 1e-3)
        with pytest.raises(DomainError):
            integrate_separated_time(SolutionKind.NRT, 2.0, 1.0, 1.0, 1.0, 1e-3)
        with pytest.raises(DomainError):
            integrate_separated_space(SolutionKind.NEW, 1.5, -1.0, 0.5, 1.0, 1.0, 1e-3)
        with pytest.raises(DomainError):
            integrate_separated_space(SolutionKind.NRT, 2.5, 1.0, 0.5, 1.0, 1.0, 1e-3)

    @pytest.mark.parametrize("q", [0.01, np.float64(0.01)])
    def test_overflow_raises_propagation_error(self, q):
        # q (a float or a numpy scalar) is coerced to float, so the tracked
        # power overflows loudly, without numpy RuntimeWarnings on the way
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(PropagationError, match="t="):
                integrate_separated_time(SolutionKind.NEW, q, 1.0, 1.0, 1.0, 0.05)

    @pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan, math.inf])
    def test_time_integration_validates_hbar(self, hbar):
        with pytest.raises(DomainError, match="hbar"):
            integrate_separated_time(SolutionKind.NEW, 1.5, 1.0, hbar, 1.0, 0.1)

    @pytest.mark.parametrize("m", [-0.5, 0.0, math.nan])
    def test_space_integration_validates_mass(self, m):
        with pytest.raises(DomainError, match=r"mass|parameter m\b"):
            integrate_separated_space(SolutionKind.NEW, 1.5, 1.0, m, 1.0, 1.0, 0.1)

    @pytest.mark.parametrize("hbar", [0.0, -1.0, math.nan])
    def test_space_integration_validates_hbar(self, hbar):
        with pytest.raises(DomainError, match="hbar"):
            integrate_separated_space(SolutionKind.NRT, 1.5, 1.0, 0.5, hbar, 1.0, 0.1)

    @pytest.mark.parametrize("step", [0.0, -1e-3])
    def test_step_that_is_not_positive_is_rejected(self, step):
        with pytest.raises(DomainError, match="^step size must be positive$"):
            integrate_separated_time(SolutionKind.NEW, 1.5, 1.0, 1.0, 1.0, step)
        with pytest.raises(DomainError, match="^step size must be positive$"):
            integrate_separated_space(SolutionKind.NRT, 1.5, 1.0, 0.5, 1.0, -1.0, step)

    @pytest.mark.parametrize("step", [1e-12, 5e-324])
    def test_step_count_is_bounded_before_any_step(self, step):
        # 1e12 steps would run for hours; 1/5e-324 is inf steps
        with pytest.raises(DomainError, match=r"more than 1000000 steps"):
            integrate_separated_time(SolutionKind.NEW, 1.5, 1.0, 1.0, 1.0, step)
        with pytest.raises(DomainError, match=r"more than 1000000 steps"):
            integrate_separated_space(SolutionKind.NRT, 1.5, 1.0, 0.5, 1.0, -1.0, step)

    def test_step_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(integrators, "MAX_SEPARATED_STEPS", 10)
        assert len(integrate_separated_time(SolutionKind.NEW, 1.5, 1.0, 1.0, 1.0, 0.1)) == 11
        with pytest.raises(DomainError, match=r"in steps of 0\.09 takes more than 10 steps"):
            integrate_separated_time(SolutionKind.NEW, 1.5, 1.0, 1.0, 1.0, 0.09)

    def test_space_state_is_a_pair_of_complex_scalars(self, monkeypatch):
        seen = []

        def spy(state, rhs, t, dt):
            seen.append(state)
            return rk4_step(state, rhs, t, dt)

        monkeypatch.setattr(integrators, "rk4_step", spy)
        integrate_separated_space(SolutionKind.NEW, 1.5, 1.0, 0.5, 1.0, 0.2, 0.1)
        assert len(seen) == 2
        assert all(type(s) is tuple and all(type(v) is complex for v in s) for s in seen)

    @pytest.mark.parametrize("case_cls", [OdeTimeCase, OdeSpaceCase])
    def test_observed_order_is_four(self, case_cls):
        spec = FreeParticleSpec(q=1.5)
        rep = convergence_study(case_cls(SolutionKind.NEW, spec), 4)
        assert rep.observed_order == pytest.approx(4.0, abs=0.5)
        assert rep.monotone


class TestPropagate:
    def test_zero_steps_returns_initial_only(self):
        spec = FreeParticleSpec(q=1.5)
        exact = manufactured_field(SolutionKind.NEW, spec)
        grid = GridSpec(-1.0, 1.0, 21, 1e-4, 0)
        initial = sample_field(exact, grid, 0.0)
        frames = quiet_propagate(SolutionKind.NEW, initial, spec.q, spec.m,
                                 spec.hbar, boundary=exact)
        assert len(frames) == 1
        assert np.array_equal(frames[0].values, initial.values)

    @pytest.mark.parametrize("kind", list(SolutionKind))
    def test_short_horizon_manufactured_solution(self, kind):
        spec = FreeParticleSpec(q=1.1)
        exact = manufactured_field(kind, spec)
        grid = GridSpec(-5.0, 5.0, 401, 1e-4, 20)
        frames = quiet_propagate(kind, sample_field(exact, grid, 0.0), spec.q,
                                 spec.m, spec.hbar, boundary=exact)
        assert len(frames) == 21
        assert interior_linf_error(frames[-1], exact) <= 1e-5

    def test_classical_case_full_horizon(self):
        spec = FreeParticleSpec(q=1.0)
        exact = manufactured_field(SolutionKind.NEW, spec)
        grid = GridSpec(-5.0, 5.0, 401, 1e-4, 1000)
        initial = sample_field(exact, grid, 0.0)
        frames_new = quiet_propagate(SolutionKind.NEW, initial, 1.0, spec.m,
                                     spec.hbar, boundary=exact)
        frames_nrt = quiet_propagate(SolutionKind.NRT, initial, 1.0, spec.m,
                                     spec.hbar, boundary=exact)
        assert interior_linf_error(frames_new[-1], exact) <= 1e-4
        gap = max(float(np.max(np.abs(a.values - b.values)))
                  for a, b in zip(frames_new, frames_nrt))
        assert gap <= 1e-10

    def test_constant_potential_classical_solution(self):
        # with V = c the linear solution just gains a phase e^{-ict/hbar}
        spec = FreeParticleSpec(q=1.0)
        c = 0.7
        base = manufactured_field(SolutionKind.NEW, spec)

        class Shifted:
            def __call__(self, x, t):
                return base(x, t) * cmath.exp(-1j * c * t / spec.hbar)

            def log_value(self, x, t):
                return base.log_value(x, t) - 1j * c * t / spec.hbar

        exact = Shifted()
        grid = GridSpec(-2.0, 2.0, 161, 1e-4, 500)
        frames = quiet_propagate(SolutionKind.NEW, sample_field(exact, grid, 0.0),
                                 1.0, spec.m, spec.hbar, boundary=exact,
                                 potential=lambda x: c)
        assert interior_linf_error(frames[-1], exact) <= 1e-4

    def test_bare_callable_boundary_uses_principal_anchor(self):
        # a boundary without a continuous log forces the initial-phase
        # anchor to the grid point nearest x = 0; the classical wave
        # still winds past pi at |x| = 5, so this exercises the unwrap
        spec = FreeParticleSpec(q=1.0)
        exact = manufactured_field(SolutionKind.NEW, spec)
        grid = GridSpec(-5.0, 5.0, 401, 1e-4, 200)
        bare = lambda x, t: exact(x, t)
        frames = quiet_propagate(SolutionKind.NEW, sample_field(exact, grid, 0.0),
                                 1.0, spec.m, spec.hbar, boundary=bare)
        assert interior_linf_error(frames[-1], exact) <= 1e-4

    def test_determinism_bit_identical(self):
        spec = FreeParticleSpec(q=1.5)
        exact = manufactured_field(SolutionKind.NEW, spec)
        grid = GridSpec(-2.0, 2.0, 81, 5e-5, 100)

        def run():
            return quiet_propagate(SolutionKind.NEW, sample_field(exact, grid, 0.0),
                                   spec.q, spec.m, spec.hbar, boundary=exact)

        for a, b in zip(run(), run()):
            assert np.array_equal(a.values, b.values)

    @pytest.mark.parametrize("m, hbar", [(0.5, 0.0), (0.0, 1.0), (-1.0, 1.0), (0.5, math.nan)])
    def test_validates_mass_and_hbar(self, m, hbar):
        grid = GridSpec(-1.0, 1.0, 11, 1e-4, 2)
        with pytest.raises(DomainError, match=r"mass|hbar"):
            quiet_propagate(SolutionKind.NEW, Frame(grid, 0.0, np.ones(11, dtype=complex)),
                            1.5, m, hbar, boundary=lambda x, t: 1.0 + 0j)

    def test_zero_initial_value_rejected(self):
        grid = GridSpec(-1.0, 1.0, 11, 1e-4, 5)
        values = np.ones(11, dtype=complex)
        values[5] = 0
        with pytest.raises(DomainError):
            quiet_propagate(SolutionKind.NEW, Frame(grid, 0.0, values), 1.5,
                            0.5, 1.0, boundary=lambda x, t: 1.0 + 0j)

    def test_initial_frame_length_checked(self):
        grid = GridSpec(0.0, 1.0, 5, 0.1, 1)
        with pytest.raises(DomainError, match="does not match grid"):
            quiet_propagate(SolutionKind.NEW, Frame(grid, 0.0, np.ones(4, dtype=complex)),
                            1.5, 0.5, 1.0, boundary=lambda x, t: 1.0 + 0j)

    def test_initial_frame_finiteness_checked(self):
        grid = GridSpec(0.0, 1.0, 3, 0.1, 1)
        values = np.array([1.0, float("inf"), 1.0], dtype=complex)
        with pytest.raises(DomainError, match="finite"):
            quiet_propagate(SolutionKind.NEW, Frame(grid, 0.0, values), 1.5, 0.5, 1.0,
                            boundary=lambda x, t: 1.0 + 0j)

    def test_stability_warning(self):
        spec = FreeParticleSpec(q=1.5)
        exact = manufactured_field(SolutionKind.NEW, spec)
        grid = GridSpec(-1.0, 1.0, 101, 1e-2, 1)  # dt far above the heuristic
        with pytest.warns(RuntimeWarning, match="heuristic"):
            propagate(SolutionKind.NEW, sample_field(exact, grid, 0.0), spec.q,
                      spec.m, spec.hbar, boundary=exact)

    def test_blowup_raises_with_location(self):
        # q < 1 gives a superlinear nonlinearity (power 1/q > 1), so the
        # unstable step overflows instead of saturating
        spec = FreeParticleSpec(q=0.5)
        exact = manufactured_field(SolutionKind.NEW, spec)
        grid = GridSpec(-1.0, 1.0, 201, 0.05, 40)  # wildly unstable step
        with pytest.raises(PropagationError, match="step"):
            quiet_propagate(SolutionKind.NEW, sample_field(exact, grid, 0.0),
                            spec.q, spec.m, spec.hbar, boundary=exact)

    def test_frames_over_the_memory_share_are_refused_before_any_work(self, monkeypatch):
        # 6.4e15 bytes of frames: no machine has twice that; the boundary
        # source must not be evaluated either (6e12 points a side)
        calls = []
        boundary = lambda x, t: calls.append((x, t)) or 1.0 + 0j
        grid = GridSpec(-5.0, 5.0, 401, 1e-5, 10**12)
        with pytest.raises(DomainError, match=r"^1000000000000 steps on 401 points need "
                                              r"6416000000006416 bytes of frames, more than "
                                              r"0\.5 of physical memory \(\d+ bytes\)$"):
            quiet_propagate(SolutionKind.NEW, Frame(grid, 0.0, np.ones(401, dtype=complex)),
                            1.5, 0.5, 1.0, boundary=boundary)
        assert calls == []

    def test_memory_share_is_inclusive(self, monkeypatch):
        # 11 points: (4 + 1) * 11 * 16 = 880 bytes pass at 1760 bytes of memory
        monkeypatch.setattr(integrators, "_physical_memory", lambda: 1760)
        spec = FreeParticleSpec(q=1.5)
        exact = manufactured_field(SolutionKind.NEW, spec)
        for steps, fits in ((4, True), (5, False)):
            initial = sample_field(exact, GridSpec(-1.0, 1.0, 11, 1e-4, steps), 0.0)
            if fits:
                assert len(quiet_propagate(SolutionKind.NEW, initial, spec.q, spec.m,
                                           spec.hbar, boundary=exact)) == 5
            else:
                with pytest.raises(DomainError, match="1056 bytes of frames"):
                    quiet_propagate(SolutionKind.NEW, initial, spec.q, spec.m,
                                    spec.hbar, boundary=exact)

    def test_q_guards(self):
        grid = GridSpec(-1.0, 1.0, 11, 1e-4, 1)
        field = Frame(grid, 0.0, np.ones(11, dtype=complex))
        with pytest.raises(DomainError):
            quiet_propagate(SolutionKind.NEW, field, 0.0, 0.5, 1.0,
                            boundary=lambda x, t: 1.0 + 0j)
        with pytest.raises(DomainError):
            quiet_propagate(SolutionKind.NRT, field, 2.0, 0.5, 1.0,
                            boundary=lambda x, t: 1.0 + 0j)


class TestTrajectory:
    T0, DT, STEPS = 0.3, 1e-4, 7

    def march(self, n_steps=STEPS, t0=T0):
        spec = FreeParticleSpec(q=1.5)
        exact = manufactured_field(SolutionKind.NEW, spec)
        grid = GridSpec(-1.0, 1.0, 21, self.DT, n_steps)
        return quiet_propagate(SolutionKind.NEW, sample_field(exact, grid, t0),
                               spec.q, spec.m, spec.hbar, boundary=exact)

    def test_one_array_of_every_frame(self):
        traj = self.march()
        assert isinstance(traj, Trajectory)
        assert traj.values.shape == (self.STEPS + 1, 21)
        assert len(traj) == self.STEPS + 1
        assert (traj.t0, traj.dt) == (self.T0, self.DT)

    def test_frame_times_are_t0_plus_k_dt_exactly(self):
        traj = self.march()
        expected = [self.T0 + k * self.DT for k in range(self.STEPS + 1)]
        assert [traj[k].t for k in range(len(traj))] == expected
        assert traj.times() == expected
        assert all(type(t) is float for t in traj.times())

    def test_numpy_scalar_t0_gives_float_times_on_every_path(self):
        traj = self.march(t0=np.float64(self.T0))
        expected = [self.T0 + k * self.DT for k in range(self.STEPS + 1)]
        for times in ([traj[k].t for k in range(len(traj))], traj.times(),
                      [frame.t for frame in traj], [traj[-1].t]):
            assert all(type(t) is float for t in times)
            assert times == expected[-len(times):]

    def test_negative_indices_and_iteration(self):
        traj = self.march()
        assert traj[-1].t == traj[self.STEPS].t
        assert np.array_equal(traj[-len(traj)].values, traj[0].values)
        for k in (len(traj), -len(traj) - 1):
            with pytest.raises(IndexError):
                traj[k]
        frames = list(traj)
        assert len(frames) == len(traj)
        for k, frame in enumerate(frames):
            assert frame.grid is traj.grid
            assert frame.t == traj[k].t
            assert np.array_equal(frame.values, traj.values[k])

    def test_values_is_the_array_the_kernel_marched_into(self, monkeypatch):
        marched = []
        kernel = _kernels.propagate_frames

        def record(*args):
            marched.append(kernel(*args))
            return marched[-1]

        monkeypatch.setattr(_kernels, "propagate_frames", record)
        assert self.march().values is marched[0]

    def test_frame_values_are_views_into_the_array(self):
        traj = self.march()
        for frame in (traj[0], traj[-1], *traj):
            assert frame.values.base is traj.values
            assert np.shares_memory(frame.values, traj.values)

    def test_zero_steps_gives_exactly_one_frame(self):
        traj = self.march(n_steps=0)
        assert len(traj) == 1
        assert len(list(traj)) == 1
        assert traj.times() == [self.T0]
        assert traj[0].t == traj[-1].t == self.T0


class TestStreamFrames:
    """``stream_frames`` hands on ``propagate``'s march one checked block
    of ``BLOCK_ROWS`` frames at a time."""

    DT = 1e-5

    def inputs(self, q, n_steps, bad_from=None):
        """NEW at q on 41 points, its initial frame, and its boundary:
        the closed form, or, from step ``bad_from`` on, inf at both ends
        of each step's state, so that the march fails at that step."""
        spec = FreeParticleSpec(q=q)
        exact = manufactured_field(SolutionKind.NEW, spec)
        grid = GridSpec(-5.0, 5.0, 41, self.DT, n_steps)
        initial = sample_field(exact, grid, 0.0)
        if bad_from is None:
            return spec, initial, exact

        def boundary(x, t):
            # a step's end is at (step + 1)*dt; its earlier stages are not poisoned
            return complex(math.inf) if t > (bad_from + 0.75) * self.DT else exact(x, t)

        return spec, initial, boundary

    def streamed(self, q, n_steps, bad_from=None):
        """The copied frames the stream handed on, and its error, if any."""
        spec, initial, boundary = self.inputs(q, n_steps, bad_from)
        frames = []
        outside = np.geterr()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                for frame in stream_frames(SolutionKind.NEW, initial, q, spec.m, spec.hbar,
                                           boundary=boundary):
                    assert np.geterr() == outside  # the march's silenced errors stay inside it
                    frames.append(Frame(frame.grid, frame.t, frame.values.copy()))
            except PropagationError as err:
                return frames, str(err)
        return frames, None

    @pytest.mark.parametrize("q", [1.0, 1.1], ids=["s=1", "s=1/1.1"])
    @pytest.mark.parametrize("n_steps", [0, 1, 63, 64, 65, 128, 129])
    def test_streamed_frames_are_propagates_bit_for_bit(self, q, n_steps):
        spec, initial, exact = self.inputs(q, n_steps)
        traj = quiet_propagate(SolutionKind.NEW, initial, q, spec.m, spec.hbar, boundary=exact)
        frames, error = self.streamed(q, n_steps)
        assert error is None
        assert [frame.t for frame in frames] == traj.times()
        assert np.array([frame.values for frame in frames]).tobytes() == traj.values.tobytes()
        assert all(frame.grid == initial.grid for frame in frames)

    @pytest.mark.parametrize("q", [1.0, 1.1], ids=["s=1", "s=1/1.1"])
    @pytest.mark.parametrize("bad_step", [64, 100, 127, 128])
    def test_a_later_failing_block_ends_the_stream_after_the_blocks_before_it(self, q,
                                                                              bad_step):
        spec, initial, boundary = self.inputs(q, 129, bad_from=bad_step)
        with pytest.raises(PropagationError) as err:
            quiet_propagate(SolutionKind.NEW, initial, q, spec.m, spec.hbar, boundary=boundary)
        assert str(err.value) == f"field value became non-finite at step {bad_step}, index 0"
        frames, error = self.streamed(q, 129, bad_from=bad_step)
        assert error == str(err.value)
        # the whole blocks before the failing step's: frame 0 and each block's steps
        rows = _kernels.BLOCK_ROWS
        assert len(frames) == bad_step // rows * rows + 1
        spec, initial, exact = self.inputs(q, 129)
        clean = quiet_propagate(SolutionKind.NEW, initial, q, spec.m, spec.hbar, boundary=exact)
        assert np.array([f.values for f in frames]).tobytes() == \
            clean.values[:len(frames)].tobytes()

    def test_inputs_are_checked_at_the_call(self):
        spec, initial, exact = self.inputs(1.0, 3)
        bad = Frame(initial.grid, 0.0, initial.values[:-1])
        with pytest.raises(DomainError, match="does not match grid"):
            stream_frames(SolutionKind.NEW, bad, 1.0, spec.m, spec.hbar, boundary=exact)
        with pytest.warns(RuntimeWarning, match="diffusive-scaling heuristic"):
            stream_frames(SolutionKind.NEW, sample_field(exact, GridSpec(-5.0, 5.0, 41, 0.1, 3),
                                                          0.0), 1.0, spec.m, spec.hbar,
                          boundary=exact)

    def test_every_frame_is_a_row_of_one_buffer_of_a_block(self):
        spec, initial, exact = self.inputs(1.0, 200)
        frames = list(stream_frames(SolutionKind.NEW, initial, 1.0, spec.m, spec.hbar,
                                    boundary=exact))
        buffer = frames[0].values.base
        assert buffer.shape == (_kernels.BLOCK_ROWS + 1, 41)
        assert all(frame.values.base is buffer for frame in frames)


def no_sampling(*args, **kwargs):
    raise AssertionError("sampled a grid")


class TestConvergenceStudies:
    def test_pde_spatial_order_two(self):
        spec = FreeParticleSpec(q=1.1)
        rep = convergence_study(
            PdeCase(SolutionKind.NEW, spec, dx0=0.2, dt=1e-4, t_final=0.002), 3
        )
        assert rep.observed_order == pytest.approx(2.0, abs=0.3)
        assert rep.monotone

    def test_pde_defaults_converge_at_order_two(self):
        # the default horizon stays where refinement converges; a longer
        # one blew up (errors 0.2, 1.5e11, 8.5e18 at t_final = 0.1)
        rep = convergence_study(PdeCase(SolutionKind.NEW, FreeParticleSpec(q=1.1)), 3)
        assert rep.observed_order == pytest.approx(2.0, abs=0.3)
        assert rep.monotone

    @pytest.mark.parametrize("bad", [
        {"dt": math.nan}, {"dt": 0.0}, {"dt": -1e-4}, {"dt": math.inf},
        {"dx0": math.nan}, {"dx0": 0.0}, {"dx0": -0.2}, {"dx0": math.inf},
        {"t_final": math.nan}, {"t_final": 0.0}, {"t_final": -0.002}, {"t_final": math.inf},
        {"x_min": math.nan}, {"x_min": 1.0, "x_max": 0.0},
    ])
    def test_pde_case_rejects_bad_inputs_before_marching(self, bad, monkeypatch):
        def no_march(*args, **kwargs):
            raise AssertionError("marched")

        monkeypatch.setattr(integrators, "propagate", no_march)
        with pytest.raises(DomainError):
            PdeCase(SolutionKind.NEW, FreeParticleSpec(q=1.1), **bad)

    @pytest.mark.parametrize("bad", [{"dx0": 5e-324}, {"dt": 5e-324}])
    def test_pde_case_without_a_finite_grid_is_a_domain_error(self, bad, monkeypatch):
        monkeypatch.setattr(integrators, "sample_field", no_sampling)
        with pytest.raises(DomainError, match="give no finite grid"):
            PdeCase(SolutionKind.NEW, FreeParticleSpec(q=1.1), **bad).error(0)

    @pytest.mark.parametrize("dx0", [1e-9, 1e-300])
    def test_pde_case_over_the_memory_share_is_refused_before_sampling(self, dx0,
                                                                      monkeypatch):
        # 1e-9 would sample 1e10 points: the frames' memory rule refuses it first;
        # 1e-300 gives counts past 16 digits, which read as 9.99e+300
        count = r"(\d{1,16}|\d\.\d\de\+\d+)"
        monkeypatch.setattr(integrators, "sample_field", no_sampling)
        with pytest.raises(DomainError, match=rf"^20 steps on {count} points need {count} "
                                              r"bytes of frames, more than 0\.5 of physical memory"):
            PdeCase(SolutionKind.NEW, FreeParticleSpec(q=1.1), dx0=dx0).error(0)

    def test_fit_guards(self):
        with pytest.raises(DegenerateStudyError):
            fit_observed_order([0.1, 0.1], [1e-3, 1e-4])
        with pytest.raises(DegenerateStudyError):
            fit_observed_order([0.1], [1e-3])
        with pytest.raises(DegenerateStudyError):
            fit_observed_order([0.1, 0.05], [1e-3, 0.0])
        with pytest.raises(DegenerateStudyError, match="finite"):
            fit_observed_order([1.0, 2.0], [math.nan, 1.0])
        with pytest.raises(DegenerateStudyError, match="finite"):
            fit_observed_order([1.0, math.inf], [0.5, 1.0])

    # a bare ValueError (math domain error) or ZeroDivisionError escaped
    @pytest.mark.parametrize("resolutions, reason", [
        ([-1.0, 2.0], "positive"), ([0.0, 1.0], "positive"),
        ([1e300, math.nextafter(1e300, math.inf)], "logs coincide")])
    def test_fit_refuses_resolutions_whose_logs_are_not_distinct(self, resolutions, reason):
        with pytest.raises(DegenerateStudyError, match=reason):
            fit_observed_order(resolutions, [1.0, 2.0])

    def test_study_needs_two_levels(self):
        spec = FreeParticleSpec(q=1.5)
        with pytest.raises(DegenerateStudyError):
            convergence_study(OdeTimeCase(SolutionKind.NEW, spec), 1)

    @pytest.mark.parametrize("case_cls", [OdeTimeCase, OdeSpaceCase])
    def test_study_over_too_many_levels_is_refused_before_any_step(self, case_cls,
                                                                   monkeypatch):
        # level 39 would take about 2e13 steps; the finest level runs first
        seen = []

        def spy(state, rhs, t, dt):
            seen.append(state)
            return rk4_step(state, rhs, t, dt)

        monkeypatch.setattr(integrators, "rk4_step", spy)
        with pytest.raises(DomainError, match=r"more than 1000000 steps"):
            convergence_study(case_cls(SolutionKind.NEW, FreeParticleSpec(q=1.5)), 40)
        assert seen == []

    def test_pde_study_over_too_many_levels_is_refused_before_sampling(self, monkeypatch):
        monkeypatch.setattr(integrators, "sample_field", no_sampling)
        with pytest.raises(DomainError, match=r"more than 0\.5 of physical memory"):
            convergence_study(PdeCase(SolutionKind.NEW, FreeParticleSpec(q=1.1)), 40)

    @pytest.mark.parametrize("case_cls", [OdeTimeCase, OdeSpaceCase, PdeCase])
    def test_level_past_the_float_range_is_a_domain_error(self, case_cls, monkeypatch):
        # 2.0**2000 overflows; the level's step underflows to 0 instead
        monkeypatch.setattr(integrators, "sample_field", no_sampling)
        with pytest.raises(DomainError):
            convergence_study(case_cls(SolutionKind.NEW, FreeParticleSpec(q=1.1)), 2000)

    def test_fit_recovers_known_slope(self):
        hs = [0.1, 0.05, 0.025]
        errs = [2.0 * h**3 for h in hs]
        assert fit_observed_order(hs, errs) == pytest.approx(3.0, rel=1e-12)

    def test_fit_accepts_errors_that_dip_and_recover(self):
        # the fit itself works on such errors; the study refuses them (below)
        order = fit_observed_order([0.1, 0.05, 0.025], [1e-3, 5e-6, 1e-5])
        assert math.isfinite(order)

    def test_study_whose_errors_do_not_fall_strictly_is_refused(self):
        class Case:
            def error(self, level):
                return 0.1 / 2**level, (1e-3, 5e-6, 5e-6)[level]

        with pytest.raises(DegenerateStudyError,
                           match=r"^the errors 0\.001, 5e-06, 5e-06 at steps 0\.1, 0\.05, "
                                 r"0\.025 do not fall strictly"):
            convergence_study(Case(), 3)
