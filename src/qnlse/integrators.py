"""Numerical integration: RK4 for the separated factors and a
method-of-lines propagator for the two deformed field equations.

The separated equations are those of ``solutions.separated_form``,
recast as explicit first-order systems: f' = lam*f^(2-q)/(i*hbar*c) for
a time factor, and (u, u') with u = g^a for a space factor.  Their RK4
steps complex scalars: one for a time factor, the pair for a space one.

The propagator applies a second-order central Laplacian on the
interior, the pointwise fractional power of the field on its tracked
branch, and classical RK4 in time, with Dirichlet values injected from
a boundary source at every stage.  Manufactured boundary/initial data
from the closed forms turn it into a verifiable scheme.

Each study case (``OdeTimeCase``, ``OdeSpaceCase``, ``PdeCase``) owns
its error: ``case.error(level)`` gives (step, error) at one refinement
level, and ``convergence_study`` fits the observed order over levels.
"""

from __future__ import annotations

import cmath
import itertools
import math
import numbers
import operator
import os
import warnings
from dataclasses import dataclass
from typing import Callable, Iterator, NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels
from ._kernels import TWO_PI
from .errors import DegenerateStudyError, DomainError, PropagationError
from .fields import lift_sampler
from .solutions import (
    FreeParticleSpec,
    SolutionKind,
    manufactured_field,
    marched_form,
    positive_scale,
    separated_form,
    separated_space_curve,
    separated_time_curve,
    space_root,
    time_coefficient,
)

__all__ = [
    "ConvergenceReport", "Frame", "GridSpec", "OdeSpaceCase", "OdeTimeCase", "PdeCase",
    "Trajectory", "convergence_study", "fit_observed_order", "integrate_separated_space",
    "integrate_separated_time", "interior_linf_error", "propagate", "rk4_step", "sample_field",
    "stream_frames"
]

# Explicit diffusive-scaling heuristic for the time step; exceeding it
# warns (the RK4 imaginary-axis limit is roomier) but does not abort.
STABILITY_SAFETY = 0.2

# Work is bounded before it starts: propagate and stream_frames refuse a
# march whose frames would take more than this share of physical memory
# (stream_frames holds one block of them, so there it bounds the work and
# the output), and the separated integrators refuse more steps than this
# (each step keeps its state).
FRAME_MEMORY_SHARE = 0.5
MAX_SEPARATED_STEPS = 1_000_000


def require_interval(x_min: float, x_max: float) -> None:
    """Reject bounds that are not finite or not increasing."""
    if not (math.isfinite(x_min) and math.isfinite(x_max)):
        raise DomainError("grid bounds must be finite")
    if x_max <= x_min:
        raise DomainError("x_max must exceed x_min")


@dataclass(frozen=True)
class GridSpec:
    """Uniform space-time grid: n_points across [x_min, x_max], n_steps
    time steps of size dt.  n_steps = 0 is allowed (initial frame only)."""

    x_min: float
    x_max: float
    n_points: int
    dt: float
    n_steps: int

    def __post_init__(self) -> None:
        require_interval(self.x_min, self.x_max)
        for name in ("n_points", "n_steps"):
            value = getattr(self, name)
            try:
                operator.index(value)
            except TypeError:
                raise DomainError(f"{name} must be an integer, got {value!r}") from None
        if self.n_points < 3:
            raise DomainError("n_points must be at least 3")
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise DomainError("dt must be positive")
        if self.n_steps < 0:
            raise DomainError("n_steps must be non-negative")
        try:
            span = self.dt * self.n_steps
        except OverflowError:  # n_steps beyond any float
            span = math.inf
        if not math.isfinite(span):
            raise DomainError(f"the time span dt * n_steps must be finite, got dt={self.dt!r}")

    @property
    def dx(self) -> float:
        return (self.x_max - self.x_min) / (self.n_points - 1)

    def x_values(self) -> np.ndarray:
        return np.linspace(self.x_min, self.x_max, self.n_points)

    def t_values(self, t0: float = 0.0) -> np.ndarray:
        return t0 + self.dt * np.arange(self.n_steps + 1)


class Frame(NamedTuple):
    """The field on the spatial grid at one instant: ``sample_field``'s
    result, ``propagate``'s initial frame, one row of a ``Trajectory``
    or a frame of ``stream_frames`` (``values`` is then a view, not a
    copy)."""

    grid: GridSpec
    t: float
    values: np.ndarray


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Every frame of one march: ``values[k]`` is the field at ``t0 + k*dt``.

    A sequence of ``Frame``s: ``len``, ``traj[k]`` (negative k too) and
    iteration.  ``times()`` gives each frame's t as a Python float.
    """

    grid: GridSpec
    t0: float
    values: np.ndarray

    @property
    def dt(self) -> float:
        return self.grid.dt

    def times(self) -> list[float]:
        return self.grid.t_values(self.t0).tolist()

    def __len__(self) -> int:
        return self.values.shape[0]

    def __getitem__(self, k: int) -> Frame:
        k = range(len(self))[k]
        return Frame(self.grid, float(self.t0 + k * self.dt), self.values[k])

    def __iter__(self) -> Iterator[Frame]:
        return map(Frame, itertools.repeat(self.grid), self.times(), self.values)


@dataclass(frozen=True)
class ConvergenceReport:
    """Error-vs-resolution record with a fitted order of accuracy."""

    resolutions: tuple[float, ...]
    errors: tuple[float, ...]
    observed_order: float
    monotone: bool

    def as_dict(self) -> dict:
        out = {"observed_order": self.observed_order, "monotone": int(self.monotone)}
        for i, (r, e) in enumerate(zip(self.resolutions, self.errors)):
            out[f"resolution_{i}"] = r
            out[f"error_{i}"] = e
        return out


def fit_observed_order(resolutions: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of log(error) against log(resolution), in closed
    form: sum((x - mean x)(y - mean y)) / sum((x - mean x)^2) over the
    ``math.log`` values, each sum and mean a ``math.fsum``."""
    res = [float(r) for r in resolutions]
    errs = [float(e) for e in errors]
    if len(res) != len(errs) or len(res) < 2:
        raise DegenerateStudyError("need at least two (resolution, error) pairs")
    if not all(map(math.isfinite, res + errs)):
        raise DegenerateStudyError("resolutions and errors must be finite to fit a slope")
    if any(v <= 0 for v in res + errs):
        raise DegenerateStudyError("resolutions and errors must be positive to fit a "
                                   "log-log slope")
    xs, ys = [math.log(r) for r in res], [math.log(e) for e in errs]
    if len(set(xs)) != len(xs):
        raise DegenerateStudyError("resolutions whose logs coincide make the fit degenerate")
    x_mean, y_mean = math.fsum(xs) / len(xs), math.fsum(ys) / len(ys)
    dxs = [x - x_mean for x in xs]
    return (math.fsum(dx * (y - y_mean) for dx, y in zip(dxs, ys))
            / math.fsum(dx * dx for dx in dxs))


# ---------------------------------------------------------------------------
# RK4
# ---------------------------------------------------------------------------


def rk4_step(state, rhs: Callable, t: float, dt: float):
    """One classical Runge-Kutta step of d(state)/dt = rhs(t, state).

    ``state`` is a complex number, an ndarray, or a pair of complex
    numbers (a first-order system, such as (g, g')), and ``rhs`` returns
    the same kind.  A pair is updated component by component; every
    update is ``y + a*k``, and the slope is ``k1 + 2 k2 + 2 k3 + 1.0*k4``
    summed left to right.  An overflow in a stage or a non-finite new
    state raises ``PropagationError``.
    """
    half, sixth = 0.5 * dt, dt / 6.0
    try:
        if type(state) is tuple:
            u, v = state
            ku1, kv1 = rhs(t, state)
            ku2, kv2 = rhs(t + half, (u + half * ku1, v + half * kv1))
            ku3, kv3 = rhs(t + half, (u + half * ku2, v + half * kv2))
            ku4, kv4 = rhs(t + dt, (u + dt * ku3, v + dt * kv3))
            new = (u + sixth * (((ku1 + 2.0 * ku2) + 2.0 * ku3) + 1.0 * ku4),
                   v + sixth * (((kv1 + 2.0 * kv2) + 2.0 * kv3) + 1.0 * kv4))
            finite = cmath.isfinite(new[0]) and cmath.isfinite(new[1])
        else:
            k1 = rhs(t, state)
            k2 = rhs(t + half, state + half * k1)
            k3 = rhs(t + half, state + half * k2)
            k4 = rhs(t + dt, state + dt * k3)
            new = state + sixth * (((k1 + 2.0 * k2) + 2.0 * k3) + 1.0 * k4)
            finite = (bool(np.isfinite(new).all()) if isinstance(new, np.ndarray)
                      else cmath.isfinite(new))
    except OverflowError as err:
        raise PropagationError(f"RK4 step dt={dt} at t={t} overflowed: {err}") from err
    if not finite:
        raise PropagationError(f"RK4 step dt={dt} at t={t} produced a non-finite value")
    return new


class _TrackedPower:
    """Continuous-branch power of a scalar trajectory value.

    ``theta`` holds the unwrapped argument of the previous accepted
    state; stage values are unwrapped relative to it (``_phase_step``).
    """

    def __init__(self, initial: complex):
        self.theta = cmath.phase(initial)

    def _phase_step(self, value: complex) -> float:
        """Argument of ``value`` relative to ``theta``, wrapped into [-pi, pi]."""
        d = cmath.phase(value) - self.theta
        return d - TWO_PI * round(d / TWO_PI)

    def __call__(self, value: complex, s: float) -> complex:
        r = abs(value)
        if r == 0.0:
            raise DomainError("trajectory value reached zero (fractional power undefined)")
        if s == 1.0:
            return value
        if not math.isfinite(r):
            # an earlier stage overflowed; its phase is meaningless
            raise OverflowError(f"trajectory value {value} is not finite")
        ang = s * (self.theta + self._phase_step(value))
        return r**s * complex(math.cos(ang), math.sin(ang))

    def advance(self, value: complex) -> None:
        self.theta += self._phase_step(value)


def _step_count(span: float, step: float) -> int:
    """Steps of size about ``step`` across ``span`` (either sign), at most
    ``MAX_SEPARATED_STEPS``."""
    if not math.isfinite(span):
        raise DomainError(f"integration span must be finite, got {span}")
    if span == 0.0:
        return 0
    if not step > 0:
        raise DomainError("step size must be positive")
    steps = abs(span) / step
    if not steps <= MAX_SEPARATED_STEPS:
        raise DomainError(f"a span of {span} in steps of {step} takes more than "
                          f"{MAX_SEPARATED_STEPS} steps")
    return max(1, round(steps))


def _separated_trajectory(axis: str, state, scale: complex, power: float, back: float,
                          span: float, step: float) -> list[tuple[float, complex]]:
    """RK4 trajectory [(0, 1), (h, y(h)), ...] of one separated factor
    across ``span`` in steps of about ``step``.  In time ("t") the state
    is f, with f' = scale * f^power; in space ("x") it is the pair
    (u, u'), with u'' = scale * u^power.  Each point maps its f or u back
    to the factor as f^back or u^back, on the tracked branch."""
    name = "time" if axis == "t" else "space"
    n = _step_count(span, step)
    trajectory = [(0.0, 1.0 + 0j)]
    if n == 0:
        return trajectory
    h = span / n
    tracker = _TrackedPower(1.0 + 0j)
    if axis == "t":
        rhs = lambda _t, y: scale * tracker(y, power)
    else:
        rhs = lambda _x, y: (y[1], scale * tracker(y[0], power))
    for k in range(n):
        state = rk4_step(state, rhs, k * h, h)
        y = state if axis == "t" else state[0]
        if y == 0:
            raise DomainError(f"{name} factor reached zero at {axis}={(k + 1) * h}")
        tracker.advance(y)
        try:
            trajectory.append(((k + 1) * h, tracker(y, back)))
        except OverflowError as err:
            raise PropagationError(f"{name} factor overflowed at {axis}={(k + 1) * h}: "
                                   f"{err}") from err
    return trajectory


def integrate_separated_time(kind: SolutionKind, q: float, lam: float,
                             hbar: float, t_end: float, dt: float
                             ) -> list[tuple[float, complex]]:
    """RK4 trajectory of the separated time factor from f(0) = 1, as
    f' = lam * f^(2-q) / (i*hbar*time_coefficient), which is each
    equation's ``separated_form`` along "t" solved for f'."""
    q, lam = float(q), float(lam)
    hbar = positive_scale("hbar", hbar)
    coef = time_coefficient(kind, q)
    return _separated_trajectory("t", 1.0 + 0j, lam / (1j * hbar * coef), 2.0 - q, 1.0,
                                 t_end, dt)


def integrate_separated_space(kind: SolutionKind, q: float, lam: float,
                              m: float, hbar: float, x_end: float, dx: float
                              ) -> list[tuple[float, complex]]:
    """RK4 trajectory of the separated space factor from g(0) = 1.

    For the ``separated_form`` (coef, a, b) along "x" it integrates the
    pair (u, u') of u = g^a (a = 1 where g itself is differentiated), with
    u'' = -(2m*lam/(hbar^2*coef)) u^(b/a), from u'(0) = a*g'(0) of the
    closed form, and maps back g = u^(1/a).
    """
    q, lam = float(q), float(lam)
    m, hbar = positive_scale("m", m), positive_scale("hbar", hbar)
    if lam <= 0:
        raise DomainError("the separated space integration needs lam > 0")
    coef, a, b = separated_form(kind, "x", q)
    a = 1.0 if a is None else a
    g_slope0 = 2j * math.sqrt(2.0 * m * lam) / (hbar * space_root(kind, q))
    return _separated_trajectory("x", (1.0 + 0j, a * g_slope0),
                                 -2.0 * m * lam / (hbar * hbar * coef), b / a, 1.0 / a,
                                 x_end, dx)


# ---------------------------------------------------------------------------
# method-of-lines propagation
# ---------------------------------------------------------------------------


def _initial_theta(values: np.ndarray, xs: np.ndarray, t0: float, boundary) -> np.ndarray:
    """Continuous argument of the initial frame.

    Spatial unwrap fixes the profile up to a global multiple of 2*pi;
    the anchor comes from the boundary source's continuous logarithm if
    it has one, else the principal argument at the point nearest x = 0.
    """
    theta = np.unwrap(np.angle(values))
    log = getattr(boundary, "log_value", None)
    if log is not None:
        target = log(float(xs[0]), t0).imag
        shift = round((target - theta[0]) / TWO_PI)
    else:
        anchor = int(np.argmin(np.abs(xs)))
        target = math.atan2(values[anchor].imag, values[anchor].real)
        shift = round((target - theta[anchor]) / TWO_PI)
    return theta + TWO_PI * shift


def _physical_memory() -> Optional[int]:
    """Bytes of physical memory, or None where the platform does not say."""
    try:
        return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return None


def _count(n: int) -> str:
    """``n`` in full up to 16 digits, else as ``1.23e+45`` (truncated)."""
    digits = str(n)
    return digits if len(digits) <= 16 else f"{digits[0]}.{digits[1:3]}e+{len(digits) - 1}"


def require_frame_memory(n_steps: int, n_points: int, what: str = "frames") -> None:
    """Refuse a march whose frames, ``(n_steps + 1) * n_points * 16``
    bytes, would take more than ``FRAME_MEMORY_SHARE`` of physical memory,
    whether it holds them all (``propagate``) or streams them
    (``stream_frames``, where the limit bounds the work and the output).
    The message names ``what`` those bytes would hold."""
    frame_bytes = (n_steps + 1) * n_points * 16
    memory = _physical_memory()
    if memory is not None and frame_bytes > FRAME_MEMORY_SHARE * memory:
        raise DomainError(
            f"{_count(n_steps)} steps on {_count(n_points)} points need {_count(frame_bytes)} "
            f"bytes of {what}, more than {FRAME_MEMORY_SHARE:g} of physical memory "
            f"({memory} bytes)"
        )


def propagate(equation: SolutionKind, initial: Frame, q: float, m: float,
              hbar: float, boundary,
              potential: Optional[Callable[[float], float]] = None) -> Trajectory:
    """March the chosen deformed equation from an initial frame.

    q-power form:  i*hbar  d(phi)/dt = H[phi^(1/q)]  (phi normalized at origin);
    NRT form:      i*hbar(2-q) d(psi)/dt = H[psi^(2-q)].

    The boundary source supplies exact Dirichlet values at both grid
    ends for every RK4 stage time.  Returns the field after every step,
    the initial frame included, as one ``Trajectory`` whose ``values`` is
    the array the kernel marched into.  The initial frame must match the
    grid and be finite and nonzero everywhere, 1/dx^2 must be finite, and
    the frames, ``(n_steps + 1) * n_points * 16`` bytes, may take at most
    ``FRAME_MEMORY_SHARE`` of physical memory.  The potential must be a
    finite real number at every grid point.  ``stream_frames`` is the same
    march, handed on one checked block at a time.
    """
    args = _march_args(equation, initial, q, m, hbar, boundary, potential)
    return Trajectory(initial.grid, initial.t, _kernels.propagate_frames(*args))


def stream_frames(equation: SolutionKind, initial: Frame, q: float, m: float,
                  hbar: float, boundary,
                  potential: Optional[Callable[[float], float]] = None) -> Iterator[Frame]:
    """``propagate``'s march as an iterator of its ``Frame``s, bit for bit,
    with memory bounded for any step count.

    The inputs are checked, and the step-size warning given, at the call,
    as in ``propagate``; the frame-memory limit here bounds the work and
    the output.  The march runs as its frames are asked for, one block of
    ``BLOCK_ROWS`` steps at a time, into a buffer of
    ``min(n_steps, BLOCK_ROWS) + 1`` rows.  A frame's ``values`` is a view
    of it, which the next block overwrites: copy it to keep it (the last
    frame's stays).  A block's frames come only after its check has
    passed, so a march that fails raises ``PropagationError`` after the
    frames of the whole blocks before its failing step's block.
    """
    args = _march_args(equation, initial, q, m, hbar, boundary, potential)
    grid = initial.grid
    buffer = np.empty((min(grid.n_steps, _kernels.BLOCK_ROWS) + 1, grid.n_points),
                      dtype=np.complex128)
    rows = itertools.chain.from_iterable(_kernels.propagate_frames(*args, buffer))
    times = (float(initial.t + k * grid.dt) for k in itertools.count())
    return map(Frame, itertools.repeat(grid), times, rows)


def _march_args(equation, initial, q, m, hbar, boundary, potential) -> tuple:
    """The kernel's arguments for the march ``propagate`` and
    ``stream_frames`` describe: the checked inputs, the boundary tables
    and the initial frame's continuous phase."""
    grid = initial.grid
    s, coef = marched_form(equation, q)
    m, hbar = positive_scale("m", m), positive_scale("hbar", hbar)

    values = np.asarray(initial.values, dtype=np.complex128)
    if values.shape != (grid.n_points,):
        raise DomainError(
            f"field length {values.shape} does not match grid ({grid.n_points} points)"
        )
    if not np.isfinite(values).all():
        raise DomainError("field values must be finite")
    if np.any(values == 0):
        raise DomainError("initial field must be nonzero everywhere")
    require_frame_memory(grid.n_steps, grid.n_points)

    dx = grid.dx
    inv_dx2 = 1.0 / (dx * dx) if dx * dx else math.inf
    if not math.isfinite(inv_dx2):
        raise DomainError(f"dx={dx:g} is too small to march: 1/dx^2 is not finite")
    limit = STABILITY_SAFETY * dx * dx * m / hbar
    if grid.n_steps > 0 and grid.dt > limit:
        warnings.warn(
            f"dt={grid.dt:g} exceeds the diffusive-scaling heuristic "
            f"{limit:g} = {STABILITY_SAFETY}*dx^2*m/hbar; the explicit scheme "
            "may be inaccurate or unstable",
            RuntimeWarning,
            stacklevel=3,  # the caller of propagate or stream_frames
        )

    xs = grid.x_values()
    pot = np.zeros(grid.n_points) if potential is None else _potential_values(potential, xs)
    n_steps = grid.n_steps
    # boundary values at every stage time (t_k, t_k + dt/2, t_k + dt)
    t_k = initial.t + np.arange(n_steps) * grid.dt
    tau = np.stack([t_k, t_k + 0.5 * grid.dt, t_k + grid.dt], axis=1)
    source = lift_sampler(boundary)
    bl, br = source(float(xs[0]), tau), source(float(xs[-1]), tau)

    theta0 = _initial_theta(values, xs, initial.t, boundary)
    return (values, theta0, s, -1j / (hbar * coef), -hbar * hbar / (2.0 * m),
            inv_dx2, pot, grid.dt, n_steps, bl, br)


def _potential_values(potential, xs):
    """The potential at each grid point, as floats; DomainError at the
    first point where it is not a finite real number."""
    values = []
    for x in xs.tolist():
        value = potential(x)
        if not isinstance(value, numbers.Real):
            raise DomainError(f"potential is not a real number at x={x!r}")
        try:
            value = float(value)
        except OverflowError:  # an int beyond every float
            value = math.inf
        if not math.isfinite(value):
            raise DomainError(f"potential is not finite at x={x!r}")
        values.append(value)
    return np.array(values)


def sample_field(field, grid: GridSpec, t: float) -> Frame:
    """Evaluate a field on a grid at one time, in one array call."""
    return Frame(grid, t, lift_sampler(field)(grid.x_values(), t))


def interior_linf_error(frame: Frame, exact_field) -> float:
    """Max interior-point distance between a frame and a closed form."""
    xs = frame.grid.x_values()[1:-1]
    return float(np.max(np.abs(frame.values[1:-1] - lift_sampler(exact_field)(xs, frame.t))))


# ---------------------------------------------------------------------------
# convergence studies
# ---------------------------------------------------------------------------


def _refined_step(name: str, step0: float, level: int) -> float:
    """``step0 / 2**level``, or DomainError once that underflows to zero."""
    step = math.ldexp(step0, -level)
    if step == 0.0 and step0 != 0.0:
        raise DomainError(f"refinement level {level} takes {name}0={step0:g} down to "
                          f"{name}=0: the step underflows")
    return step


@dataclass(frozen=True)
class OdeTimeCase:
    """Separated time factor vs its closed form at t_end."""

    kind: SolutionKind
    spec: FreeParticleSpec
    t_end: float = 1.0
    dt0: float = 0.05

    def error(self, level: int) -> tuple[float, float]:
        """(dt, |RK4 - closed form| at t_end) at refinement ``level``."""
        dt, spec = _refined_step("dt", self.dt0, level), self.spec
        traj = integrate_separated_time(self.kind, spec.q, spec.energy, spec.hbar,
                                        self.t_end, dt)
        return dt, abs(traj[-1][1] - separated_time_curve(self.kind, spec)(self.t_end))


@dataclass(frozen=True)
class OdeSpaceCase:
    """Separated space factor vs its closed form at x_end."""

    kind: SolutionKind
    spec: FreeParticleSpec
    x_end: float = 1.0
    dx0: float = 0.05

    def error(self, level: int) -> tuple[float, float]:
        """(dx, |RK4 - closed form| at x_end) at refinement ``level``."""
        dx, spec = _refined_step("dx", self.dx0, level), self.spec
        traj = integrate_separated_space(self.kind, spec.q, spec.energy, spec.m,
                                         spec.hbar, self.x_end, dx)
        return dx, abs(traj[-1][1] - separated_space_curve(self.kind, spec)(self.x_end))


@dataclass(frozen=True)
class PdeCase:
    """Manufactured-solution propagation, refined in space.

    dt stays fixed (choose it small enough that the fourth-order time
    error is subdominant) while dx halves per level.  The default
    horizon t_final = 0.002 keeps the march inside the stable horizon
    (README, "Propagation horizon"); at t_final = 0.1 the refined levels
    blow up instead of converging.
    """

    equation: SolutionKind
    spec: FreeParticleSpec
    x_min: float = -5.0
    x_max: float = 5.0
    dx0: float = 0.2
    dt: float = 1e-4
    t_final: float = 0.002

    def __post_init__(self) -> None:
        require_interval(self.x_min, self.x_max)
        for name in ("dx0", "dt", "t_final"):
            positive_scale(name, getattr(self, name))

    def error(self, level: int) -> tuple[float, float]:
        """(dx, interior max error of the last frame) at refinement ``level``."""
        dx = math.ldexp(self.dx0, -level)  # 0.0 once the level is past the float range
        spans = (self.x_max - self.x_min) / dx if dx else math.inf
        steps = self.t_final / self.dt
        if not (math.isfinite(spans) and math.isfinite(steps)):
            raise DomainError(f"dx={dx:g} and dt={self.dt:g} give no finite grid on "
                              f"[{self.x_min:g}, {self.x_max:g}] up to t={self.t_final:g}")
        n_points = max(3, round(spans) + 1)
        n_steps = max(1, round(steps))
        # the grid is sampled before propagate could refuse it
        require_frame_memory(n_steps, n_points)
        grid = GridSpec(self.x_min, self.x_max, n_points, self.dt, n_steps)
        exact = manufactured_field(self.equation, self.spec)
        traj = propagate(self.equation, sample_field(exact, grid, 0.0), self.spec.q,
                         self.spec.m, self.spec.hbar, boundary=exact)
        return dx, interior_linf_error(traj[-1], exact)


def convergence_study(case, refinement_levels: int = 3) -> ConvergenceReport:
    """Halve the case's discretization per level and fit the observed order.

    The levels are independent, so the finest runs first: a study the
    case refuses (too many steps or too large frames) raises before any
    level has run.
    """
    if refinement_levels < 2:
        raise DegenerateStudyError("a convergence study needs at least two levels")
    finest_first = [case.error(level) for level in reversed(range(refinement_levels))]
    resolutions, errors = zip(*reversed(finest_first))
    order = fit_observed_order(resolutions, errors)
    monotone = all(errors[i + 1] < errors[i] for i in range(len(errors) - 1))
    return ConvergenceReport(
        resolutions=resolutions,
        errors=errors,
        observed_order=order,
        monotone=monotone,
    )
