"""Scaled residual checkers for every equation handled by the package.

Each checker evaluates |LHS - RHS| / max(1, |field|) of one equation,
given any sampler, at one point or, with ndarray coordinates, at every
point of a broadcast mesh in one call.  Each derivative method owns its
partials: ``partial`` differentiates a field at (x, t) or a curve at
(u,), and ``powered`` the same sampler raised to a real power.
``Analytic`` reads them off the sampler's exact closed-form partials;
``FiniteDifference`` takes central differences with Richardson
extrapolation on shifted meshes, with a step per point.

Fractional powers of field values use the sampler's continuous
logarithm when it carries one (see ``fields``); a bare callable falls
back to the principal branch, which limits its validity to the region
where the accumulated phase stays inside (-pi, pi].  The checkers take
array coordinates only from samplers that broadcast; ``scan_residual``
lifts a bare scalar callable onto arrays itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from types import SimpleNamespace
from typing import Callable, Optional, Union

import numpy as np

from .errors import DomainError
from .fields import as_sample, finite_exp, lift_sampler, require_everywhere, value_power
from .integrators import _potential_values, require_frame_memory
from .qmath import HypParams, hyp2f1, hyp2f1_deriv
from .solutions import SolutionKind, marched_form, positive_scale, require_space, time_coefficient

_EPS = np.finfo(float).eps

Potential = Optional[Callable[[float], float]]


@dataclass(frozen=True)
class ResidualReport:
    """Aggregate of a residual scan over a sample set."""

    equation: str
    max_abs: float
    l2: float
    worst_point: tuple[float, float]
    n_samples: int

    def as_dict(self) -> dict:
        return {
            "equation": self.equation,
            "max_abs": self.max_abs,
            "l2": self.l2,
            "worst_x": self.worst_point[0],
            "worst_t": self.worst_point[1],
            "n_samples": self.n_samples,
        }


# ---------------------------------------------------------------------------
# derivatives
# ---------------------------------------------------------------------------


def _fd(func, point: tuple, axis: int, order: int, method: FiniteDifference):
    """Central difference of func(*point) along coordinate ``axis``."""
    u = point[axis]
    h = method.step(order, u)
    center = func(*point) if order == 2 else None
    rows = []
    for hh in (h, h / 2.0):
        plus = func(*point[:axis], u + hh, *point[axis + 1:])
        minus = func(*point[:axis], u - hh, *point[axis + 1:])
        if order == 1:
            rows.append((plus - minus) / (2.0 * hh))
        else:
            rows.append((plus - 2.0 * center + minus) / (hh * hh))
    coarse, fine = rows
    return as_sample((4.0 * fine - coarse) / 3.0)


def fd_partial(sampler, point: tuple[float, float], axis: str, order: int,
               method: Optional[FiniteDifference] = None) -> complex:
    """Central-difference partial of a field along x or t."""
    if axis not in ("x", "t"):
        raise DomainError(f"axis must be 'x' or 't', got {axis!r}")
    return _fd(sampler, tuple(point), "xt".index(axis), order,
               method if method is not None else FiniteDifference())


@dataclass(frozen=True)
class Analytic:
    """Derivatives read straight off the sampler's exact partials: a
    field's ``d_t``/``d_x``/``d_xx`` at (x, t), a curve's ``deriv`` at (u,)."""

    def partial(self, sampler, point: tuple, axis: str, order: int):
        """d^order/d(axis)^order at a field point (x, t) or a curve point
        (u,); a curve has one coordinate and ignores ``axis``."""
        field = len(point) == 2
        try:
            if not field:
                return sampler.deriv(point[0], order)
            if axis == "t":
                return sampler.d_t(*point)
            return sampler.d_x(*point) if order == 1 else sampler.d_xx(*point)
        except AttributeError as err:
            need = ("a sampler with exact partials (d_t / d_x / d_xx)" if field
                    else "a curve with an exact deriv()")
            raise DomainError(f"Analytic derivatives need {need}") from err

    def powered(self, sampler, point: tuple, axis: str, s: float, order: int):
        """The same partial of sampler**s on the sampler's branch, by the chain rule."""
        v = sampler(*point)
        if len(point) == 2:
            require_everywhere(v != 0, "field vanished", x=point[0], t=point[1])
        else:
            require_everywhere(v != 0, "curve vanished", u=point[0])
        w = value_power(sampler, v, s, *point)
        d1 = self.partial(sampler, point, axis, 1)
        if order == 1:
            return s * w * (d1 / v)
        d2 = self.partial(sampler, point, axis, 2)
        return s * w * (d2 / v) + s * (s - 1.0) * w * (d1 / v) ** 2


@dataclass(frozen=True)
class FiniteDifference:
    """Central differences with one Richardson extrapolation.

    The steps are the classic optimal eps^(1/3) (first derivative) and
    eps^(1/4) (second derivative), scaled by max(1, |coordinate|) at each
    point; the stencils at h and h/2 combine as (4*fine - coarse)/3.
    A field's partials go through ``fd_partial``.
    """

    def step(self, order: int, coordinate):
        exponent = 1.0 / 3.0 if order == 1 else 0.25
        return _EPS**exponent * np.maximum(1.0, np.abs(coordinate))

    def partial(self, sampler, point: tuple, axis: str, order: int):
        """d^order/d(axis)^order at a field point (x, t) or a curve point (u,)."""
        if len(point) == 1:
            return _fd(sampler, point, 0, order, self)
        return fd_partial(sampler, point, axis, order, self)

    def powered(self, sampler, point: tuple, axis: str, s: float, order: int):
        """The same partial of sampler**s on the sampler's branch, differenced directly."""

        def power(*p):
            return value_power(sampler, sampler(*p), s, *p)

        return self.partial(power, point, axis, order)


DerivativeMethod = Union[Analytic, FiniteDifference]


def _scaled(resid, value):
    return as_sample(resid / np.maximum(1.0, np.abs(value)))


# ---------------------------------------------------------------------------
# point residuals
# ---------------------------------------------------------------------------


def hypergeom_ode_residual(params: HypParams) -> float:
    """Scaled residual of z(1-z)F'' + [gamma-(alpha+beta+1)z]F' - alpha*beta*F."""
    f = hyp2f1(params)
    f1 = hyp2f1_deriv(params, 1)
    f2 = hyp2f1_deriv(params, 2)
    z = params.z
    resid = (
        z * (1.0 - z) * f2
        + (params.gamma - (params.alpha + params.beta + 1.0) * z) * f1
        - params.alpha * params.beta * f
    )
    return abs(resid) / max(1.0, abs(f))


def new_nlse_residual(sampler, q: float, m: float, hbar: float,
                      point: tuple[float, float],
                      method: DerivativeMethod) -> complex:
    """i*hbar*q dF/dt - F^(1-q) * (-hbar^2/2m) d2F/dx2, scaled."""
    x, t = point
    value = sampler(x, t)
    require_everywhere(value != 0, "field vanished", x=x, t=t)
    ft = method.partial(sampler, point, "t", 1)
    fxx = method.partial(sampler, point, "x", 2)
    powered = value_power(sampler, value, 1.0 - q, x, t)
    resid = 1j * hbar * q * ft - powered * (-hbar * hbar / (2.0 * m)) * fxx
    return _scaled(resid, value)


def _normalized_power_residual(sampler, s: float, coef: float, m: float,
                               hbar: float, potential: Potential,
                               point: tuple[float, float],
                               method: DerivativeMethod) -> complex:
    """i*hbar*coef d/dt[u_n] - H[(u_n)^s], u_n = u/u(0,0), scaled."""
    x, t = point
    value = sampler(x, t)
    require_everywhere(value != 0, "field vanished", x=x, t=t)
    v0 = sampler(0.0, 0.0)
    if v0 == 0:
        raise DomainError("field vanishes at the origin; cannot normalize")
    u_t = method.partial(sampler, point, "t", 1) / v0
    # (u/u(0,0))**s on the sampler's branch
    log = getattr(sampler, "log_value", None)
    if log is not None:
        chi = finite_exp(s * (log(x, t) - log(0.0, 0.0)), "normalized power", x=x, t=t)
    else:
        chi = value_power(sampler, value / v0, s)
    chi_xx = method.powered(sampler, point, "x", s, 2) / value_power(
        sampler, v0, s, 0.0, 0.0
    )
    v = potential(x) if potential is not None else 0.0
    h_chi = -hbar * hbar / (2.0 * m) * chi_xx + v * chi
    resid = 1j * hbar * coef * u_t - h_chi
    return _scaled(resid, value)


def new_nlse_phi_residual(sampler_phi, q: float, m: float, hbar: float,
                          potential: Potential, point: tuple[float, float],
                          method: DerivativeMethod) -> complex:
    """i*hbar d/dt[phi_n] - H[(phi_n)^(1/q)], phi_n = phi/phi(0,0), scaled."""
    s, coef = marched_form(SolutionKind.NEW, q)
    return _normalized_power_residual(sampler_phi, s, coef, m, hbar, potential,
                                      point, method)


def nrt_residual(sampler_psi, q: float, m: float, hbar: float,
                 potential: Potential, point: tuple[float, float],
                 method: DerivativeMethod) -> complex:
    """i*hbar(2-q) d/dt[psi_n] - H[(psi_n)^(2-q)], psi_n = psi/psi(0,0), scaled."""
    s, coef = marched_form(SolutionKind.NRT, q)
    return _normalized_power_residual(sampler_psi, s, coef, m, hbar, potential,
                                      point, method)


def separated_time_residual(kind: SolutionKind, f, q: float, lam: float,
                            hbar: float, t, method: DerivativeMethod) -> complex:
    """Residual of the separated time equation at one time (or an array of them).

    q-power form: i*hbar d/dt[f^q] - lam*f.
    NRT form:     i*hbar(2-q) f' - lam*f^(2-q).
    """
    coef = time_coefficient(kind, q)
    value = f(t)
    require_everywhere(value != 0, "time factor vanished", t=t)
    if kind is SolutionKind.NEW:
        dfq = method.powered(f, (t,), "t", q, 1)
        resid = 1j * hbar * dfq - lam * value
    else:
        d1 = method.partial(f, (t,), "t", 1)
        powered = value_power(f, value, 2.0 - q, t)
        resid = 1j * hbar * coef * d1 - lam * powered
    return _scaled(resid, value)


def separated_space_residual(kind: SolutionKind, g, q: float, lam: float,
                             m: float, hbar: float, x,
                             method: DerivativeMethod) -> complex:
    """Residual of the separated space equation at one position (or an array).

    q-power form: -(hbar^2/2m) g'' - lam*g^q.
    NRT form:     -(hbar^2/2m) (g^(2-q))'' - lam*g.
    """
    require_space(kind, q)
    value = g(x)
    require_everywhere(value != 0, "space factor vanished", x=x)
    kinetic = -hbar * hbar / (2.0 * m)
    if kind is SolutionKind.NEW:
        d2 = method.partial(g, (x,), "x", 2)
        powered = value_power(g, value, q, x)
        resid = kinetic * d2 - lam * powered
    else:
        d2 = method.powered(g, (x,), "x", 2.0 - q, 2)
        resid = kinetic * d2 - lam * value
    return _scaled(resid, value)


# ---------------------------------------------------------------------------
# grid scans
# ---------------------------------------------------------------------------

# Every equation tag: the grid axis its scan runs along ("xt", "t" or
# "x") and its point residual.  The calls look up the module-level
# residual names each time, so a wrapper installed on them sees every
# scan's one call.
_SCANS = {
    "new-field": ("xt", lambda f, x, t, a: new_nlse_residual(
        f, a.q, a.m, a.hbar, (x, t), a.method)),
    "new-phi": ("xt", lambda f, x, t, a: new_nlse_phi_residual(
        f, a.q, a.m, a.hbar, a.potential, (x, t), a.method)),
    "nrt-field": ("xt", lambda f, x, t, a: nrt_residual(
        f, a.q, a.m, a.hbar, a.potential, (x, t), a.method)),
    "new-time": ("t", lambda f, x, t, a: separated_time_residual(
        SolutionKind.NEW, f, a.q, a.lam, a.hbar, t, a.method)),
    "nrt-time": ("t", lambda f, x, t, a: separated_time_residual(
        SolutionKind.NRT, f, a.q, a.lam, a.hbar, t, a.method)),
    "new-space": ("x", lambda f, x, t, a: separated_space_residual(
        SolutionKind.NEW, f, a.q, a.lam, a.m, a.hbar, x, a.method)),
    "nrt-space": ("x", lambda f, x, t, a: separated_space_residual(
        SolutionKind.NRT, f, a.q, a.lam, a.m, a.hbar, x, a.method)),
}


def scan_residual(equation: str, sampler, grid, method: DerivativeMethod, *,
                  q: float, m: float = 0.5, hbar: float = 1.0,
                  potential: Potential = None,
                  lam: Optional[float] = None) -> ResidualReport:
    """Evaluate one equation's residual over a grid and aggregate.

    Field equations scan the full (x, t) mesh; separated time equations
    scan the time axis and separated space ones the x axis.  Either way
    the point residual is called once, on the whole mesh; a bare scalar
    sampler (or potential) is first lifted onto arrays.  Scan order is
    t-major, then x: ``worst_point`` is the first maximum in that order,
    ``l2`` is summed in it, and a domain error (a non-finite residual
    included) names the first offending point.  ``lam`` is required for
    the separated tags.  Only ``new-phi`` and ``nrt-field`` take a
    potential, and it must be a finite real number at every grid x, as
    in ``propagate``.  The scanned axes are bounded by
    ``require_frame_memory``, as the frames of a march on the grid are.
    """
    if equation not in _SCANS:
        raise DomainError(
            f"unknown equation tag {equation!r}; expected one of {tuple(_SCANS)}"
        )
    axis, point_residual = _SCANS[equation]
    if axis != "xt" and lam is None:
        raise DomainError(f"equation {equation!r} needs the separation constant lam")
    if potential is not None and equation not in ("new-phi", "nrt-field"):
        raise DomainError(f"equation {equation!r} has no potential term")
    m, hbar = positive_scale("m", m), positive_scale("hbar", hbar)

    # the axes read are refused as a march's frames are, before any array
    require_frame_memory(0 if axis == "x" else grid.n_steps, 1 if axis == "t" else grid.n_points,
                         "scan mesh")
    if potential is not None:
        _potential_values(potential, grid.x_values())  # refused where propagate refuses it
        potential = lift_sampler(potential)
    args = SimpleNamespace(q=q, m=m, hbar=hbar, potential=potential, lam=lam,
                           method=method)
    if axis == "t":
        t = grid.t_values()
        x = np.zeros_like(t)
    elif axis == "x":
        x = grid.x_values()
        t = np.zeros_like(x)
    else:
        x, t = np.meshgrid(grid.x_values(), grid.t_values())
    if x.size == 0:
        raise DomainError("empty scan grid")

    try:
        # a non-finite residual is reported below, by point, not warned about
        with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
            r = np.abs(point_residual(lift_sampler(sampler), x, t, args))
    except DomainError as err:
        raise DomainError(f"{err} [while scanning {equation}]") from err
    r = np.broadcast_to(r, x.shape).ravel()
    finite = np.isfinite(r)
    if not finite.all():
        k = int(np.argmin(finite))
        raise DomainError(f"residual not finite at (x={float(x.flat[k])!r}, "
                          f"t={float(t.flat[k])!r}): {r[k]} [while scanning {equation}]")
    worst = int(np.argmax(r))
    return ResidualReport(
        equation=equation,
        max_abs=float(r[worst]),
        l2=math.sqrt(np.cumsum(r * r)[-1]),
        worst_point=(float(x.flat[worst]), float(t.flat[worst])),
        n_samples=r.size,
    )
