"""The two deformed equations: their admissible q, their coefficients,
and their closed-form free-particle solutions.

* the q-power equation ("new" on the CLI), marched as
  i*hbar d(phi)/dt = H[phi^(1/q)] with phi = psi^q, separates into
  i*hbar d/dt [f^q] = lam*f and -(hbar^2/2m) g'' = lam*g^q;
* the NRT equation, i*hbar(2-q) d(psi)/dt = H[psi^(2-q)], separates
  into i*hbar(2-q) f' = lam*f^(2-q) and -(hbar^2/2m) (g^(2-q))'' = lam*g.

This module is the one place that knows each equation's admissible q
(``admits_time``, ``admits_space``, with the single pole threshold
``EPS_Q_ONE``), its separated forms (``separated_form``), its separated
time coefficient, its space root, its normalized marched form (s, coef)
and the closed form a march of it reproduces; every other layer asks it.

The closed forms are the traveling q-plane wave
``[1 + i(1-q)(px - Et)/hbar]^(1/(1-q))``, its evaluation through the
degenerate hypergeometric route, and the separated time/space factors.
All are normalized to 1 at the origin, E is always derived from p and
m, and q = 1 (within ``EPS_Q_ONE``) dispatches to the exact plane wave
limits.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from .errors import DomainError
from .fields import AffineFactor, ExpCurve, ExponentialField, PowerCurve, PowerProductField
from .qmath import EPS_Q_ONE, HypParams, hyp2f1

__all__ = [
    "FreeParticleSpec", "SolutionKind", "classical_plane_wave_field", "manufactured_field",
    "product_solution_field", "q_plane_wave_field", "q_plane_wave_hypergeometric",
    "separated_space_curve", "separated_time_curve"
]


def positive_scale(name: str, value: float) -> float:
    """``value`` as a float, or DomainError unless it is finite and
    positive: the rule for the mass ``m``, the action scale ``hbar`` and
    a study's steps and horizon."""
    if not math.isfinite(value):
        raise DomainError(f"non-finite parameter {name}")
    if value <= 0:
        raise DomainError(f"{'mass' if name == 'm' else name} must be positive, got {value}")
    return float(value)


@dataclass(frozen=True)
class FreeParticleSpec:
    """Physical parameters of a free particle: deformation q, momentum p,
    mass m and action scale hbar.  The energy is always p^2 / (2m)."""

    q: float
    p: float = 1.0
    m: float = 0.5
    hbar: float = 1.0

    def __post_init__(self) -> None:
        for name in ("q", "p"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"non-finite particle parameter {name}")
        positive_scale("m", self.m)
        positive_scale("hbar", self.hbar)

    @property
    def energy(self) -> float:
        return self.p * self.p / (2.0 * self.m)


class SolutionKind(enum.Enum):
    """Which deformed equation a separated solution belongs to."""

    NEW = "new"
    NRT = "nrt"


def is_classical(q: float) -> bool:
    """True where the deformation is indistinguishable from q = 1."""
    return abs(q - 1.0) < EPS_Q_ONE


_NAMES = {SolutionKind.NEW: "q-power", SolutionKind.NRT: "NRT"}


def admits_time(kind: SolutionKind, q: float) -> bool:
    """Whether the time factor and the marched form of ``kind`` exist at q:
    a finite q, q != 0 for the q-power equation, q != 2 for NRT."""
    pole = 0.0 if kind is SolutionKind.NEW else 2.0
    return math.isfinite(q) and abs(q - pole) >= EPS_Q_ONE


def admits_space(kind: SolutionKind, q: float) -> bool:
    """Whether the space factor of ``kind`` exists at q: a finite q, q > -1
    for the q-power equation, q != 2 and (2-q)(3-q) > 0 for NRT."""
    if kind is SolutionKind.NEW:
        return math.isfinite(q) and q > -1.0
    return admits_time(kind, q) and (2.0 - q) * (3.0 - q) > 0.0


def _require_finite_q(q: float) -> None:
    if not math.isfinite(q):
        raise DomainError(f"q must be finite, got q={q}")


def time_coefficient(kind: SolutionKind, q: float) -> float:
    """The c of the separated time factor (1 + i(1-q)E t/(c hbar))^(1/(q-1)):
    q for the q-power equation, 2 - q for NRT."""
    _require_finite_q(q)
    if not admits_time(kind, q):
        pole = "0" if kind is SolutionKind.NEW else "2"
        raise DomainError(f"the {_NAMES[kind]} time equation requires q != {pole}, got q={q}")
    return q if kind is SolutionKind.NEW else 2.0 - q


def require_space(kind: SolutionKind, q: float) -> None:
    """Raise DomainError unless ``admits_space(kind, q)``."""
    _require_finite_q(q)
    if not admits_space(kind, q):
        rule = "q > -1" if kind is SolutionKind.NEW else "q != 2 and (2-q)(3-q) > 0"
        raise DomainError(f"the {_NAMES[kind]} space equation requires {rule}, got q={q}")


def space_root(kind: SolutionKind, q: float) -> float:
    """The r of the separated space factor (1 + i(1-q)p x/(r hbar))^(2/(1-q)):
    sqrt(2(q+1)) for the q-power equation, sqrt(2(2-q)(3-q)) for NRT."""
    require_space(kind, q)
    if kind is SolutionKind.NEW:
        return math.sqrt(2.0 * (q + 1.0))
    return math.sqrt(2.0 * (2.0 - q) * (3.0 - q))


def separated_form(kind: SolutionKind, axis: str, q: float) -> tuple:
    """(coef, a, b) of the separated equation of ``kind`` along ``axis``:
    i*hbar*coef d/dt[f^a] = lam*f^b ("t") or -(hbar^2/2m)*coef (g^a)'' =
    lam*g^b ("x"), where a None differentiates the factor itself, not a
    power of it.  The q-power equation reads (1, q, 1) in time and
    (1, None, q) in space, NRT (2-q, None, 2-q) and (1, 2-q, 1)."""
    if axis == "t":
        c = time_coefficient(kind, q)
        return (1.0, q, 1.0) if kind is SolutionKind.NEW else (c, None, c)
    require_space(kind, q)
    return (1.0, None, q) if kind is SolutionKind.NEW else (1.0, 2.0 - q, 1.0)


def marched_form(kind: SolutionKind, q: float) -> tuple[float, float]:
    """(s, coef) of the normalized marched form i*hbar*coef dchi/dt = H[chi^s]:
    (1/q, 1) for the q-power equation in phi, (2-q, 2-q) for NRT."""
    c = time_coefficient(kind, q)
    return (1.0 / c, 1.0) if kind is SolutionKind.NEW else (c, c)


def manufactured_field(kind: SolutionKind, spec: FreeParticleSpec):
    """The closed form a march of ``kind`` reproduces exactly: the q-power
    equation evolves phi = (q-plane wave)^q, NRT its separated product."""
    if kind is SolutionKind.NEW:
        return q_plane_wave_field(spec).pow(spec.q)
    return product_solution_field(kind, spec)


# ---------------------------------------------------------------------------
# field / curve factories
# ---------------------------------------------------------------------------


def classical_plane_wave_field(spec: FreeParticleSpec, amplitude: complex = 1.0 + 0j):
    """exp(i(px - Et)/hbar), the q -> 1 limit of everything below."""
    return ExponentialField(
        kx=1j * spec.p / spec.hbar,
        kt=-1j * spec.energy / spec.hbar,
        amplitude=amplitude,
    )


def q_plane_wave_field(spec: FreeParticleSpec, amplitude: complex = 1.0 + 0j):
    """The traveling wave [1 + i(1-q)(px - Et)/hbar]^(1/(1-q)) as a field."""
    if is_classical(spec.q):
        return classical_plane_wave_field(spec, amplitude)
    coeff = 1j * (1.0 - spec.q) / spec.hbar
    return PowerProductField(
        [AffineFactor(cx=coeff * spec.p, ct=-coeff * spec.energy, s=1.0 / (1.0 - spec.q))],
        amplitude=amplitude,
    )


def separated_time_curve(kind: SolutionKind, spec: FreeParticleSpec):
    """The separated time factor f(t) with f(0) = 1."""
    q, E, hbar = spec.q, spec.energy, spec.hbar
    if is_classical(q):
        return ExpCurve(-1j * E / hbar)
    denom = time_coefficient(kind, q)
    return PowerCurve(c=1j * (1.0 - q) * E / (denom * hbar), s=1.0 / (q - 1.0))


def separated_space_curve(kind: SolutionKind, spec: FreeParticleSpec):
    """The separated space factor g(x) with g(0) = 1."""
    q, p, hbar = spec.q, spec.p, spec.hbar
    if is_classical(q):
        return ExpCurve(1j * p / hbar)
    root = space_root(kind, q)
    return PowerCurve(c=1j * (1.0 - q) * p / (root * hbar), s=2.0 / (1.0 - q))


def product_solution_field(kind: SolutionKind, spec: FreeParticleSpec):
    """The separated product f(t) * g(x) as a two-factor field."""
    if is_classical(spec.q):
        return classical_plane_wave_field(spec)
    f = separated_time_curve(kind, spec)
    g = separated_space_curve(kind, spec)
    return PowerProductField(
        [
            AffineFactor(cx=0j, ct=f.c, s=f.s),
            AffineFactor(cx=g.c, ct=0j, s=g.s),
        ]
    )


def closed_form(solution: str, form: str, spec: FreeParticleSpec):
    """The closed form of ``solution`` ("plane", "new" or "nrt") in ``form``:
    the field psi ("field"), phi = psi^q ("phi"), or its separated time or
    space factor ("time", "space"); the plane wave has no separated factors."""
    if form in ("time", "space"):
        if solution == "plane":
            raise DomainError("the plane wave has no separated factors")
        curve = separated_time_curve if form == "time" else separated_space_curve
        return curve(SolutionKind(solution), spec)
    psi = (q_plane_wave_field(spec) if solution == "plane"
           else product_solution_field(SolutionKind(solution), spec))
    return psi.pow(spec.q) if form == "phi" else psi


def q_plane_wave_hypergeometric(
    spec: FreeParticleSpec, gamma: float, x: float, t: float
) -> complex:
    """The same traveling wave through its hypergeometric representation.

    Evaluates 2F1(1/(q-1), gamma; gamma; i(q-1)(px - Et)/hbar); the free
    parameter gamma cancels and the value must agree with
    ``q_plane_wave_field`` for any admissible gamma.
    """
    if is_classical(spec.q):
        return classical_plane_wave_field(spec)(x, t)
    q = spec.q
    z = 1j / spec.hbar * (q - 1.0) * (spec.p * x - spec.energy * t)
    return hyp2f1(HypParams(alpha=1.0 / (q - 1.0), beta=gamma, gamma=gamma, z=z))
