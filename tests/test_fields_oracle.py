"""The closed forms' calculus against mpmath: each value and exact partial
of a power-product field or curve, compared at 50 digits with the same
formula, differentiated by ``mpmath.diff``.

The formula is read off the object's own coefficients, so this checks
the calculus (value, log, power rule), not the solution it was built
for; the residual tests check that.  The bound is on the relative
forward error of one evaluation in double precision.
"""

import mpmath
import pytest

from qnlse.solutions import (
    FreeParticleSpec,
    SolutionKind,
    admits_space,
    admits_time,
    product_solution_field,
    q_plane_wave_field,
    separated_space_curve,
    separated_time_curve,
)

QS = (0.5, 0.9, 1.1, 1.5, 2.5)
FIELD_POINTS = ((-1.7, 0.25), (0.3, 1.3), (2.9, 0.0), (4.0, -0.6))
CURVE_POINTS = (-2.3, 0.0, 0.7, 4.0)
# The worst error measured is 9.2e-16 (d_x of a field), about 4 ulps: the
# exponents reach |s| = 20, which amplifies the rounding of each base.
# Rounding every base one ulp up, (1 + cx*x + ct*t) * (1 + 2**-52), moves
# the worst of each of the seven quantities to 2.4e-15 - 5.3e-15, at
# q = 0.9 and 1.1 (|s| = 10 and 20), so the bound keeps a margin of about
# 2 and still fails that perturbation there.
REL_BOUND = 2e-15


def rel_error(got: complex, exact) -> float:
    return float(abs(mpmath.mpc(got) - exact) / abs(exact))


def field_formula(field, x, t):
    """The field at (x, t), from its amplitude, kx, kt and factors, in mpmath."""
    log = mpmath.log(field.amplitude) + field.kx * x + field.kt * t
    for f in field.factors:
        log += f.s * mpmath.log(1 + f.cx * x + f.ct * t)
    return mpmath.exp(log)


def curve_formula(curve, u):
    """A * exp(k*u) * (1 + c*u) ** s, from the curve's attributes, in mpmath."""
    return curve.amplitude * mpmath.exp(curve.k * u + curve.s * mpmath.log(1 + curve.c * u))


def fields_at(q):
    spec = FreeParticleSpec(q=q)
    kinds = [kind for kind in SolutionKind if admits_time(kind, q) and admits_space(kind, q)]
    return [q_plane_wave_field(spec)] + [product_solution_field(kind, spec) for kind in kinds]


def curves_at(q):
    spec = FreeParticleSpec(q=q)
    return ([separated_time_curve(kind, spec) for kind in SolutionKind if admits_time(kind, q)]
            + [separated_space_curve(kind, spec) for kind in SolutionKind
               if admits_space(kind, q)])


@pytest.mark.parametrize("q", QS)
def test_field_calculus_matches_mpmath(q):
    with mpmath.workdps(50):
        for field in fields_at(q):
            for x, t in FIELD_POINTS:
                cases = [
                    (field(x, t), field_formula(field, x, t)),
                    (field.d_t(x, t), mpmath.diff(lambda s: field_formula(field, x, s), t)),
                    (field.d_x(x, t), mpmath.diff(lambda s: field_formula(field, s, t), x)),
                    (field.d_xx(x, t), mpmath.diff(lambda s: field_formula(field, s, t), x, 2)),
                ]
                for got, exact in cases:
                    assert rel_error(got, exact) <= REL_BOUND


@pytest.mark.parametrize("q", QS)
def test_curve_calculus_matches_mpmath(q):
    with mpmath.workdps(50):
        for curve in curves_at(q):
            for u in CURVE_POINTS:
                exact = [mpmath.diff(lambda s: curve_formula(curve, s), u, n) for n in (0, 1, 2)]
                for got, want in zip((curve(u), curve.deriv(u, 1), curve.deriv(u, 2)), exact):
                    assert rel_error(got, want) <= REL_BOUND
