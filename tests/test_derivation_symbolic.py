"""The paper's derivation, symbolically: the q-exponential as a 2F1, each
equation separated into its time and space equations, and every closed
form of ``solutions`` checked against its equation, in sympy.

Each equation is stated once, as the paper and Nobre, Rego-Monteiro &
Tsallis (PRL 106, 140601 (2011)) write it for a free particle:

    q-power:  i*hbar       d/dt [psi^q] = -(hbar^2/2m) d2/dx2 [psi]
    NRT:      i*hbar*(2-q) d/dt [psi]   = -(hbar^2/2m) d2/dx2 [psi^(2-q)]

that is i*hbar*T d/dt[psi^P] = -(hbar^2/2m) d2/dx2[psi^R] with (T, P, R)
of ``EQUATIONS``.  Everything else is derived here from those lines and
compared with ``solutions``: the separated forms, the time coefficient,
the space root, the marched form and where each exists.  A closed form is
read off its object's coefficients, each made exact by ``nsimplify`` and
checked to round back to the float, so the check covers the object, not
a formula copied from the module.  A power of a closed form is taken on
its continuous branch: each bracket 1 + cx*x + ct*t is a positive symbol
whose x and t derivatives are cx and ct.
"""

import functools

import pytest

sp = pytest.importorskip("sympy")

from qnlse.solutions import (  # noqa: E402
    FreeParticleSpec,
    SolutionKind,
    admits_space,
    admits_time,
    classical_plane_wave_field,
    manufactured_field,
    marched_form,
    product_solution_field,
    q_plane_wave_field,
    separated_form,
    separated_space_curve,
    separated_time_curve,
    space_root,
    time_coefficient,
)

q, x, t, u, lam, hbar, m, p = sp.symbols("q x t u lambda hbar m p", positive=True)
NEW, NRT = SolutionKind.NEW, SolutionKind.NRT

# (T, P, R) of i*hbar*T d/dt[psi^P] = -(hbar^2/2m) d2/dx2[psi^R]
EQUATIONS = {NEW: (1, q, 1), NRT: (2 - q, 1, 2 - q)}

QS = [sp.Rational(1, 2), sp.Rational(3, 2), sp.Rational(5, 4), sp.Rational(1, 3),
      sp.Rational(7, 2)]
# the particle of every closed form: p = 3/2, m = 1/2, hbar = 1/2, so E = 9/4
SPEC = dict(p=1.5, m=0.5, hbar=0.5)
PARTICLE = {p: sp.Rational(3, 2), m: sp.Rational(1, 2), hbar: sp.Rational(1, 2)}


def equation_at(kind, qv):
    return [sp.sympify(v).subs(q, qv) for v in EQUATIONS[kind]]


def exact(value: complex):
    """``value`` as an exact number, which must round back to it."""
    value = complex(value)
    out = sp.nsimplify(value.real) + sp.I * sp.nsimplify(value.imag)
    assert abs(complex(out) - value) <= 4e-16 * abs(value)
    return out


def d(expr, var, chain):
    """d(expr)/d(var), with each bracket symbol b of ``chain`` moving at chain[b]."""
    return sp.diff(expr, var) + sum(sp.diff(expr, b) * db for b, db in chain.items())


def combined(expr):
    """``expr`` with the powers of each positive symbol merged into one."""
    merged = sp.powsimp(sp.powdenest(expr, force=True), force=True)
    return sp.cancel(merged.replace(lambda e: e.is_Pow, lambda e: e.base ** sp.cancel(e.exp)))


def vanishes(expr) -> bool:
    return combined(expr) == 0


# ---------------------------------------------------------------------------
# the q-exponential as a 2F1
# ---------------------------------------------------------------------------


def test_q_exponential_is_a_hypergeometric_function():
    z, b = sp.symbols("z b")
    series = sp.hyper([-1 / (1 - q), b], [b], -(1 - q) * z)
    assert sp.simplify(sp.hyperexpand(series) - (1 + (1 - q) * z) ** (1 / (1 - q))) == 0


def test_the_degenerate_2f1_solves_the_hypergeometric_ode():
    # z(1-z)F'' + [c - (a+b+1)z]F' - abF = 0 at b = c, for F = (1-z)**(-a),
    # written in v = 1 - z, so that d/dz = -d/dv
    v, a, c = sp.symbols("v a c", positive=True)
    z, f = 1 - v, v ** (-a)
    ode = z * (1 - z) * f.diff(v, 2) - (c - (a + c + 1) * z) * f.diff(v) - a * c * f
    assert vanishes(ode / f)


# ---------------------------------------------------------------------------
# separation of variables
# ---------------------------------------------------------------------------


def separated_sides(kind, qv):
    """(f, g, time side, space side) of the equation for psi = f(t)*g(x),
    each side divided by the other factor's powers: each must equal lam,
    the separation constant."""
    big_t, big_p, big_r = equation_at(kind, qv)
    f, g = sp.Function("f", positive=True)(t), sp.Function("g", positive=True)(x)
    divisor = g**big_p * f**big_r
    time_side = combined(sp.I * hbar * big_t * sp.diff((f * g) ** big_p, t) / divisor)
    space_side = combined(-hbar**2 / (2 * m) * sp.diff((f * g) ** big_r, x, 2) / divisor)
    assert not time_side.has(x) and not space_side.has(t)
    return f, g, time_side, space_side


def tabled_side(kind, axis, qv, y):
    """The side of ``separated_form``'s equation along ``axis`` that equals lam,
    for the factor y: i*hbar*coef*(y^a)'/y^b or -(hbar^2/2m)*coef*(y^a)''/y^b."""
    coef, a, b = separated_form(kind, axis, float(qv))
    power = y if a is None else y ** exact(a)
    if axis == "t":
        return sp.I * hbar * exact(coef) * sp.diff(power, t) / y ** exact(b)
    return -hbar**2 / (2 * m) * exact(coef) * sp.diff(power, x, 2) / y ** exact(b)


@pytest.mark.parametrize("kind", list(SolutionKind))
@pytest.mark.parametrize("qv", QS)
def test_separated_forms_follow_from_the_equation(kind, qv):
    f, g, time_side, space_side = separated_sides(kind, qv)
    assert vanishes(tabled_side(kind, "t", qv, f) - time_side)
    assert vanishes(tabled_side(kind, "x", qv, g) - space_side)


def test_marched_forms_are_the_equations_in_the_time_derivative_operand():
    # with chi = psi^P the equation reads i*hbar*T dchi/dt = H[chi^(R/P)]
    for kind in SolutionKind:
        for qv in QS:
            big_t, big_p, big_r = equation_at(kind, qv)
            s, coef = marched_form(kind, float(qv))
            assert (exact(s), exact(coef)) == (big_r / big_p, big_t)


@functools.cache
def derived_time_coefficient(kind):
    """c(q) of f = (1 + i(1-q)*lam*t/(c*hbar))**(1/(q-1)) that solves the time
    equation, with the exponent that balances its two powers of f."""
    big_t, big_p, big_r = EQUATIONS[kind]
    sigma = 1 / (big_p - big_r)
    bracket, c = sp.symbols("w c", positive=True)
    slope = sp.I * (1 - q) * lam / (c * hbar)
    f = bracket**sigma
    residual = sp.I * hbar * big_t * d(f**big_p, t, {bracket: slope}) - lam * f**big_r
    (root,) = sp.solve(combined(residual / f**big_r), c, simplify=False, check=False)
    return root


@functools.cache
def derived_space_root_squared(kind):
    """r(q)**2 of g = (1 + i(1-q)*p*x/(r*hbar))**(2/(1-q)) that solves the
    space equation at lam = p^2/2m, with the exponent that balances its two
    powers of g."""
    big_t, big_p, big_r = EQUATIONS[kind]
    sigma = 2 / (big_r - big_p)
    bracket, r2 = sp.symbols("w r2", positive=True)
    slope2 = -((1 - q) * p) ** 2 / (r2 * hbar**2)  # the bracket's slope, squared
    g = bracket**sigma
    # (g^R)'' of a power of the bracket, whose slope is constant: it enters squared
    second = sp.diff(g**big_r, bracket, 2) * slope2
    residual = -hbar**2 / (2 * m) * second - p**2 / (2 * m) * g**big_p
    (root,) = sp.solve(combined(residual / g**big_p), r2, simplify=False, check=False)
    return sp.factor(root)


@pytest.mark.parametrize("kind", list(SolutionKind))
def test_time_coefficient_and_space_root_solve_the_separated_equations(kind):
    c_of_q, r2_of_q = derived_time_coefficient(kind), derived_space_root_squared(kind)
    for qv in QS:
        assert exact(time_coefficient(kind, float(qv))) == c_of_q.subs(q, qv)
        assert exact(space_root(kind, float(qv)) ** 2) == r2_of_q.subs(q, qv)


@pytest.mark.parametrize("kind", list(SolutionKind))
def test_admissible_q_is_where_the_coefficient_is_nonzero_and_the_root_real(kind):
    c_of_q, r2_of_q = derived_time_coefficient(kind), derived_space_root_squared(kind)
    qsym = sp.Symbol("q", real=True)
    c_of_q, r2_of_q = c_of_q.subs(q, qsym), r2_of_q.subs(q, qsym)
    (pole,) = sp.solve(c_of_q, qsym)
    assert not admits_time(kind, float(pole))
    grid = [sp.Rational(k, 4) for k in range(-12, 21)]  # -3 .. 5 by 1/4
    for qv in grid:
        assert admits_time(kind, float(qv)) == (c_of_q.subs(qsym, qv) != 0)
        assert admits_space(kind, float(qv)) == bool(r2_of_q.subs(qsym, qv) > 0)


# ---------------------------------------------------------------------------
# the closed forms, read off their objects
# ---------------------------------------------------------------------------


def power_of(obj, power, coords):
    """obj**power on its continuous branch, from the object's amplitude, kx,
    kt and factors (kt and every ct are 0 on a curve), and the chain of its
    bracket symbols along each coordinate."""
    brackets = sp.symbols(f"b0:{len(obj.factors)}", positive=True)
    log = sp.log(exact(obj.amplitude))
    log += sum(exact(k) * v for k, v in zip((obj.kx, obj.kt), coords))
    for b, f in zip(brackets, obj.factors):
        log += exact(f.s) * sp.log(b)
    chains = [{b: exact(getattr(f, slope)) for b, f in zip(brackets, obj.factors)}
              for slope in ("cx", "ct")[:len(coords)]]
    return sp.exp(sp.expand(power * log)), chains


def pde_residual(obj, big_t, big_p, big_r):
    """i*hbar*T d/dt[psi^P] + (hbar^2/2m) d2/dx2[psi^R] for the field ``obj``."""
    psi_p, (x_chain, t_chain) = power_of(obj, big_p, (x, t))
    psi_r, _ = power_of(obj, big_r, (x, t))
    lhs = sp.I * hbar * big_t * d(psi_p, t, t_chain)
    rhs = -hbar**2 / (2 * m) * d(d(psi_r, x, x_chain), x, x_chain)
    return (lhs - rhs).subs(PARTICLE)


def admitted(qv):
    return [kind for kind in SolutionKind if admits_space(kind, float(qv))]


@pytest.mark.parametrize("qv", QS)
def test_separated_curves_solve_their_equations(qv):
    spec = FreeParticleSpec(q=float(qv), **SPEC)
    energy = exact(spec.energy)
    for kind in admitted(qv):
        big_t, big_p, big_r = equation_at(kind, qv)
        f, (chain,) = power_of(separated_time_curve(kind, spec), 1, (u,))
        residual = sp.I * hbar * big_t * d(f**big_p, u, chain) - energy * f**big_r
        assert vanishes(residual.subs(PARTICLE))
        g, (chain,) = power_of(separated_space_curve(kind, spec), 1, (u,))
        residual = (-hbar**2 / (2 * m) * d(d(g**big_r, u, chain), u, chain)
                    - energy * g**big_p)
        assert vanishes(residual.subs(PARTICLE))


@pytest.mark.parametrize("qv", QS)
def test_fields_solve_their_equations(qv):
    spec = FreeParticleSpec(q=float(qv), **SPEC)
    for kind in admitted(qv):
        equation = equation_at(kind, qv)
        assert vanishes(pde_residual(product_solution_field(kind, spec), *equation))
        # the traveling q-plane wave solves both equations
        assert vanishes(pde_residual(q_plane_wave_field(spec), *equation))
        # a march of the marched form (s, coef) in chi reproduces the manufactured field
        s, coef = (exact(v) for v in marched_form(kind, float(qv)))
        assert vanishes(pde_residual(manufactured_field(kind, spec), coef, 1, s))


def test_classical_plane_wave_solves_both_equations_at_q_one():
    field = classical_plane_wave_field(FreeParticleSpec(q=1.0, **SPEC))
    for kind in SolutionKind:
        assert vanishes(pde_residual(field, *equation_at(kind, 1)))
