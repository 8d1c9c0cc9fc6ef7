"""Verification suites: every module invariant as a pass/fail check.

Each suite exercises one analytic claim (an identity, an exactness
statement, a limit, an order of accuracy) with fixed tolerances and a
seeded random-draw budget, and reports its worst observed defect; a
nan check value fails its suite.  The CLI ``verify`` command runs all
of them; the acceptance tests reuse them.  Randomness is seeded from
the ``QNLSE_SEED`` environment variable (default 42, also for a value
that is not an integer; a negative one is refused) so reruns are
reproducible.

``run_verification`` runs the suites on every CPU the process may use,
through the pull queue of ``_pool``, which returns each task's results
in task order.  Every selected suite is one task, in registry order.  A
seeded suite draws from its own ``random.Random``, keyed by the seed and
its name, so its draws depend neither on the registry order nor on which
suites run with it: a suite run alone gives its row of the full run.
The results equal a serial run's, so the reports are byte-identical to
one; a worker's warnings go to the same stderr, once per process.
"""

from __future__ import annotations

import cmath
import inspect
import math
import os
import random
import warnings
from dataclasses import dataclass

import numpy as np

from . import _pool
from .errors import DomainError
from .integrators import (
    GridSpec,
    OdeSpaceCase,
    OdeTimeCase,
    PdeCase,
    convergence_study,
    fit_observed_order,
    interior_linf_error,
    propagate,
    sample_field,
    stream_frames,
)
from .qmath import (
    HypParams,
    check_binomial_identity,
    cpow_principal,
    hyp2f1,
    q_exp,
    q_exp_real_cutoff,
)
from .residuals import (
    Analytic,
    FiniteDifference,
    hypergeom_ode_residual,
    new_nlse_residual,
    nrt_residual,
    scan_residual,
    separated_space_residual,
    separated_time_residual,
)
from .solutions import (
    FreeParticleSpec,
    SolutionKind,
    admits_space,
    admits_time,
    classical_plane_wave_field,
    closed_form,
    manufactured_field,
    product_solution_field,
    q_plane_wave_field,
    q_plane_wave_hypergeometric,
    separated_space_curve,
    separated_time_curve,
)

DEFAULT_SEED = 42
RESIDUAL_Q_SET = (0.5, 0.9, 1.1, 1.5)
LIMIT_DELTAS = (1e-1, 1e-2, 1e-3)
# the least fitted order in |q - 1| of a limit that must vanish linearly
FIRST_ORDER_FLOOR = 0.9


def seed_from_env() -> int:
    raw = os.environ.get("QNLSE_SEED", "")
    try:
        return int(raw)
    except ValueError:
        return DEFAULT_SEED


@dataclass
class SuiteResult:
    """Outcome of one verification suite."""

    name: str
    passed: bool
    worst: float
    tolerance: float
    detail: str = ""

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "passed": int(self.passed),
            "worst": self.worst,
            "tolerance": self.tolerance,
            "detail": self.detail,
        }


def _scan_grid() -> GridSpec:
    # x in [-5, 5] (101 points), t in [0, 1] (11 points)
    return GridSpec(-5.0, 5.0, 101, 0.1, 10)


def _worst(*values: float, pick=max) -> float:
    """``pick`` (``max`` or ``min``) of a suite's check values, or nan if
    any of them is nan: the one accumulator of every suite, so that a nan
    fails its suite instead of vanishing (``max(0.0, nan)`` is 0.0 and
    ``min(inf, nan)`` is inf)."""
    return math.nan if any(map(math.isnan, values)) else pick(values)


def _order_in_q(distance, deltas=LIMIT_DELTAS, sign: float = 1.0):
    """The distances ``distance(1 + sign*d)`` for each d of ``deltas``, and
    the order in |q - 1| fitted to them."""
    sups = [distance(1.0 + sign * d) for d in deltas]
    return sups, fit_observed_order(deltas, sups)


def _draw_z(rng, radius: float = 0.9) -> complex:
    r = radius * math.sqrt(rng.random())
    phi = rng.uniform(-math.pi, math.pi)
    return r * cmath.exp(1j * phi)


# ---------------------------------------------------------------------------
# special-function suites
# ---------------------------------------------------------------------------


def suite_binomial_identity(rng) -> SuiteResult:
    """Series-vs-power defect of F(-a, c; c; -z) = (1+z)^a on 200 draws."""
    tol = 1e-10
    worst = 0.0
    for _ in range(200):
        alpha = rng.uniform(-3.0, 3.0)
        gamma = rng.uniform(0.5, 4.0)
        worst = _worst(worst, check_binomial_identity(alpha, gamma, _draw_z(rng)))
    return SuiteResult("binomial-identity", worst <= tol, worst, tol)


def suite_hypergeometric_ode(rng) -> SuiteResult:
    """Scaled defect of the hypergeometric differential equation."""
    tol = 1e-8
    worst = 0.0
    for _ in range(200):
        params = HypParams(
            rng.uniform(-3.0, 3.0),
            rng.uniform(-3.0, 3.0),
            rng.uniform(0.5, 4.0),
            _draw_z(rng),
        )
        worst = _worst(worst, hypergeom_ode_residual(params))
    # the plane-wave specialization: alpha = 1/(q-1), beta = gamma
    for q in (0.5, 0.9, 1.1, 1.5, 2.0):
        for _ in range(40):
            gamma = rng.uniform(0.5, 4.0)
            params = HypParams(1.0 / (q - 1.0), gamma, gamma, _draw_z(rng))
            worst = _worst(worst, hypergeom_ode_residual(params))
    return SuiteResult("hypergeometric-ode", worst <= tol, worst, tol)


def suite_hypergeometric_symmetry(rng) -> SuiteResult:
    """2F1 is symmetric in its first two parameters."""
    tol = 1e-12
    worst = 0.0
    for _ in range(100):
        a = rng.uniform(-3.0, 3.0)
        b = rng.uniform(-3.0, 3.0)
        c = rng.uniform(0.5, 4.0)
        z = _draw_z(rng)
        f1 = hyp2f1(HypParams(a, b, c, z))
        f2 = hyp2f1(HypParams(b, a, c, z))
        worst = _worst(worst, abs(f1 - f2) / max(1.0, abs(f1)))
    return SuiteResult("hypergeometric-symmetry", worst <= tol, worst, tol)


def suite_power_integer_consistency(rng) -> SuiteResult:
    """cpow_principal agrees with repeated multiplication on -3..3."""
    tol = 1e-13
    worst = 0.0
    for _ in range(100):
        base = complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        if abs(base) < 0.2:
            continue
        for n in range(-3, 4):
            direct = 1.0 + 0j
            for _ in range(abs(n)):
                direct *= base
            if n < 0:
                direct = 1.0 / direct
            got = cpow_principal(base, n)
            worst = _worst(worst, abs(got - direct) / max(1.0, abs(direct)))
    return SuiteResult("power-integer-consistency", worst <= tol, worst, tol)


def suite_deformed_exp_product_rule(rng) -> SuiteResult:
    """e(x)e(y) = e(x + y + (q-1)xy) on the positive-bracket domain.

    The composition carries (q-1), matching the (q-1)-inside convention
    of the deformed exponential implemented here.
    """
    tol = 1e-12
    worst = 0.0
    count = 0
    while count < 200:
        q = rng.uniform(0.2, 1.8)
        if abs(q - 1.0) < 1e-6:
            continue
        x = rng.uniform(-1.5, 1.5)
        y = rng.uniform(-1.5, 1.5)
        if 1.0 + (q - 1.0) * x <= 1e-6 or 1.0 + (q - 1.0) * y <= 1e-6:
            continue
        combined = x + y + (q - 1.0) * x * y
        if 1.0 + (q - 1.0) * combined <= 1e-6:
            continue
        lhs = q_exp_real_cutoff(q, x) * q_exp_real_cutoff(q, y)
        rhs = q_exp_real_cutoff(q, combined)
        worst = _worst(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        count += 1
    return SuiteResult("deformed-exp-product-rule", worst <= tol, worst, tol)


def suite_deformed_exp_limit(rng) -> SuiteResult:
    """q -> 1 limit of the deformed exponential, fitted order >= FIRST_ORDER_FLOOR.

    With the (q-1)-inside convention the limit is exp(-z); the distance
    to it must shrink linearly in |q - 1|.
    """
    tol = FIRST_ORDER_FLOOR
    zs = [complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(25)]
    zs = [z for z in zs if abs(z) <= 2.0] or [1.0 + 1.0j]
    orders = [_order_in_q(lambda q: _worst(*(abs(q_exp(q, z) - cmath.exp(-z)) for z in zs)),
                          (1e-2, 1e-3, 1e-4), sign)[1]
              for sign in (+1.0, -1.0)]
    worst = _worst(*orders, pick=min)
    return SuiteResult("deformed-exp-limit", worst >= tol, worst, tol,
                       detail="fitted order in |q-1| (pass if >= tolerance)")


# ---------------------------------------------------------------------------
# solution suites
# ---------------------------------------------------------------------------


def _small_grid():
    xs = np.linspace(-5.0, 5.0, 21)
    ts = np.linspace(0.0, 1.0, 5)
    return xs, ts


def _limit_grid():
    # Order fits need the largest delta (0.1) inside the asymptotic
    # regime; on |px - Et| up to 6 the distance saturates and the fitted
    # slope dips below the true first-order scaling.
    xs = np.linspace(-2.0, 2.0, 21)
    ts = np.linspace(0.0, 1.0, 5)
    return xs, ts


def suite_plane_wave_representations() -> SuiteResult:
    """Direct vs hypergeometric plane-wave route, all gammas coincide."""
    tol = 1e-10
    xs, ts = _small_grid()
    worst = 0.0
    for q in (0.5, 0.9, 1.1, 1.5, 2.0):
        spec = FreeParticleSpec(q=q)
        wave = q_plane_wave_field(spec)(*np.meshgrid(xs, ts, indexing="ij")).tolist()
        for x, wave_x in zip(xs, wave):
            for t, direct in zip(ts, wave_x):
                values = [
                    q_plane_wave_hypergeometric(spec, g, float(x), float(t))
                    for g in (0.5, 1.0, 2.7)
                ]
                worst = _worst(worst, *(abs(v - direct) for v in values),
                               abs(values[0] - values[1]), abs(values[0] - values[2]))
    return SuiteResult("plane-wave-representations", worst <= tol, worst, tol)


def classical_limit_table(p: float = 1.0, m: float = 0.5,
                          hbar: float = 1.0) -> dict:
    """Per solution family ("plane", "new", "nrt"): the sup distances to
    exp(i(px - Et)/hbar) on the limit grid at q = 1 + each of
    ``LIMIT_DELTAS``, and the order in q - 1 fitted to them."""
    x, t = np.meshgrid(*_limit_grid())
    classical = classical_plane_wave_field(FreeParticleSpec(q=1.0, p=p, m=m, hbar=hbar))(x, t)

    def table_row(family: str):
        return _order_in_q(lambda q: float(np.max(np.abs(closed_form(
            family, "field", FreeParticleSpec(q=q, p=p, m=m, hbar=hbar))(x, t) - classical))))

    return {family: table_row(family) for family in ("plane", "new", "nrt")}


def suite_classical_limit() -> SuiteResult:
    """Distance to exp(i(px - Et)/hbar) vanishes linearly in q - 1."""
    tol = FIRST_ORDER_FLOOR
    table = classical_limit_table()
    worst_order = _worst(*(order for _, order in table.values()), pick=min)
    details = " ".join(f"{family}:{order:.3f}" for family, (_, order) in table.items())
    return SuiteResult("classical-limit", worst_order >= tol, worst_order, tol,
                       detail="fitted orders " + details)


def suite_non_coincidence() -> SuiteResult:
    """The two space factors differ at q = 1.5 and merge as q -> 1."""

    def sup_diff(q: float, xs) -> float:
        spec = FreeParticleSpec(q=q, p=1.0, m=0.5, hbar=1.0)
        g_new = separated_space_curve(SolutionKind.NEW, spec)
        g_nrt = separated_space_curve(SolutionKind.NRT, spec)
        return float(np.max(np.abs(g_new(xs) - g_nrt(xs))))

    split = sup_diff(1.5, np.linspace(-5.0, 5.0, 101))
    fit_xs = _limit_grid()[0]
    order = _order_in_q(lambda q: sup_diff(q, fit_xs))[1]
    passed = split > 1e-3 and order >= FIRST_ORDER_FLOOR
    return SuiteResult(
        "non-coincidence", passed, order, FIRST_ORDER_FLOOR,
        detail=f"sup|g_new-g_nrt|(q=1.5)={split:.6g} (must exceed 1e-3); "
               f"vanishing order {order:.3f}",
    )


def suite_origin_normalization() -> SuiteResult:
    """Every solution evaluates to exactly 1 at the origin."""
    worst = 0.0
    for q in (0.5, 0.9, 1.0, 1.1, 1.5, 2.0):
        spec = FreeParticleSpec(q=q)
        values = [
            q_plane_wave_field(spec)(0.0, 0.0),
            q_plane_wave_field(spec, amplitude=1.0 + 0j)(0.0, 0.0),
            q_plane_wave_hypergeometric(spec, 1.0, 0.0, 0.0),
        ]
        for kind in (SolutionKind.NEW, SolutionKind.NRT):
            if not (admits_time(kind, q) and admits_space(kind, q)):
                continue
            values += [
                separated_time_curve(kind, spec)(0.0),
                separated_space_curve(kind, spec)(0.0),
                product_solution_field(kind, spec)(0.0, 0.0),
            ]
        worst = _worst(worst, *(abs(v - 1.0) for v in values))
    return SuiteResult("origin-normalization", worst == 0.0, worst, 0.0)


# ---------------------------------------------------------------------------
# residual suites
# ---------------------------------------------------------------------------


def _residual_pairs(q: float):
    """Every equation paired with the closed form that solves it (the field
    scans do not read ``lam``)."""
    spec = FreeParticleSpec(q=q)
    forms = [("new", "plane", "field"), ("new", "plane", "phi"),
             ("new", "new", "time"), ("new", "new", "space")]
    if admits_time(SolutionKind.NRT, q) and admits_space(SolutionKind.NRT, q):
        forms += [("nrt", "nrt", form) for form in ("field", "time", "space")]
    return spec, [(f"{equation}-{form}", closed_form(solution, form, spec), {"lam": spec.energy})
                  for equation, solution, form in forms]


def _scan_maxima(spec: FreeParticleSpec, pairs, method=Analytic()) -> list[float]:
    """The ``max_abs`` of each ``(tag, sampler, extra)`` scanned on the scan grid
    at the parameters of ``spec``; ``extra`` holds ``lam`` where a tag needs one."""
    grid = _scan_grid()
    return [scan_residual(tag, sampler, grid, method, q=spec.q, m=spec.m,
                          hbar=spec.hbar, **extra).max_abs
            for tag, sampler, extra in pairs]


def _exactness(name: str, method, tol: float) -> SuiteResult:
    """The largest scan residual over every pair, with the first pair that has it."""
    scans = []
    for q in RESIDUAL_Q_SET + (2.0,):
        spec, pairs = _residual_pairs(q)
        scans += zip(_scan_maxima(spec, pairs, method), (f"{tag} q={q}" for tag, _, _ in pairs))
    worst = _worst(*(value for value, _ in scans))
    where = next(where for value, where in scans if value == worst or math.isnan(value))
    return SuiteResult(name, worst <= tol, worst, tol, detail=f"worst at {where}")


def suite_residual_exactness_analytic() -> SuiteResult:
    return _exactness("residual-exactness-analytic", Analytic(), 1e-8)


def suite_residual_exactness_fd() -> SuiteResult:
    return _exactness("residual-exactness-fd", FiniteDifference(), 1e-5)


def suite_change_of_variables() -> SuiteResult:
    """The psi-form and the phi-form (phi = psi^q) agree on exactness."""
    tol = 1e-8
    worst = 0.0
    for q in (0.9, 1.5):
        spec = FreeParticleSpec(q=q)
        for solution in ("plane", "new"):
            worst = _worst(worst, *_scan_maxima(spec, [
                (f"new-{form}", closed_form(solution, form, spec), {}) for form in ("field", "phi")
            ]))
    return SuiteResult("change-of-variables", worst <= tol, worst, tol)


def suite_method_agreement() -> SuiteResult:
    """Analytic and finite-difference residuals agree pointwise to 1e-4."""
    tol = 1e-4
    worst = 0.0
    x, t = np.meshgrid(np.linspace(-5.0, 5.0, 11), (0.0, 0.5, 1.0))

    def gap(residual, *args) -> float:
        return float(np.max(np.abs(residual(*args, Analytic())
                                   - residual(*args, FiniteDifference()))))

    new, nrt = SolutionKind.NEW, SolutionKind.NRT
    for q in (0.9, 1.5):
        spec = FreeParticleSpec(q=q)
        m, hbar, lam = spec.m, spec.hbar, spec.energy
        worst = _worst(
            worst,
            gap(new_nlse_residual, closed_form("plane", "field", spec), q, m, hbar, (x, t)),
            gap(nrt_residual, closed_form("nrt", "field", spec), q, m, hbar, None, (x, t)),
            gap(separated_time_residual, new, closed_form("new", "time", spec), q, lam, hbar, t),
            gap(separated_space_residual, nrt, closed_form("nrt", "space", spec),
                q, lam, m, hbar, x),
        )
    return SuiteResult("derivative-method-agreement", worst <= tol, worst, tol)


def suite_lambda_uniqueness() -> SuiteResult:
    """A 1% mis-set separation constant is loudly visible."""
    floor = 1e-4
    spec = FreeParticleSpec(q=1.5)
    worst_min = _worst(*_scan_maxima(spec, [
        (f"{kind.value}-space", separated_space_curve(kind, spec), {"lam": spec.energy * factor})
        for kind in (SolutionKind.NEW, SolutionKind.NRT) for factor in (1.01, 0.99)
    ]), pick=min)
    return SuiteResult("lambda-uniqueness", worst_min > floor, worst_min, floor,
                       detail="max residual under 1% lambda perturbation (must exceed tolerance)")


def suite_cross_equation() -> SuiteResult:
    """Each equation rejects the other equation's q != 1 solution."""
    floor = 1e-3
    spec = FreeParticleSpec(q=1.5)
    worst_min = _worst(*_scan_maxima(spec, [
        ("nrt-field", product_solution_field(SolutionKind.NEW, spec), {}),
        ("new-field", product_solution_field(SolutionKind.NRT, spec), {}),
        ("new-space", separated_space_curve(SolutionKind.NRT, spec), {"lam": spec.energy}),
        ("nrt-space", separated_space_curve(SolutionKind.NEW, spec), {"lam": spec.energy}),
    ]), pick=min)
    return SuiteResult("cross-equation-rejection", worst_min > floor, worst_min, floor,
                       detail="smallest cross-equation max residual (must exceed tolerance)")


# ---------------------------------------------------------------------------
# integrator suites
# ---------------------------------------------------------------------------


def suite_ode_vs_closed_form() -> SuiteResult:
    """RK4 endpoints match the closed forms to 1e-7 at step 1e-3."""
    tol = 1e-7
    worst = _worst(*(case(kind, FreeParticleSpec(q=q), 1.0, 1e-3).error(0)[1]
                     for q in (0.5, 1.1, 1.5) for kind in SolutionKind
                     for case in (OdeTimeCase, OdeSpaceCase)))
    return SuiteResult("ode-vs-closed-form", worst <= tol, worst, tol)


def suite_ode_order() -> SuiteResult:
    """Observed RK4 order 4 +/- 0.5 under step halving."""
    spec = FreeParticleSpec(q=1.5)
    orders = [
        convergence_study(OdeTimeCase(SolutionKind.NEW, spec), 4).observed_order,
        convergence_study(OdeSpaceCase(SolutionKind.NRT, spec), 4).observed_order,
    ]
    worst_dev = _worst(*(abs(o - 4.0) for o in orders))
    return SuiteResult("ode-order", worst_dev <= 0.5, worst_dev, 0.5,
                       detail=f"orders {orders[0]:.3f}, {orders[1]:.3f}")


def suite_pde_manufactured() -> SuiteResult:
    """Short-horizon manufactured propagation stays near the closed form.

    The deformed equations are anti-diffusive on half the domain
    (perturbations grow like exp((hbar/2m) Im[(1-q)(x-t)/q] k^2 t)), so
    the verifiable horizon at dx = 0.025 on [-5, 5] is short; 20 steps
    keep the parasitic modes below truncation error.
    """
    tol = 1e-5
    spec = FreeParticleSpec(q=1.1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        worst = _worst(*(PdeCase(kind, spec, dx0=0.025).error(0)[1]
                         for kind in (SolutionKind.NEW, SolutionKind.NRT)))
    return SuiteResult("pde-manufactured", worst <= tol, worst, tol)


def suite_pde_spatial_order() -> SuiteResult:
    """Spatial refinement of the propagator shows order 2 +/- 0.3."""
    spec = FreeParticleSpec(q=1.1)
    worst_dev = 0.0
    detail = []
    for kind in (SolutionKind.NEW, SolutionKind.NRT):
        rep = convergence_study(PdeCase(kind, spec), 3)
        worst_dev = _worst(worst_dev, abs(rep.observed_order - 2.0))
        detail.append(f"{kind.value}:{rep.observed_order:.3f}")
    return SuiteResult("pde-spatial-order", worst_dev <= 0.3, worst_dev, 0.3,
                       detail=" ".join(detail))


def suite_pde_classical_agreement() -> SuiteResult:
    """At q = 1 both propagators coincide and match the linear solution."""
    spec = FreeParticleSpec(q=1.0)
    exact = manufactured_field(SolutionKind.NEW, spec)
    grid = GridSpec(-5.0, 5.0, 401, 1e-4, 1000)
    initial = sample_field(exact, grid, 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        # in lockstep, one checked block of each march at a time: the whole
        # marches would add 13 MB to verify's peak RSS
        pairs = zip(*(stream_frames(kind, initial, 1.0, spec.m, spec.hbar, boundary=exact)
                      for kind in (SolutionKind.NEW, SolutionKind.NRT)))
        gaps = []
        for new, nrt in pairs:
            gaps.append(float(np.max(np.abs(new.values - nrt.values))))
    pair_gap = _worst(*gaps)
    linear_err = interior_linf_error(new, exact)  # the last frame of NEW
    passed = pair_gap <= 1e-10 and linear_err <= 1e-4
    return SuiteResult(
        "pde-classical-agreement", passed, _worst(pair_gap, linear_err), 1e-4,
        detail=f"propagator gap {pair_gap:.3g} (tol 1e-10), linear error "
               f"{linear_err:.3g} (tol 1e-4)",
    )


def suite_propagation_determinism() -> SuiteResult:
    """Identical configurations produce bit-identical frames."""
    spec = FreeParticleSpec(q=1.5)
    exact = manufactured_field(SolutionKind.NEW, spec)
    grid = GridSpec(-2.0, 2.0, 81, 5e-5, 100)

    def run():
        return propagate(SolutionKind.NEW, sample_field(exact, grid, 0.0),
                         spec.q, spec.m, spec.hbar, boundary=exact)

    a = run()
    b = run()
    identical = np.array_equal(a.values, b.values)
    return SuiteResult("propagation-determinism", identical,
                       0.0 if identical else 1.0, 0.0)


# The one registry of suites, in report order.
_SUITE_FUNCS = {
    "binomial-identity": suite_binomial_identity,
    "hypergeometric-ode": suite_hypergeometric_ode,
    "hypergeometric-symmetry": suite_hypergeometric_symmetry,
    "power-integer-consistency": suite_power_integer_consistency,
    "deformed-exp-product-rule": suite_deformed_exp_product_rule,
    "deformed-exp-limit": suite_deformed_exp_limit,
    "plane-wave-representations": suite_plane_wave_representations,
    "classical-limit": suite_classical_limit,
    "non-coincidence": suite_non_coincidence,
    "origin-normalization": suite_origin_normalization,
    "residual-exactness-analytic": suite_residual_exactness_analytic,
    "residual-exactness-fd": suite_residual_exactness_fd,
    "change-of-variables": suite_change_of_variables,
    "derivative-method-agreement": suite_method_agreement,
    "lambda-uniqueness": suite_lambda_uniqueness,
    "cross-equation-rejection": suite_cross_equation,
    "ode-vs-closed-form": suite_ode_vs_closed_form,
    "ode-order": suite_ode_order,
    "pde-manufactured": suite_pde_manufactured,
    "pde-spatial-order": suite_pde_spatial_order,
    "pde-classical-agreement": suite_pde_classical_agreement,
    "propagation-determinism": suite_propagation_determinism,
}


def run_verification(seed: int | None = None,
                     names: list[str] | None = None) -> list[SuiteResult]:
    """Run the requested suites (all by default) and collect results.

    The suites run on every CPU the process may use (``_pool``), one
    task each.  A seeded suite (one taking ``rng``) builds its own
    ``random.Random(f"{seed}:{name}")``, seeded through SHA-512 of that
    string, so it draws the same numbers alone as in any selection.  The
    results come back in registry order and equal a serial run's.  If
    suites raise, the one earliest in the registry raises here, as in a
    serial run (an exception that does not pickle comes back from a
    worker as a ``QnlseError`` with its type name and message); a worker
    that dies before reporting raises ``QnlseError`` with its exit
    status.  A worker's warnings go to the same stderr, once per process.
    """
    unknown = sorted(set(names or ()) - set(_SUITE_FUNCS))
    if unknown:
        raise DomainError(
            f"unknown suite names {unknown}; expected any of {tuple(_SUITE_FUNCS)}"
        )
    if seed is None:
        seed = seed_from_env()
    if seed < 0:
        raise DomainError(f"the seed (QNLSE_SEED) must be a non-negative integer, got {seed}")
    selected = [name for name in _SUITE_FUNCS if names is None or name in names]

    def run(task: int) -> SuiteResult:
        name = selected[task]
        func = _SUITE_FUNCS[name]
        if "rng" not in inspect.signature(func).parameters:
            return func()
        return func(random.Random(f"{seed}:{name}"))

    return _pool.run_tasks(len(selected), run, lambda task: f"suite {selected[task]}")
