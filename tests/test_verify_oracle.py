"""The verify suites that go through the study cases, the scan helper and
the order fit, against the bodies they replaced: the same results, bit
for bit, by ``==`` and by ``repr``."""

import cmath
import math
import random

import numpy as np
import pytest

from qnlse import verify
from qnlse.integrators import (
    fit_observed_order,
    integrate_separated_space,
    integrate_separated_time,
)
from qnlse.residuals import (
    Analytic,
    FiniteDifference,
    new_nlse_residual,
    nrt_residual,
    scan_residual,
    separated_space_residual,
    separated_time_residual,
)
from qnlse.qmath import q_exp
from qnlse.solutions import (
    FreeParticleSpec,
    SolutionKind,
    admits_space,
    admits_time,
    classical_plane_wave_field,
    product_solution_field,
    q_plane_wave_field,
    separated_space_curve,
    separated_time_curve,
)
from qnlse.verify import LIMIT_DELTAS, RESIDUAL_Q_SET, SuiteResult, _limit_grid, _scan_grid, _worst

# ---------------------------------------------------------------------------
# the oracle: each suite written out in full, as before the helpers
# ---------------------------------------------------------------------------


def oracle_deformed_exp_limit(rng):
    tol = 0.9
    zs = [complex(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0)) for _ in range(25)]
    zs = [z for z in zs if abs(z) <= 2.0] or [1.0 + 1.0j]
    orders = []
    for sign in (+1.0, -1.0):
        deltas = (1e-2, 1e-3, 1e-4)
        sups = []
        for d in deltas:
            q = 1.0 + sign * d
            sups.append(_worst(*(abs(q_exp(q, z) - cmath.exp(-z)) for z in zs)))
        orders.append(fit_observed_order(deltas, sups))
    worst = _worst(*orders, pick=min)
    return SuiteResult("deformed-exp-limit", worst >= tol, worst, tol,
                       detail="fitted order in |q-1| (pass if >= tolerance)")


def oracle_classical_limit_table(p=1.0, m=0.5, hbar=1.0):
    x, t = np.meshgrid(*_limit_grid())
    classical = classical_plane_wave_field(FreeParticleSpec(q=1.0, p=p, m=m, hbar=hbar))(x, t)
    table = {}
    for family in ("plane", "new", "nrt"):
        sups = []
        for d in LIMIT_DELTAS:
            spec = FreeParticleSpec(q=1.0 + d, p=p, m=m, hbar=hbar)
            if family == "plane":
                sol = q_plane_wave_field(spec)
            else:
                sol = product_solution_field(SolutionKind(family), spec)
            sups.append(float(np.max(np.abs(sol(x, t) - classical))))
        table[family] = (sups, fit_observed_order(LIMIT_DELTAS, sups))
    return table


def oracle_non_coincidence():
    def sup_diff(q, xs):
        spec = FreeParticleSpec(q=q, p=1.0, m=0.5, hbar=1.0)
        g_new = separated_space_curve(SolutionKind.NEW, spec)
        g_nrt = separated_space_curve(SolutionKind.NRT, spec)
        return float(np.max(np.abs(g_new(xs) - g_nrt(xs))))

    split = sup_diff(1.5, np.linspace(-5.0, 5.0, 101))
    fit_xs = _limit_grid()[0]
    sups = [sup_diff(1.0 + d, fit_xs) for d in LIMIT_DELTAS]
    order = fit_observed_order(LIMIT_DELTAS, sups)
    passed = split > 1e-3 and order >= 0.9
    return SuiteResult(
        "non-coincidence", passed, order, 0.9,
        detail=f"sup|g_new-g_nrt|(q=1.5)={split:.6g} (must exceed 1e-3); "
               f"vanishing order {order:.3f}",
    )


def oracle_residual_pairs(q):
    spec = FreeParticleSpec(q=q)
    lam = spec.energy
    pairs = [
        ("new-field", q_plane_wave_field(spec), {}),
        ("new-phi", q_plane_wave_field(spec).pow(q), {}),
        ("new-time", separated_time_curve(SolutionKind.NEW, spec), {"lam": lam}),
        ("new-space", separated_space_curve(SolutionKind.NEW, spec), {"lam": lam}),
    ]
    if admits_time(SolutionKind.NRT, q) and admits_space(SolutionKind.NRT, q):
        pairs += [
            ("nrt-field", product_solution_field(SolutionKind.NRT, spec), {}),
            ("nrt-time", separated_time_curve(SolutionKind.NRT, spec), {"lam": lam}),
            ("nrt-space", separated_space_curve(SolutionKind.NRT, spec), {"lam": lam}),
        ]
    return spec, pairs


def oracle_exactness(name, method, tol):
    grid = _scan_grid()
    scans = []
    for q in RESIDUAL_Q_SET + (2.0,):
        spec, pairs = oracle_residual_pairs(q)
        for tag, sampler, extra in pairs:
            rep = scan_residual(tag, sampler, grid, method, q=q,
                                m=spec.m, hbar=spec.hbar, **extra)
            scans.append((rep.max_abs, f"{tag} q={q}"))
    worst = _worst(*(value for value, _ in scans))
    where = next(where for value, where in scans if value == worst or math.isnan(value))
    return SuiteResult(name, worst <= tol, worst, tol, detail=f"worst at {where}")


def oracle_change_of_variables():
    tol = 1e-8
    grid = _scan_grid()
    worst = 0.0
    for q in (0.9, 1.5):
        spec = FreeParticleSpec(q=q)
        for psi in (q_plane_wave_field(spec), product_solution_field(SolutionKind.NEW, spec)):
            r_psi = scan_residual("new-field", psi, grid, Analytic(), q=q,
                                  m=spec.m, hbar=spec.hbar)
            r_phi = scan_residual("new-phi", psi.pow(q), grid, Analytic(), q=q,
                                  m=spec.m, hbar=spec.hbar)
            worst = _worst(worst, r_psi.max_abs, r_phi.max_abs)
    return SuiteResult("change-of-variables", worst <= tol, worst, tol)


def oracle_method_agreement():
    tol = 1e-4
    worst = 0.0
    x, t = np.meshgrid(np.linspace(-5.0, 5.0, 11), (0.0, 0.5, 1.0))
    an, fd = Analytic(), FiniteDifference()
    for q in (0.9, 1.5):
        spec = FreeParticleSpec(q=q)
        lam = spec.energy
        plane = q_plane_wave_field(spec)
        nrt_prod = product_solution_field(SolutionKind.NRT, spec)
        f_new = separated_time_curve(SolutionKind.NEW, spec)
        g_nrt = separated_space_curve(SolutionKind.NRT, spec)
        pairs = [
            new_nlse_residual(plane, q, spec.m, spec.hbar, (x, t), an)
            - new_nlse_residual(plane, q, spec.m, spec.hbar, (x, t), fd),
            nrt_residual(nrt_prod, q, spec.m, spec.hbar, None, (x, t), an)
            - nrt_residual(nrt_prod, q, spec.m, spec.hbar, None, (x, t), fd),
            separated_time_residual(SolutionKind.NEW, f_new, q, lam, spec.hbar, t, an)
            - separated_time_residual(SolutionKind.NEW, f_new, q, lam, spec.hbar, t, fd),
            separated_space_residual(SolutionKind.NRT, g_nrt, q, lam, spec.m,
                                     spec.hbar, x, an)
            - separated_space_residual(SolutionKind.NRT, g_nrt, q, lam, spec.m,
                                       spec.hbar, x, fd),
        ]
        worst = _worst(worst, *(float(np.max(np.abs(d))) for d in pairs))
    return SuiteResult("derivative-method-agreement", worst <= tol, worst, tol)


def oracle_lambda_uniqueness():
    floor = 1e-4
    grid = _scan_grid()
    worst_min = math.inf
    spec = FreeParticleSpec(q=1.5)
    lam = spec.energy
    for kind, tag in ((SolutionKind.NEW, "new-space"), (SolutionKind.NRT, "nrt-space")):
        g = separated_space_curve(kind, spec)
        for factor in (1.01, 0.99):
            rep = scan_residual(tag, g, grid, Analytic(), q=spec.q,
                                m=spec.m, hbar=spec.hbar, lam=lam * factor)
            worst_min = _worst(worst_min, rep.max_abs, pick=min)
    return SuiteResult("lambda-uniqueness", worst_min > floor, worst_min, floor,
                       detail="max residual under 1% lambda perturbation (must exceed tolerance)")


def oracle_cross_equation():
    floor = 1e-3
    grid = _scan_grid()
    spec = FreeParticleSpec(q=1.5)
    lam = spec.energy
    checks = [
        ("nrt-field", product_solution_field(SolutionKind.NEW, spec), {}),
        ("new-field", product_solution_field(SolutionKind.NRT, spec), {}),
        ("new-space", separated_space_curve(SolutionKind.NRT, spec), {"lam": lam}),
        ("nrt-space", separated_space_curve(SolutionKind.NEW, spec), {"lam": lam}),
    ]
    worst_min = math.inf
    for tag, sampler, extra in checks:
        rep = scan_residual(tag, sampler, grid, Analytic(), q=spec.q,
                            m=spec.m, hbar=spec.hbar, **extra)
        worst_min = _worst(worst_min, rep.max_abs, pick=min)
    return SuiteResult("cross-equation-rejection", worst_min > floor, worst_min, floor,
                       detail="smallest cross-equation max residual (must exceed tolerance)")


def oracle_ode_vs_closed_form():
    tol = 1e-7
    worst = 0.0
    for q in (0.5, 1.1, 1.5):
        spec = FreeParticleSpec(q=q)
        lam = spec.energy
        for kind in (SolutionKind.NEW, SolutionKind.NRT):
            traj = integrate_separated_time(kind, q, lam, spec.hbar, 1.0, 1e-3)
            exact = separated_time_curve(kind, spec)(1.0)
            worst = _worst(worst, abs(traj[-1][1] - exact))
            traj = integrate_separated_space(kind, q, lam, spec.m, spec.hbar, 1.0, 1e-3)
            exact = separated_space_curve(kind, spec)(1.0)
            worst = _worst(worst, abs(traj[-1][1] - exact))
    return SuiteResult("ode-vs-closed-form", worst <= tol, worst, tol)


def assert_same(result, expected):
    assert result == expected
    assert repr(result) == repr(expected)  # signed zeros too


# ---------------------------------------------------------------------------
# the suites against the oracle
# ---------------------------------------------------------------------------

UNSEEDED = {
    "non-coincidence": oracle_non_coincidence,
    "residual-exactness-analytic": lambda: oracle_exactness(
        "residual-exactness-analytic", Analytic(), 1e-8),
    "residual-exactness-fd": lambda: oracle_exactness(
        "residual-exactness-fd", FiniteDifference(), 1e-5),
    "change-of-variables": oracle_change_of_variables,
    "derivative-method-agreement": oracle_method_agreement,
    "lambda-uniqueness": oracle_lambda_uniqueness,
    "cross-equation-rejection": oracle_cross_equation,
    "ode-vs-closed-form": oracle_ode_vs_closed_form,
}


@pytest.mark.parametrize("name", sorted(UNSEEDED))
def test_suite_keeps_the_oracle_result(name):
    assert_same(verify._SUITE_FUNCS[name](), UNSEEDED[name]())


@pytest.mark.parametrize("seed", [0, 3, 7, 42, 1234])
def test_deformed_exp_limit_keeps_the_oracle_result(seed):
    suite = verify.suite_deformed_exp_limit(random.Random(seed))
    assert_same(suite, oracle_deformed_exp_limit(random.Random(seed)))


@pytest.mark.parametrize("p,m,hbar", [(1.0, 0.5, 1.0), (0.7, 2.0, 0.5), (1.9, 0.3, 1.3)])
def test_classical_limit_table_keeps_the_oracle_table(p, m, hbar):
    assert_same(verify.classical_limit_table(p, m, hbar), oracle_classical_limit_table(p, m, hbar))
