"""Acceptance gate: one test per criterion, each printing PASS or FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Two assertions are expected to fail and are left failing on
purpose; they restate the acceptance numbers literally, and those
numbers are unattainable for reasons quantified in the README's
numerical validity notes:

* criterion 6, second clause: sup |g_new - g_nrt| at q - 1 = 1e-4 is
  ~5e-4 (= p*x_max*|q-1|/hbar), not <= 1e-6; only the moduli agree to
  1e-6.
* criterion 9, first clause: the deformed equations are anti-diffusive
  on half the domain, so roundoff-seeded modes grow ~exp(0.3/step) at
  dx = 0.025 and no float64 scheme reaches T = 0.1 with 1e-3 accuracy.

Everything else must pass.
"""

import math
import time
import warnings

import numpy as np
import pytest

from qnlse.cli import main as cli_main
from qnlse.integrators import (
    GridSpec,
    OdeSpaceCase,
    OdeTimeCase,
    PdeCase,
    convergence_study,
    integrate_separated_space,
    integrate_separated_time,
    interior_linf_error,
    manufactured_field,
    propagate,
    sample_field,
)
from qnlse.reports import parse_report_csv
from qnlse.residuals import Analytic, FiniteDifference, scan_residual
from qnlse.solutions import (
    FreeParticleSpec,
    SolutionKind,
    q_plane_wave_field,
    separated_space_curve,
    separated_time_curve,
)
from qnlse.verify import run_verification

SCAN_GRID = GridSpec(-5.0, 5.0, 101, 0.1, 10)
Q_SET = (0.5, 0.9, 1.1, 1.5, 2.0)


def note(criterion: str, passed: bool, detail: str) -> None:
    print(f"criterion {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")


def one_suite(name: str):
    results = run_verification(names=[name])
    assert len(results) == 1
    return results[0]


def test_criterion_01_binomial_identity():
    start = time.perf_counter()
    r = one_suite("binomial-identity")
    elapsed = time.perf_counter() - start
    note("1", r.passed and elapsed < 1.0,
         f"200 draws, worst defect {r.worst:.3e} (tol 1e-10), {elapsed:.2f}s")
    assert r.passed
    assert elapsed < 1.0


def test_criterion_02_hypergeometric_ode():
    r = one_suite("hypergeometric-ode")
    note("2", r.passed, f"worst scaled residual {r.worst:.3e} (tol 1e-8), "
         "including the plane-wave specialization for q in {0.5,0.9,1.1,1.5,2}")
    assert r.passed


def test_criterion_03_plane_wave_solves_field_equation():
    start = time.perf_counter()
    worst_an = worst_fd = 0.0
    for q in Q_SET:
        spec = FreeParticleSpec(q=q)
        psi = q_plane_wave_field(spec)
        worst_an = max(worst_an, scan_residual(
            "new-field", psi, SCAN_GRID, Analytic(), q=q, m=spec.m, hbar=spec.hbar
        ).max_abs)
        worst_fd = max(worst_fd, scan_residual(
            "new-field", psi, SCAN_GRID, FiniteDifference(),
            q=q, m=spec.m, hbar=spec.hbar
        ).max_abs)
    elapsed = time.perf_counter() - start
    ok = worst_an <= 1e-8 and worst_fd <= 1e-5 and elapsed < 10.0
    note("3", ok, f"101x11 grid, q in {{0.5..2}}: analytic {worst_an:.3e} "
         f"(tol 1e-8), fd {worst_fd:.3e} (tol 1e-5), {elapsed:.2f}s")
    assert worst_an <= 1e-8
    assert worst_fd <= 1e-5
    assert elapsed < 10.0


def test_criterion_04_separated_solutions():
    worst_an = worst_fd = 0.0
    for q in Q_SET:
        spec = FreeParticleSpec(q=q)
        lam = spec.energy
        kinds = [SolutionKind.NEW] if q == 2.0 else list(SolutionKind)
        for kind in kinds:
            prefix = "new" if kind is SolutionKind.NEW else "nrt"
            f = separated_time_curve(kind, spec)
            g = separated_space_curve(kind, spec)
            for tag, sampler in ((f"{prefix}-time", f), (f"{prefix}-space", g)):
                worst_an = max(worst_an, scan_residual(
                    tag, sampler, SCAN_GRID, Analytic(), q=q, m=spec.m,
                    hbar=spec.hbar, lam=lam).max_abs)
                worst_fd = max(worst_fd, scan_residual(
                    tag, sampler, SCAN_GRID, FiniteDifference(), q=q, m=spec.m,
                    hbar=spec.hbar, lam=lam).max_abs)
    # a 1% lambda error must be loudly visible in the space residual
    spec = FreeParticleSpec(q=1.5)
    perturbed_min = math.inf
    for kind, tag in ((SolutionKind.NEW, "new-space"), (SolutionKind.NRT, "nrt-space")):
        g = separated_space_curve(kind, spec)
        for factor in (1.01, 0.99):
            rep = scan_residual(tag, g, SCAN_GRID, Analytic(), q=spec.q,
                                m=spec.m, hbar=spec.hbar, lam=spec.energy * factor)
            perturbed_min = min(perturbed_min, rep.max_abs)
    ok = worst_an <= 1e-8 and worst_fd <= 1e-5 and perturbed_min > 1e-4
    note("4", ok, f"analytic {worst_an:.3e} (tol 1e-8), fd {worst_fd:.3e} "
         f"(tol 1e-5); 1% lambda perturbation -> residual {perturbed_min:.3e} > 1e-4")
    assert worst_an <= 1e-8
    assert worst_fd <= 1e-5
    assert perturbed_min > 1e-4


def test_criterion_05_classical_limit():
    r = one_suite("classical-limit")
    note("5", r.passed, f"{r.detail} (all must be >= 0.9)")
    assert r.passed


def test_criterion_06a_non_coincidence_split():
    xs = np.linspace(-5.0, 5.0, 101)
    spec = FreeParticleSpec(q=1.5, p=1.0, m=0.5, hbar=1.0)
    g_new = separated_space_curve(SolutionKind.NEW, spec)
    g_nrt = separated_space_curve(SolutionKind.NRT, spec)
    split = max(abs(g_new(float(x)) - g_nrt(float(x))) for x in xs)
    note("6a", split > 1e-3, f"q=1.5: max |g_new - g_nrt| = {split:.4g} > 1e-3")
    assert split > 1e-3


def test_criterion_06b_limit_as_stated():
    """Criterion text: the max decreases to <= 1e-6 as q - 1 -> 1e-4.

    Left failing on purpose: the pointwise difference is dominated by a
    phase gap ~ p*x*|q-1|/hbar (the 2/(1-q) exponent amplifies the
    O((q-1)^2) base difference back to first order), so the sup is
    ~5e-4 at q - 1 = 1e-4 on x in [-5, 5].  The moduli do agree to
    1e-6.
    """
    xs = np.linspace(-5.0, 5.0, 101)
    spec = FreeParticleSpec(q=1.0 + 1e-4, p=1.0, m=0.5, hbar=1.0)
    g_new = separated_space_curve(SolutionKind.NEW, spec)
    g_nrt = separated_space_curve(SolutionKind.NRT, spec)
    sup = max(abs(g_new(float(x)) - g_nrt(float(x))) for x in xs)
    sup_moduli = max(abs(abs(g_new(float(x))) - abs(g_nrt(float(x)))) for x in xs)
    note("6b", sup <= 1e-6,
         f"q-1=1e-4: sup |g_new - g_nrt| = {sup:.4g} (required <= 1e-6; "
         f"moduli gap {sup_moduli:.4g} does satisfy it)")
    assert sup <= 1e-6, (
        f"unattainable as stated: sup pointwise difference is {sup:.4g} "
        f"~ p*x_max*|q-1|/hbar = 5e-4; only the moduli gap ({sup_moduli:.4g}) "
        "meets 1e-6 (see README, numerical validity notes)"
    )


def test_criterion_07_gamma_independence():
    r = one_suite("plane-wave-representations")
    note("7", r.passed, f"gammas {{0.5, 1, 2.7}} and direct form agree to "
         f"{r.worst:.3e} (tol 1e-10)")
    assert r.passed


def test_criterion_08_ode_integrator():
    worst = 0.0
    for q in (0.5, 1.1, 1.5):
        spec = FreeParticleSpec(q=q)
        for kind in SolutionKind:
            traj = integrate_separated_time(kind, q, spec.energy, spec.hbar, 1.0, 1e-3)
            worst = max(worst, abs(traj[-1][1] - separated_time_curve(kind, spec)(1.0)))
            traj = integrate_separated_space(kind, q, spec.energy, spec.m,
                                             spec.hbar, 1.0, 1e-3)
            worst = max(worst, abs(traj[-1][1] - separated_space_curve(kind, spec)(1.0)))
    spec = FreeParticleSpec(q=1.5)
    orders = [
        convergence_study(OdeTimeCase(SolutionKind.NEW, spec), 4).observed_order,
        convergence_study(OdeSpaceCase(SolutionKind.NRT, spec), 4).observed_order,
    ]
    order_dev = max(abs(o - 4.0) for o in orders)
    ok = worst <= 1e-7 and order_dev <= 0.5
    note("8", ok, f"endpoint error {worst:.3e} (tol 1e-7); observed orders "
         f"{orders[0]:.2f}, {orders[1]:.2f} (4 +/- 0.5)")
    assert worst <= 1e-7
    assert order_dev <= 0.5


def test_criterion_09a_manufactured_as_stated():
    """Criterion text: q=1.1, T=0.1, dx=0.025, dt=1e-4, error <= 1e-3.

    Left failing on purpose: linearized about the manufactured solution
    the equation is anti-diffusive where (1-q)(x-t) > 0, and float64
    roundoff grows ~exp(0.3/step) at this resolution (e^300 over the
    requested horizon).  The stable-horizon and order checks below are
    the attainable verification; see the README's validity notes.
    """
    spec = FreeParticleSpec(q=1.1)
    exact = manufactured_field(SolutionKind.NEW, spec)
    grid = GridSpec(-5.0, 5.0, 401, 1e-4, 1000)
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        frames = propagate(SolutionKind.NEW, sample_field(exact, grid, 0.0),
                           spec.q, spec.m, spec.hbar, boundary=exact)
    elapsed = time.perf_counter() - start
    err = interior_linf_error(frames[-1], exact)
    note("9a", err <= 1e-3 and elapsed < 30.0,
         f"q=1.1 T=0.1 dx=0.025: interior L_inf = {err:.3e} (required <= 1e-3), "
         f"{elapsed:.1f}s")
    assert elapsed < 30.0
    assert err <= 1e-3, (
        f"unattainable as stated: anti-diffusive amplification ~e^300 over "
        f"this horizon gives L_inf = {err:.3e}; the scheme verifies cleanly "
        "on short horizons (see 9b/9c and the README validity notes)"
    )


def test_criterion_09b_short_horizon_and_spatial_order():
    start = time.perf_counter()
    spec = FreeParticleSpec(q=1.1)
    worst = 0.0
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for kind in SolutionKind:
            exact = manufactured_field(kind, spec)
            grid = GridSpec(-5.0, 5.0, 401, 1e-4, 20)
            frames = propagate(kind, sample_field(exact, grid, 0.0), spec.q,
                               spec.m, spec.hbar, boundary=exact)
            worst = max(worst, interior_linf_error(frames[-1], exact))
        orders = [
            convergence_study(PdeCase(kind, spec, dx0=0.2, dt=1e-4,
                                      t_final=0.002), 3).observed_order
            for kind in SolutionKind
        ]
    elapsed = time.perf_counter() - start
    dev = max(abs(o - 2.0) for o in orders)
    ok = worst <= 1e-3 and dev <= 0.3 and elapsed < 30.0
    note("9b", ok, f"stable-horizon L_inf {worst:.3e} (<= 1e-3); spatial orders "
         f"{orders[0]:.2f}, {orders[1]:.2f} (2 +/- 0.3); {elapsed:.1f}s")
    assert worst <= 1e-3
    assert dev <= 0.3
    assert elapsed < 30.0


def test_criterion_09c_classical_agreement():
    r = one_suite("pde-classical-agreement")
    note("9c", r.passed, r.detail)
    assert r.passed


def test_criterion_10_cli_contract(capsys, tmp_path):
    verify_code = cli_main(["verify", "--out", str(tmp_path / "verify.json")])
    cross_code = cli_main(["residual", "--equation", "nrt", "--solution", "new",
                           "--tol", "1e-6", "--out", str(tmp_path / "cross.json")])
    malformed_code = cli_main(["residual", "--definitely-not-a-flag"])
    bad_config_code = cli_main(["residual", "--equation", "nrt", "--q", "2"])
    capsys.readouterr()

    args = ["residual", "--solution", "plane", "--tol", "1e-6"]
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    assert cli_main(args + ["--format", "json", "--out", str(json_path)]) == 0
    assert cli_main(args + ["--format", "csv", "--out", str(csv_path)]) == 0
    import json as json_mod

    from_json = json_mod.loads(json_path.read_text())
    from_csv = parse_report_csv(csv_path.read_text())
    numeric_match = all(
        from_csv[k] == v for k, v in from_json.items() if isinstance(v, float)
    )
    ok = (verify_code == 0 and cross_code == 1 and malformed_code == 2
          and bad_config_code == 2 and numeric_match)
    note("10", ok, f"verify exit {verify_code} (want 0), cross-equation exit "
         f"{cross_code} (want 1), malformed exit {malformed_code} (want 2), "
         f"q=2+nrt exit {bad_config_code} (want 2), csv/json round-trip "
         f"{'ok' if numeric_match else 'mismatch'}")
    assert verify_code == 0
    assert cross_code == 1
    assert malformed_code == 2
    assert bad_config_code == 2
    assert numeric_match
