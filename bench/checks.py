"""Output checks of the benchmark, computed with the benchmark's own numpy code.

Nothing here imports qnlse.  The closed forms are written out again from
their formulas, so that a march is judged against an independent
computation, not against the program's own samplers:

* NEW (the q-power equation ``i hbar dphi/dt = H[phi^(1/q)]``) evolves
  ``phi = [1 + i(1-q)(px - Et)/hbar]^(q/(1-q))``;
* NRT (``i hbar (2-q) dpsi/dt = H[psi^(2-q)]``) evolves the separated
  product ``psi = f(t) g(x)`` with
  ``f = [1 + i(1-q)Et/((2-q)hbar)]^(1/(q-1))`` and
  ``g = [1 + i(1-q)px/(r hbar)]^(2/(1-q))``, ``r = sqrt(2(2-q)(3-q))``;
* at q = 1 both are the plane wave ``exp(i(px - Et)/hbar)``.

Every base has real part 1, so its principal logarithm is continuous and
the powers are taken on that branch.

A march is accepted when its final interior error stays within
``error_bound``: four times the spatial truncation error of the central
Laplacian accumulated linearly over the horizon, plus the
amplified-roundoff target that the horizon was chosen to respect (see
``horizon_steps``).
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EPS = float(np.finfo(float).eps)

# The horizon keeps eps * (predicted amplification) at or below this, two
# orders under the truncation error of the grids the benchmark marches.
ROUNDOFF_TARGET = 1e-9

# At q = 1 the two propagators solve the same linear equation.
CLASSICAL_PAIR_TOL = 1e-10

SUITES = (
    "binomial-identity",
    "hypergeometric-ode",
    "hypergeometric-symmetry",
    "power-integer-consistency",
    "deformed-exp-product-rule",
    "deformed-exp-limit",
    "plane-wave-representations",
    "classical-limit",
    "non-coincidence",
    "origin-normalization",
    "residual-exactness-analytic",
    "residual-exactness-fd",
    "change-of-variables",
    "derivative-method-agreement",
    "lambda-uniqueness",
    "cross-equation-rejection",
    "ode-vs-closed-form",
    "ode-order",
    "pde-manufactured",
    "pde-spatial-order",
    "pde-classical-agreement",
    "propagation-determinism",
)


class CheckError(Exception):
    """A program output failed one of the benchmark's checks."""


@dataclass(frozen=True)
class ClosedForm:
    """The field a manufactured march must reproduce, with its linearisation.

    ``s`` and ``coef`` are the pointwise power and the time coefficient of
    the marched equation, ``i hbar coef du/dt = -(hbar^2/2m) d2/dx2 u^s``.
    """

    equation: str  # "new" or "nrt"
    q: float
    p: float = 1.0
    m: float = 0.5
    hbar: float = 1.0

    @property
    def energy(self) -> float:
        return self.p * self.p / (2.0 * self.m)

    @property
    def s(self) -> float:
        return 1.0 / self.q if self.equation == "new" else 2.0 - self.q

    @property
    def coef(self) -> float:
        return 1.0 if self.equation == "new" else 2.0 - self.q

    def _x_base(self):
        """(c, sigma) of the one x-dependent base of u^s = C(t) (1 + c x + ...)^sigma."""
        q, p, hbar = self.q, self.p, self.hbar
        if self.equation == "new":
            return 1j * (1.0 - q) * p / hbar, 1.0 / (1.0 - q)
        r = math.sqrt(2.0 * (2.0 - q) * (3.0 - q))
        return 1j * (1.0 - q) * p / (r * hbar), 2.0 * (2.0 - q) / (1.0 - q)

    def log(self, x, t: float) -> np.ndarray:
        """Continuous logarithm of the field on an array of x at time t."""
        x = np.asarray(x, dtype=float)
        q, p, hbar, e = self.q, self.p, self.hbar, self.energy
        if q == 1.0:
            return 1j * (p * x - e * t) / hbar + 0j
        if self.equation == "new":
            base = 1.0 + 1j * (1.0 - q) * (p * x - e * t) / hbar
            return q / (1.0 - q) * np.log(base)
        r = math.sqrt(2.0 * (2.0 - q) * (3.0 - q))
        f_base = 1.0 + 1j * (1.0 - q) * e * t / ((2.0 - q) * hbar)
        g_base = 1.0 + 1j * (1.0 - q) * p * x / (r * hbar)
        return np.log(f_base) / (q - 1.0) + 2.0 / (1.0 - q) * np.log(g_base)

    def __call__(self, x, t: float) -> np.ndarray:
        return np.exp(self.log(x, t))

    def growth_rate(self, x, t_end: float, dx: float) -> float:
        """Largest growth rate of grid-scale perturbations over [0, t_end].

        Freezing coefficients, a perturbation exp(ikx) obeys
        d/dt = (hbar/2m) k^2 Im[(s/coef) u^(s-1)]; the rate at the Nyquist
        wavenumber pi/dx bounds every resolved mode.  For NEW this is the
        estimate (hbar/2m) Im[(1 + i(1-q)(px-Et)/hbar)/q] k^2 of the
        package README; for NRT the factor is psi^(1-q).
        """
        worst = 0.0
        for t in (0.0, t_end):
            im = np.imag(self.s / self.coef * np.exp((self.s - 1.0) * self.log(x, t)))
            worst = max(worst, float(np.max(im)))
        return self.hbar / (2.0 * self.m) * (math.pi / dx) ** 2 * worst

    def d4_max(self, x, t_end: float) -> float:
        """max |d4/dx4 u^s| over the grid at t = 0 and t = t_end."""
        x = np.asarray(x, dtype=float)
        worst = 0.0
        for t in (0.0, t_end):
            w = np.abs(np.exp(self.s * self.log(x, t)))
            if self.q == 1.0:
                d4 = (self.p / self.hbar) ** 4 * w
            else:
                c, sig = self._x_base()
                base = 1.0 + c * x + (-1j * (1.0 - self.q) * self.energy * t / self.hbar
                                      if self.equation == "new" else 0.0)
                d4 = w * abs(sig * (sig - 1.0) * (sig - 2.0) * (sig - 3.0) * c**4) / np.abs(base) ** 4
            worst = max(worst, float(np.max(d4)))
        return worst


def horizon_steps(form: ClosedForm, x, dx: float, dt: float, cap: int) -> int:
    """Most steps (up to ``cap``) for which eps * exp(rate * T) <= ROUNDOFF_TARGET."""
    rate = form.growth_rate(x, cap * dt, dx)
    if rate <= 0.0:
        return cap
    return max(1, min(cap, int(math.log(ROUNDOFF_TARGET / EPS) / (rate * dt))))


def error_bound(form: ClosedForm, x, dx: float, t_end: float) -> float:
    """Bound on the final interior L_inf error of a march to t_end.

    The central Laplacian errs by (dx^2/12) d4(u^s); scaled by the RHS
    factor hbar/(2m coef) it injects that error at every instant, and
    accumulated linearly over the horizon it predicts the q > 1 errors
    exactly.  For q < 1 the error sits next to the downstream boundary,
    where the anti-diffusive term amplifies it past linear growth: on the
    horizons of ``horizon_steps`` it reaches 2.5 times the linear
    estimate.  The bound is four times the linear estimate, plus the
    roundoff target.
    """
    injected = form.hbar / (2.0 * form.m * abs(form.coef)) * dx * dx / 12.0
    truncation = t_end * injected * form.d4_max(x, t_end)
    return 4.0 * truncation + ROUNDOFF_TARGET


def check_march(form: ClosedForm, x, dt: float, steps: int, times, first, last) -> float:
    """Check one march against the closed form; return its final interior error.

    ``times`` holds every frame's time; ``first`` and ``last`` are the
    initial and final frames.
    """
    x = np.asarray(x, dtype=float)
    times = np.asarray(times, dtype=float)
    first = np.asarray(first)
    last = np.asarray(last)
    label = f"{form.equation} q={form.q!r} p={form.p!r}"
    if times.shape != (steps + 1,) or first.shape != x.shape or last.shape != x.shape:
        raise CheckError(f"{label}: expected {steps + 1} frames of {x.size} points, got "
                         f"{times.size} frames of {first.size} and {last.size}")
    if not np.all(np.abs(times - dt * np.arange(steps + 1)) <= 1e-6 * dt):
        raise CheckError(f"{label}: frame times are not k*dt")
    if not (np.all(np.isfinite(first)) and np.all(np.isfinite(last))):
        raise CheckError(f"{label}: non-finite frame values")
    start = float(np.max(np.abs(first - form(x, 0.0))))
    if start > 1e-12 * max(1.0, float(np.max(np.abs(first)))):
        raise CheckError(f"{label}: initial frame is off the closed form by {start:.3g}")
    t_end = float(times[-1])
    err = float(np.max(np.abs(last[1:-1] - form(x[1:-1], t_end))))
    bound = error_bound(form, x, float(x[1] - x[0]), t_end)
    if not err <= bound:
        raise CheckError(f"{label}: final interior error {err:.3g} exceeds the "
                         f"truncation bound {bound:.3g}")
    return err


def check_classical_pair(frames_new, frames_nrt) -> float:
    """At q = 1 the NEW and NRT marches agree frame by frame."""
    if len(frames_new) != len(frames_nrt):
        raise CheckError("q = 1 NEW and NRT marches have different frame counts")
    gap = max(float(np.max(np.abs(a - b))) for a, b in zip(frames_new, frames_nrt))
    if not gap <= CLASSICAL_PAIR_TOL:
        raise CheckError(f"q = 1 NEW and NRT frames differ by {gap:.3g}")
    return gap


def check_verify_report(path: Path) -> None:
    """Every suite of ``qnlse verify`` is present and passed."""
    try:
        report = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as err:
        raise CheckError(f"verify report does not parse: {err}") from err
    if not isinstance(report, dict):
        raise CheckError("verify report is not a JSON object")
    passed = {k[: -len(".passed")]: v for k, v in report.items() if k.endswith(".passed")}
    if set(passed) != set(SUITES):
        raise CheckError(f"verify report suites differ: missing "
                         f"{sorted(set(SUITES) - set(passed))}, extra "
                         f"{sorted(set(passed) - set(SUITES))}")
    failed = sorted(name for name, v in passed.items() if v != 1)
    if failed:
        raise CheckError(f"verify suites not passed: {failed}")
    if report.get("all_passed") != 1:
        raise CheckError("verify report has all_passed != 1")


def read_csv_frames(directory: Path, steps: int, n_points: int):
    """(x, times, values) parsed from a ``propagate --format csv`` directory."""
    directory = Path(directory)
    names = sorted(p.name for p in directory.iterdir())
    expected = [f"frame_{k:06d}.csv" for k in range(steps + 1)]
    if names != expected:
        raise CheckError(f"{directory.name}: {len(names)} frame files, expected "
                         f"frame_000000..frame_{steps:06d}")
    x = None
    times = np.empty(steps + 1)
    values = np.empty((steps + 1, n_points), dtype=complex)
    for k, name in enumerate(expected):
        rows = list(csv.reader(io.StringIO((directory / name).read_text(encoding="utf-8"))))
        if not rows or rows[0] != ["x", "t", "re", "im"] or len(rows) != n_points + 1:
            raise CheckError(f"{name}: expected a header and {n_points} rows")
        try:
            table = np.array([[float(v) for v in row] for row in rows[1:]])
        except ValueError as err:
            raise CheckError(f"{name}: {err}") from err
        if table.shape != (n_points, 4) or np.any(table[:, 1] != table[0, 1]):
            raise CheckError(f"{name}: malformed rows")
        if x is None:
            x = table[:, 0]
        elif not np.array_equal(table[:, 0], x):
            raise CheckError(f"{name}: x column differs from frame 0")
        times[k] = table[0, 1]
        values[k] = table[:, 2] + 1j * table[:, 3]
    return x, times, values


def read_json_frames(path: Path, equation: str, q: float):
    """(x, times, values) parsed from a ``propagate --format json`` file."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
        if payload["equation"] != equation or payload["q"] != q:
            raise CheckError(f"{Path(path).name}: wrong equation or q")
        x = np.array(payload["x"], dtype=float)
        frames = payload["frames"]
        times = np.array([f["t"] for f in frames], dtype=float)
        values = np.array([f["re"] for f in frames], dtype=float) \
            + 1j * np.array([f["im"] for f in frames], dtype=float)
    except (OSError, ValueError, KeyError, TypeError) as err:
        raise CheckError(f"{Path(path).name} does not parse as frames: {err}") from err
    return x, times, values


def check_cli_frames(form: ClosedForm, x_expected, dt: float, steps: int,
                     csv_dir: Path, json_path: Path) -> float:
    """CSV and JSON emissions of one march carry the same doubles and the right field."""
    x_expected = np.asarray(x_expected, dtype=float)
    xc, tc, vc = read_csv_frames(csv_dir, steps, x_expected.size)
    xj, tj, vj = read_json_frames(json_path, form.equation, form.q)
    if not (np.array_equal(xc, x_expected) and np.array_equal(xj, x_expected)):
        raise CheckError("emitted x grid differs from linspace(xmin, xmax, nx)")
    if not (np.array_equal(tc, tj) and vc.shape == vj.shape and np.array_equal(vc, vj)):
        raise CheckError("CSV and JSON frames do not carry identical doubles")
    return check_march(form, x_expected, dt, steps, tj, vj[0], vj[-1])
