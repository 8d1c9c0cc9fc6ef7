"""The march kernel against itself at extended precision.

``_kernels.propagate_frames`` marches in the dtype of its initial frame,
so the same kernel, fed the same inputs with ``v0`` cast to
``np.clongdouble`` (64-bit mantissa, u = 1.08e-19 on x86-64), is an oracle
for the rounding of the float64 march: abs(f64 - f80) is that rounding,
and abs(f64 - exact) is rounding plus truncation.  On smooth marches both
stay small; on rough ones, where the equation grows grid-scale modes, the
error is truncation that the equation grows, not rounding.
"""

import ast
import inspect
import textwrap
import warnings

import numpy as np
import pytest

from qnlse import _kernels
from qnlse.integrators import GridSpec, _march_args, manufactured_field, sample_field
from qnlse.solutions import FreeParticleSpec, SolutionKind

EPS = np.finfo(np.float64).eps
# where numpy's longdouble is float64, the oracle would be the march itself
EXTENDED = pytest.mark.skipif(np.finfo(np.longdouble).eps >= EPS,
                              reason="np.longdouble is no wider than float64 here")

# NEW and NRT manufactured marches on [-5, 5] with 401 points (dx = 0.025),
# p = 1, m = 0.5, hbar = 1: (kind, q, dt, steps)
SMOOTH = [(SolutionKind.NEW, 1.1, 1e-4, 20), (SolutionKind.NRT, 1.1, 1e-4, 20),
          (SolutionKind.NEW, 1.0, 1e-5, 400)]
ROUGH = [(SolutionKind.NEW, 1.03, 1e-5, 2000), (SolutionKind.NEW, 1.1, 1e-5, 1000)]

# the three-point Laplacian's leading error, dx**2/12 |d4w/dx4| |hbar/2m| with
# |d4w/dx4| about p**4 = 1, is 5.2e-5 a unit time, 2.1e-7 over the longest
# smooth march (T = 4e-3); measured at most 2.4e-7.  A march that drops a
# stage's half step is first order in dt and misses it by 1.4e-6 or more.
TRUNCATION_BOUND = 5e-7
# abs(f64 - f80) over abs(f64 - exact) on the rough marches; measured at
# most 5.5e-6 (q = 1.03), 9.4e-7 at q = 1.1
ROUNDING_SHARE = 1e-4


def ids(cases):
    return [f"{kind.name.lower()}-q{q}-dt{dt:g}-{n}" for kind, q, dt, n in cases]


def both_precisions(kind, q, dt, n_steps):
    """The kernel's arguments for the march, and its frames at float64
    and at ``np.clongdouble``, from the same inputs; and the closed form
    at the last frame's time."""
    spec = FreeParticleSpec(q=q)
    field = manufactured_field(kind, spec)
    grid = GridSpec(-5.0, 5.0, 401, dt, n_steps)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # dt past the step-size heuristic
        args = _march_args(kind, sample_field(field, grid, 0.0), q, spec.m, spec.hbar, field, None)
    f64 = _kernels.propagate_frames(*args)
    f80 = _kernels.propagate_frames(args[0].astype(np.clongdouble), *args[1:])
    assert (f64.dtype, f80.dtype) == (np.complex128, np.clongdouble)
    return args, f64, f80, sample_field(field, grid, n_steps * dt).values


def rounding_budget(args, f64):
    """The ``_kernels`` docstring's bound on a march's rounding: over N
    steps, N times the two updates' 2u of max|y| and the slopes' move,
    dt*|c|*4*delta*max|w|, under the powers' error
    delta = (4P + 2(2 + |s*theta|))u, with theta within E*T = 0.5 rad of
    th0; at s = 1 the power is the field and delta is 0."""
    _, th0, s, cinv, kappa, dxinv2, _, dt, n_steps = args[:9]
    y_max = np.max(np.abs(f64))
    phase = np.max(np.abs(s * th0)) + abs(s) * 0.5
    delta = 0.0 if s == 1.0 else (4 * _kernels.REANCHOR_PERIOD + 2 * (2 + phase)) * EPS
    slope = dt * abs(kappa * dxinv2 * cinv) * 4
    return n_steps * (2 * EPS * y_max + slope * delta * y_max**s)


@EXTENDED
@pytest.mark.parametrize("kind, q, dt, n_steps", SMOOTH, ids=ids(SMOOTH))
def test_smooth_march_rounds_within_budget_and_truncates_within_bound(kind, q, dt, n_steps):
    args, f64, f80, exact = both_precisions(kind, q, dt, n_steps)
    # measured 1.3e-14, 5.4e-14 and 1.9e-15 against 2.3e-13, 2.6e-13 and 1.8e-13
    assert np.max(np.abs(f64 - f80)) <= rounding_budget(args, f64)
    assert np.max(np.abs(f64[-1] - exact)[1:-1]) <= TRUNCATION_BOUND


@EXTENDED
@pytest.mark.parametrize("kind, q, dt, n_steps", ROUGH, ids=ids(ROUGH))
def test_rough_march_error_is_truncation_not_rounding(kind, q, dt, n_steps):
    _, f64, f80, exact = both_precisions(kind, q, dt, n_steps)
    rounding = np.max(np.abs(f64[-1] - f80[-1])[1:-1])
    error = np.max(np.abs(f64[-1] - exact)[1:-1])
    assert error > 1e3 * TRUNCATION_BOUND  # the equation has grown it: 2e-3 and 190
    assert rounding > 0  # the clongdouble march is not the float64 one
    assert rounding <= ROUNDING_SHARE * error


# ---------------------------------------------------------------------------
# the precision rule
# ---------------------------------------------------------------------------

MARCH_FUNCTIONS = ["_march_blocks", "propagate_frames", "_phase_step", "_tracked_power",
                   "series_radius"]


def precision_literals(source: str) -> list[str]:
    """The places in ``source`` that fix a precision the march should take
    from its input: ``np.complex128`` or ``np.float64`` named, or
    ``np.empty`` or ``np.array`` called without a dtype."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "np" and node.attr in ("complex128", "float64")):
            found.append(f"line {node.lineno}: np.{node.attr}")
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id == "np"
              and node.func.attr in ("empty", "array") and len(node.args) < 2
              and not any(k.arg == "dtype" for k in node.keywords)):
            found.append(f"line {node.lineno}: np.{node.func.attr} without a dtype")
    return found


@pytest.mark.parametrize("name", MARCH_FUNCTIONS)
def test_march_function_takes_its_precision_from_its_input(name):
    source = textwrap.dedent(inspect.getsource(getattr(_kernels, name)))
    assert precision_literals(source) == []


def test_a_precision_literal_is_caught():
    source = ("def f(v0, n):\n"
              "    a = np.empty(n)\n"
              "    b = np.empty(n, dtype=v0.dtype)\n"
              "    c = np.array(0.0)\n"
              "    return v0.view(np.float64), np.array(1.0, np.complex128)\n")
    assert precision_literals(source) == ["line 2: np.empty without a dtype",
                                          "line 4: np.array without a dtype",
                                          "line 5: np.float64", "line 5: np.complex128"]
