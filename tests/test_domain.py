"""The q-domain contract: every entry point accepts or rejects (kind, q)
exactly as the rule in ``solutions`` that it depends on."""

import cmath
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qnlse import _kernels
from qnlse.cli import main
from qnlse.errors import DomainError
from qnlse.fields import ExpCurve, ExponentialField, PowerCurve, PowerProductField
from qnlse.integrators import (
    Frame,
    GridSpec,
    integrate_separated_space,
    integrate_separated_time,
    propagate,
)
from qnlse.residuals import (
    Analytic,
    new_nlse_phi_residual,
    nrt_residual,
    separated_space_residual,
    separated_time_residual,
)
from qnlse.solutions import (
    FreeParticleSpec,
    SolutionKind,
    admits_space,
    admits_time,
    marched_form,
    product_solution_field,
    q_plane_wave_field,
    separated_space_curve,
    separated_time_curve,
    space_root,
    time_coefficient,
)

NEW, NRT = SolutionKind.NEW, SolutionKind.NRT
Q_VALUES = (0.0, 1e-13, 2.0 - 1e-13, 2.0, -1.0, 2.5, 3.5)
NON_FINITE_Q = (math.inf, -math.inf, math.nan)


def admits_marched(kind, q):
    try:
        marched_form(kind, q)
    except DomainError:
        return False
    return True


def curve_time(kind, q):
    separated_time_curve(kind, FreeParticleSpec(q=q))


def curve_space(kind, q):
    separated_space_curve(kind, FreeParticleSpec(q=q))


def ode_time(kind, q):
    integrate_separated_time(kind, q, 1.0, 1.0, 1e-3, 1e-3)


def ode_space(kind, q):
    integrate_separated_space(kind, q, 1.0, 0.5, 1.0, 1e-3, 1e-3)


def march(kind, q):
    grid = GridSpec(-1.0, 1.0, 5, 1e-4, 1)
    propagate(kind, Frame(grid, 0.0, np.ones(5, dtype=complex)), q, 0.5, 1.0,
              boundary=lambda x, t: 1.0 + 0j)


def field_residual(kind, q):
    residual = new_nlse_phi_residual if kind is NEW else nrt_residual
    residual(ExponentialField(1j, -1j), q, 0.5, 1.0, None, (0.3, 0.2), Analytic())


def time_residual(kind, q):
    separated_time_residual(kind, ExpCurve(-1j), q, 1.0, 1.0, 0.2, Analytic())


def space_residual(kind, q):
    separated_space_residual(kind, ExpCurve(1j), q, 1.0, 0.5, 1.0, 0.3, Analytic())


def cli(kind, q):
    code = main(["converge", "--study", "ode-time", "--equation", kind.value,
                 "--q", repr(q), "--levels", "2"])
    if code == 2:
        raise DomainError("exit 2")


ENTRY_POINTS = [
    (curve_time, admits_time),
    (curve_space, admits_space),
    (ode_time, admits_time),
    (ode_space, admits_space),
    (march, admits_marched),
    (field_residual, admits_marched),
    (time_residual, admits_time),
    (space_residual, admits_space),
    (cli, admits_marched),
]


def test_rules_as_stated():
    assert [admits_time(NEW, q) for q in Q_VALUES] == [False, False, True, True, True, True, True]
    assert [admits_time(NRT, q) for q in Q_VALUES] == [True, True, False, False, True, True, True]
    assert [admits_space(NEW, q) for q in Q_VALUES] == [True, True, True, True, False, True, True]
    assert [admits_space(NRT, q) for q in Q_VALUES] == [True, True, False, False, True, False, True]
    assert [admits_marched(kind, q) for kind in SolutionKind for q in Q_VALUES] \
        == [admits_time(kind, q) for kind in SolutionKind for q in Q_VALUES]


@pytest.mark.parametrize("q", Q_VALUES + NON_FINITE_Q)
@pytest.mark.parametrize("kind", list(SolutionKind))
@pytest.mark.parametrize("call, admits", ENTRY_POINTS,
                         ids=[call.__name__ for call, _ in ENTRY_POINTS])
def test_entry_point_follows_its_rule(capsys, call, admits, kind, q):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        if admits(kind, q):
            call(kind, q)
        else:
            with pytest.raises(DomainError):
                call(kind, q)


# how solutions words the refusal of each separated equation's inadmissible q
SEPARATED_REFUSALS = {
    "time": [(NEW, 0.0, "the q-power time equation requires q != 0, got q=0.0"),
             (NRT, 2.0, "the NRT time equation requires q != 2, got q=2.0")],
    "space": [(NEW, -1.0, "the q-power space equation requires q > -1, got q=-1.0"),
              (NRT, 2.5, "the NRT space equation requires q != 2 and (2-q)(3-q) > 0, "
                         "got q=2.5")],
}


@pytest.mark.parametrize("call, kind, q, message", [
    pytest.param(call, kind, q, message, id=f"{call.__name__}-{kind.value}")
    for call, axis in [(ode_time, "time"), (time_residual, "time"),
                       (ode_space, "space"), (space_residual, "space")]
    for kind, q, message in SEPARATED_REFUSALS[axis]])
def test_separated_entry_point_refuses_q_in_the_words_of_solutions(call, kind, q, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call(kind, q)


@pytest.mark.parametrize("q", NON_FINITE_Q)
@pytest.mark.parametrize("kind", list(SolutionKind))
def test_non_finite_q_is_refused_as_not_finite(kind, q):
    # q = inf once marched NEW with s = 0 and returned finite frames
    assert not admits_time(kind, q) and not admits_space(kind, q)
    for call in (marched_form, time_coefficient, space_root, march):
        with pytest.raises(DomainError, match=f"^q must be finite, got q={q}$"):
            call(kind, q)


@pytest.mark.parametrize("q", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("kind", ["new", "nrt"])
def test_propagate_cli_refuses_a_non_finite_q_on_one_error_line(capsys, kind, q):
    code = main(["propagate", "--equation", kind, f"--q={q}", "--nx", "11", "--steps", "2"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: --equation {kind}: q must be finite, got q={q}"]


@pytest.mark.parametrize("bad", [*NON_FINITE_Q, 10**400],
                         ids=["inf", "-inf", "nan", "int-beyond-float"])
def test_non_finite_potential_is_refused_before_the_march(monkeypatch, bad):
    # it was a march failure: "field value became non-finite at step 0, index 1";
    # an int beyond every float escaped as float()'s OverflowError
    def no_march(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(_kernels, "propagate_frames", no_march)
    grid = GridSpec(-1.0, 1.0, 5, 1e-4, 1)
    with pytest.raises(DomainError, match=r"^potential is not finite at x=0\.5$"):
        propagate(NEW, Frame(grid, 0.0, np.ones(5, dtype=complex)), 1.5, 0.5, 1.0,
                  boundary=lambda x, t: 1.0 + 0j, potential=lambda x: bad if x > 0.0 else 0.0)


@pytest.mark.parametrize("value", [1j, "a", None], ids=["complex", "str", "none"])
def test_potential_that_is_not_a_real_number_is_refused_before_the_march(monkeypatch, value):
    # it leaked the bare TypeError or ValueError of float(value)
    def no_march(*args):
        raise AssertionError("the kernel ran")

    monkeypatch.setattr(_kernels, "propagate_frames", no_march)
    grid = GridSpec(-1.0, 1.0, 5, 1e-4, 1)
    with pytest.raises(DomainError, match=r"^potential is not a real number at x=-1\.0$"):
        propagate(NEW, Frame(grid, 0.0, np.ones(5, dtype=complex)), 1.5, 0.5, 1.0,
                  boundary=lambda x, t: 1.0 + 0j, potential=lambda x: value)


# closed forms at an infinite coordinate: the value is not finite, and
# that is the one thing the caller hears (no numpy warning first)
INF = math.inf
FIELDS = {
    "power-product": q_plane_wave_field(FreeParticleSpec(q=1.5)),
    "product-solution": product_solution_field(NRT, FreeParticleSpec(q=0.7)),
    "exponential": q_plane_wave_field(FreeParticleSpec(q=1.0)),
}
CURVES = {
    "power": separated_space_curve(NEW, FreeParticleSpec(q=1.5)),
    "power-time": separated_time_curve(NRT, FreeParticleSpec(q=0.7)),
    "exponential": separated_time_curve(NEW, FreeParticleSpec(q=1.0)),
}


def test_infinity_cases_cover_every_closed_form_class():
    assert {type(f) for f in FIELDS.values()} == {PowerProductField, ExponentialField}
    assert {type(c) for c in CURVES.values()} == {PowerCurve, ExpCurve}


@pytest.mark.parametrize("point", [(INF, 0.0), (-INF, 0.3), (0.2, INF), (0.0, -INF),
                                   (np.array([0.0, 1.0, INF]), 0.5)])
@pytest.mark.parametrize("method", ["__call__", "d_t", "d_x", "d_xx"])
@pytest.mark.parametrize("field", FIELDS.values(), ids=list(FIELDS))
def test_field_at_an_infinite_coordinate_raises_without_warnings(field, method, point):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^field value is not finite at \(x=.*inf"):
            getattr(field, method)(*point)


@pytest.mark.parametrize("u", [INF, -INF, np.array([-1.0, 0.0, -INF])])
@pytest.mark.parametrize("call", ["value", "deriv1", "deriv2"])
@pytest.mark.parametrize("curve", CURVES.values(), ids=list(CURVES))
def test_curve_at_an_infinite_coordinate_raises_without_warnings(curve, call, u):
    args = (u,) if call == "value" else (u, int(call[-1]))
    method = curve if call == "value" else curve.deriv
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match=r"^curve value is not finite at \(u=-?inf\)"):
            method(*args)


def test_curve_refuses_a_zero_amplitude_and_a_third_derivative():
    with pytest.raises(DomainError, match="^curve amplitude must be nonzero$"):
        PowerCurve(0.5j, 1.5, amplitude=0)
    for curve in CURVES.values():
        with pytest.raises(DomainError, match="^derivative order must be 1 or 2, got 3$"):
            curve.deriv(0.5, 3)


def test_closed_forms_take_exactly_their_class_coordinates():
    # a curve is a one-coordinate power product: a field must not read a
    # missing t as the curve's t = 0
    cases = [(f, (0.3,)) for f in FIELDS.values()] + [(c, (0.3, 0.1)) for c in CURVES.values()]
    for sampler, wrong in cases:
        for name in ("__call__", "log_value", "d_t", "d_x", "d_xx"):
            with pytest.raises(TypeError):
                getattr(sampler, name)(*wrong)


@pytest.mark.parametrize("p", [1e308, -1e308])
@pytest.mark.parametrize("q", [0.5, 1.0, 1.5])
def test_closed_forms_of_a_huge_momentum_raise_without_warnings(q, p):
    spec = FreeParticleSpec(q=q, p=p)
    fields = [q_plane_wave_field(spec), product_solution_field(NRT, spec)]
    curves = [separated_space_curve(NEW, spec), separated_time_curve(NEW, spec)]
    calls = [getattr(f, name) for f in fields for name in ("__call__", "d_t", "d_x", "d_xx")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call in calls:
            with pytest.raises(DomainError, match="is not finite"):
                call(1.0, 0.5)
        for curve in curves:  # a phase of p*u can still be finite: no raise needed
            for call in (curve, lambda u: curve.deriv(u, 1), lambda u: curve.deriv(u, 2)):
                try:
                    call(1.0)
                except DomainError as err:
                    assert "is not finite" in str(err)


@settings(max_examples=60, deadline=None)
@given(q=st.sampled_from([0.5, 1.0, 1.5]),
       p=st.floats(1e100, 1e308) | st.floats(-1e308, -1e100),
       u=st.floats(-2.0, 2.0))
@example(q=1.0, p=1e308, u=1.0)  # k*k overflows in Python arithmetic, which neither raises nor warns
def test_closed_form_derivatives_are_finite_or_raise_without_warnings(q, p, u):
    spec = FreeParticleSpec(q=q, p=p)
    curves = [separated_space_curve(NEW, spec), separated_time_curve(NEW, spec)]
    fields = [q_plane_wave_field(spec), product_solution_field(NRT, spec)]
    calls = [(curve.deriv, (u, order)) for curve in curves for order in (1, 2)]
    calls += [(getattr(f, name), (u, 0.5)) for f in fields for name in ("d_t", "d_x", "d_xx")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for call, args in calls:
            try:
                value = call(*args)
            except DomainError as err:
                assert "is not finite at (" in str(err)
            else:
                assert cmath.isfinite(value)


def test_residual_cli_reports_an_overflowing_derivative_on_one_error_line(capsys):
    # the space curve's values are finite on [0.5, 1] at p = 1e308; its derivative is not
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["residual", "--q", "1.0", "--p", "1e308", "--equation", "new",
                     "--form", "space", "--xmin", "0.5", "--xmax", "1.0", "--nx", "3"])
    lines = capsys.readouterr().err.splitlines()
    assert code in (1, 2)
    assert len(lines) == 1
    assert lines[0].startswith("error: curve derivative is not finite at (u=0.5)")
