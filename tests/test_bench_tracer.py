"""The benchmark's tracer wraps package functions by name; a rename that
would silently zero its per-layer counts fails here instead."""

import importlib.util
import warnings
from pathlib import Path

import pytest

from qnlse import _kernels, cli, integrators, residuals
from qnlse.errors import PropagationError
from qnlse.integrators import GridSpec, manufactured_field
from qnlse.residuals import Analytic
from qnlse.solutions import (
    FreeParticleSpec,
    SolutionKind,
    classical_plane_wave_field,
    product_solution_field,
    q_plane_wave_field,
    separated_space_curve,
    separated_time_curve,
)

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_counts_point_residuals_and_kernel_marches():
    spec = FreeParticleSpec(q=1.5)
    samplers = {
        "new-field": q_plane_wave_field(spec),
        "new-phi": q_plane_wave_field(spec).pow(spec.q),
        "nrt-field": product_solution_field(SolutionKind.NRT, spec),
        "new-time": separated_time_curve(SolutionKind.NEW, spec),
        "nrt-time": separated_time_curve(SolutionKind.NRT, spec),
        "new-space": separated_space_curve(SolutionKind.NEW, spec),
        "nrt-space": separated_space_curve(SolutionKind.NRT, spec),
    }
    grid = GridSpec(-1.0, 1.0, 3, 0.1, 1)
    exact = manufactured_field(SolutionKind.NEW, spec)
    originals = (residuals.scan_residual, integrators.propagate, _kernels.propagate_frames)

    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        samples = 0
        for tag, sampler in samplers.items():
            report = residuals.scan_residual(tag, sampler, grid, Analytic(), q=spec.q,
                                             m=spec.m, hbar=spec.hbar, lam=spec.energy)
            samples += report.n_samples
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            initial = integrators.sample_field(exact, GridSpec(-1.0, 1.0, 11, 1e-4, 2), 0.0)
            integrators.propagate(SolutionKind.NEW, initial, spec.q, spec.m, spec.hbar,
                                  boundary=exact)
    finally:
        tracer.uninstall()

    assert (residuals.scan_residual, integrators.propagate, _kernels.propagate_frames) \
        == originals
    assert tracer.groups["residuals.scan_residual"][0] == len(samplers)
    assert samples == 3 * (3 * 2) + 2 * 2 + 2 * 3  # (x, t) mesh, t axis, x axis
    # one point-residual call per scan, over its whole mesh
    assert tracer.groups["residuals.point"][0] == len(samplers)
    assert tracer.groups["kernels.propagate_frames"][0] == 1
    assert tracer.counters["kernels.point_updates"] == 9 * 2


def test_tracer_lets_a_failing_march_raise_and_closes_its_spans():
    spec = FreeParticleSpec(q=0.5)
    exact = manufactured_field(SolutionKind.NEW, spec)
    initial = integrators.sample_field(exact, GridSpec(-1.0, 1.0, 201, 0.05, 40), 0.0)
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with pytest.raises(PropagationError, match="non-finite at step 2, index 1$"):
                integrators.propagate(SolutionKind.NEW, initial, spec.q, spec.m, spec.hbar,
                                      boundary=exact)
    finally:
        tracer.uninstall()

    assert tracer.groups["integrators.propagate"][0] == 1
    assert tracer.groups["kernels.propagate_frames"][0] == 1
    assert tracer._stack == []
    # the count is read from the kernel's arguments: the planned march, 199 x 40
    assert tracer.counters["kernels.point_updates"] == 199 * 40


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_tracer_counts_every_emitted_byte_and_file(fmt, tmp_path):
    out = tmp_path / f"frames.{fmt}"
    argv = ["propagate", "--equation", "nrt", "--q", "1.03", "--nx", "41",
            "--dt", "1e-4", "--steps", "4", "--format", fmt, "--out", str(out)]
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        assert cli.main(argv) == cli.EXIT_OK
    finally:
        tracer.uninstall()

    files = sorted(out.iterdir()) if fmt == "csv" else [out]
    assert len(files) == (5 if fmt == "csv" else 1)
    assert tracer.counters["reports.emit.files"] == len(files)
    assert tracer.counters["reports.emit.bytes"] == sum(f.stat().st_size for f in files)
    assert tracer.groups["cli.cmd_propagate"][0] == 1
    assert tracer.groups["kernels.propagate_frames"][0] == 1


@pytest.mark.parametrize("name, args", [
    ("integrate_separated_time", (SolutionKind.NEW, 1.5, 1.0, 1.0, 0.3, 0.01)),
    ("integrate_separated_space", (SolutionKind.NRT, 0.9, 1.0, 0.5, 1.0, -0.3, 0.01)),
])
def test_tracer_counts_one_rk4_call_per_separated_step(name, args):
    # integrators.ode.rk4_steps is the count of traced rk4_step calls, so
    # each step must still call rk4_step through the module
    tracer = load_tracer().Tracer()
    tracer.install()
    try:
        trajectory = getattr(integrators, name)(*args)
    finally:
        tracer.uninstall()
    assert len(trajectory) == 31  # 30 steps of 0.01 across a span of 0.3
    assert tracer.groups["integrators.ode"][0] == 1
    assert tracer.groups["integrators.rk4_step"][0] == 30


def test_tracer_books_each_closed_form_call_once_at_q1():
    # the q = 1 closed forms are subclasses that inherit their calculus;
    # every call of a method (nested ones too) is one fields.eval call
    spec = FreeParticleSpec(q=1.0)
    lam = {"lam": spec.energy}
    scans = [  # (tag, sampler, a point for a scalar call, scan keywords)
        ("new-field", classical_plane_wave_field(spec), (0.25, 0.5), {}),
        ("new-time", separated_time_curve(SolutionKind.NEW, spec), (0.25,), lam),
        ("new-space", separated_space_curve(SolutionKind.NEW, spec), (0.25,), lam),
    ]
    grid = GridSpec(-1.0, 1.0, 5, 0.1, 2)

    def run_scans():
        for tag, sampler, point, extra in scans:
            residuals.scan_residual(tag, sampler, grid, Analytic(), q=spec.q, m=spec.m,
                                    hbar=spec.hbar, **extra)
            sampler(*point)

    module = load_tracer()
    tracer = module.Tracer()
    tracer.install()
    try:
        run_scans()
    finally:
        tracer.uninstall()

    calls = [0]

    def counted(method):
        def call(*args, **kwargs):
            calls[0] += 1
            return method(*args, **kwargs)
        return call

    with pytest.MonkeyPatch.context() as patch:
        for cls in {type(scan[1]) for scan in scans}:
            for name in module.FIELD_METHODS:
                if hasattr(cls, name):
                    patch.setattr(cls, name, counted(getattr(cls, name)))
        run_scans()

    assert calls[0] > 0
    assert tracer.groups["fields.eval"][0] == calls[0]
