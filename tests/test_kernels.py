"""The method-of-lines RK4 kernel against closed forms and its linear path."""

import warnings

import numpy as np

from qnlse import _kernels
from qnlse.integrators import GridSpec, interior_linf_error, manufactured_field, propagate, sample_field
from qnlse.solutions import FreeParticleSpec, SolutionKind


def test_march_matches_closed_form():
    spec = FreeParticleSpec(q=1.2)
    exact = manufactured_field(SolutionKind.NEW, spec)
    grid = GridSpec(-3.0, 3.0, 121, 5e-5, 50)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        frames = propagate(SolutionKind.NEW, sample_field(exact, grid, 0.0), spec.q,
                           spec.m, spec.hbar, boundary=exact)
    assert interior_linf_error(frames[-1], exact) < 1e-5


def test_unit_power_shortcut_keeps_linear_path_exact():
    # s = 1 must bypass the magnitude/angle round trip entirely
    n = 9
    v0 = (np.linspace(1, 2, n) + 1j * np.linspace(-1, 1, n)).astype(np.complex128)
    th0 = np.angle(v0)
    pot = np.zeros(n)
    bl = np.ones((1, 3), dtype=np.complex128) * v0[0]
    br = np.ones((1, 3), dtype=np.complex128) * v0[-1]
    frames, _, status = _kernels.propagate_frames(
        v0, th0, 1.0, -1j, -1.0, 1.0, pot, 0.0, 1, bl, br)
    assert status[0] == _kernels.STATUS_OK
    # dt = 0 keeps the interior exactly equal to the initial values
    assert np.array_equal(frames[1][1:-1], v0[1:-1])
