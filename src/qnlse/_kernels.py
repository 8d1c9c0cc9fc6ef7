"""Hot inner loop of the method-of-lines propagator: a vectorized numpy
RK4 time march.

The state is the complex field plus a per-point continuous phase
``theta``.  The pointwise fractional power of the field is taken on
the branch tracked by ``theta`` (updated by continuity after every
accepted step), not on the principal branch: the fields being
propagated wind past |arg| = pi on wide grids, where a principal
power would jump and inject O(1) errors into the stencil.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

STATUS_OK = 0
STATUS_ZERO = 1
STATUS_NONFINITE = 2


def _phase_step(y, theta):
    """Argument of ``y`` relative to ``theta``, wrapped into [-pi, pi]."""
    d = np.angle(y) - theta
    d -= TWO_PI * np.round(d / TWO_PI)
    return d


def _tracked_power(y, theta, s):
    if s == 1.0:
        return y.copy()
    r = np.abs(y)
    if np.any(r == 0.0):
        return None
    ang = s * (theta + _phase_step(y, theta))
    return r**s * (np.cos(ang) + 1j * np.sin(ang))


def _rhs(y, theta, s, cinv, kappa, dxinv2, pot):
    w = _tracked_power(y, theta, s)
    if w is None:
        return None
    out = np.zeros_like(y)
    lap = (w[2:] - 2.0 * w[1:-1] + w[:-2]) * dxinv2
    out[1:-1] = (kappa * lap + pot[1:-1] * w[1:-1]) * cinv
    return out


def propagate_frames(v0, th0, s, cinv, kappa, dxinv2, pot, dt, n_steps, bl, br):
    """Run the RK4 march; returns (frames, theta, status) with status[0]
    one of the STATUS_* codes and status[1:3] = (step, index) on failure."""
    v0 = np.ascontiguousarray(v0, dtype=np.complex128)
    theta = np.array(th0, dtype=np.float64)
    s, cinv, kappa, dxinv2 = float(s), complex(cinv), float(kappa), float(dxinv2)
    pot = np.ascontiguousarray(pot, dtype=np.float64)
    dt, n_steps = float(dt), int(n_steps)
    bl = np.ascontiguousarray(bl, dtype=np.complex128)
    br = np.ascontiguousarray(br, dtype=np.complex128)

    n = v0.shape[0]
    frames = np.empty((n_steps + 1, n), dtype=np.complex128)
    status = np.zeros(3, dtype=np.int64)

    y = v0.copy()
    frames[0, :] = y

    def fail(code, step, index=0):
        status[0] = code
        status[1] = step
        status[2] = index
        return frames, theta, status

    for step in range(n_steps):
        y[0] = bl[step, 0]
        y[-1] = br[step, 0]
        k1 = _rhs(y, theta, s, cinv, kappa, dxinv2, pot)
        if k1 is None:
            return fail(STATUS_ZERO, step)
        stage = y + 0.5 * dt * k1
        stage[0] = bl[step, 1]
        stage[-1] = br[step, 1]
        k2 = _rhs(stage, theta, s, cinv, kappa, dxinv2, pot)
        if k2 is None:
            return fail(STATUS_ZERO, step)
        stage = y + 0.5 * dt * k2
        stage[0] = bl[step, 1]
        stage[-1] = br[step, 1]
        k3 = _rhs(stage, theta, s, cinv, kappa, dxinv2, pot)
        if k3 is None:
            return fail(STATUS_ZERO, step)
        stage = y + dt * k3
        stage[0] = bl[step, 2]
        stage[-1] = br[step, 2]
        k4 = _rhs(stage, theta, s, cinv, kappa, dxinv2, pot)
        if k4 is None:
            return fail(STATUS_ZERO, step)
        y = y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        y[0] = bl[step, 2]
        y[-1] = br[step, 2]

        finite = np.isfinite(y.real) & np.isfinite(y.imag)
        if not np.all(finite):
            return fail(STATUS_NONFINITE, step, int(np.argmin(finite)))
        zero = y == 0
        if np.any(zero):
            return fail(STATUS_ZERO, step, int(np.argmax(zero)))
        theta += _phase_step(y, theta)
        frames[step + 1, :] = y
    return frames, theta, status
