"""Hot inner loop of the method-of-lines propagator: a vectorized numpy
RK4 time march.

The state is the complex field plus, when the marched power ``s`` is
not 1, a per-point continuous phase ``theta``.  The pointwise
fractional power of the field is taken on the branch tracked by
``theta`` (updated by continuity after every accepted step), not on the
principal branch: the fields being propagated wind past |arg| = pi on
wide grids, where a principal power would jump and inject O(1) errors
into the stencil.  At s = 1 the power is the field itself: the RHS reads
each stage in place, and ``theta`` is neither read nor updated.

Each call allocates its work arrays once (the four slopes, the stage,
the RK4 accumulator, the state, and the float and complex scratch of
the tracked power and the Laplacian); every stage, RHS and end-of-step
operation writes into them with ``out=``.  The operations and their
order are those of the expression form
``y + dt/6*(k1 + 2*k2 + 2*k3 + k4)`` with
``k = (kappa*lap(w) + pot*w) * cinv``, so the frames are the same bits.
An all-zero ``pot`` is detected once per call and its ``pot*w`` term is
skipped: that term is a signed zero, which can only change the sign of
an exactly zero slope component, and the expression-form oracle in
``tests/test_kernels.py``, whose draws include signed zeros, finds no
frame that differs.

``propagate_frames`` returns ``(frames, status)``; rows of ``frames``
after a failing step are left unwritten.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi

STATUS_OK = 0
STATUS_ZERO = 1
STATUS_NONFINITE = 2


def _phase_step(y, theta, out, tmp):
    """Argument of ``y`` relative to ``theta``, wrapped into [-pi, pi], into ``out``."""
    np.arctan2(y.imag, y.real, out=out)
    np.subtract(out, theta, out=out)
    np.divide(out, TWO_PI, out=tmp)
    np.rint(tmp, out=tmp)
    np.multiply(TWO_PI, tmp, out=tmp)
    np.subtract(out, tmp, out=out)
    return out


def _tracked_power(y, theta, s, out, r, ang, tmp, mask):
    """``y**s`` on the branch tracked by ``theta``, into ``out``; None if
    some |y| is zero.  ``r``, ``ang``, ``tmp`` and ``mask`` are scratch."""
    np.abs(y, out=r)
    if np.equal(r, 0.0, out=mask).any():
        return None
    _phase_step(y, theta, ang, tmp)
    np.add(theta, ang, out=ang)
    np.multiply(s, ang, out=ang)
    r **= s  # in place, with the scalar-exponent shortcuts of r**s
    np.cos(ang, out=out.real)
    np.sin(ang, out=out.imag)
    np.multiply(r, out, out=out)
    return out


def propagate_frames(v0, th0, s, cinv, kappa, dxinv2, pot, dt, n_steps, bl, br):
    """Run the RK4 march; returns (frames, status) with status[0] one of
    the STATUS_* codes and status[1:3] = (step, index) on failure."""
    v0 = np.ascontiguousarray(v0, dtype=np.complex128)
    s, cinv, kappa, dxinv2 = float(s), complex(cinv), float(kappa), float(dxinv2)
    pot = np.ascontiguousarray(pot, dtype=np.float64)
    dt, n_steps = float(dt), int(n_steps)
    bl = np.ascontiguousarray(bl, dtype=np.complex128)
    br = np.ascontiguousarray(br, dtype=np.complex128)

    n = v0.shape[0]
    frames = np.empty((n_steps + 1, n), dtype=np.complex128)
    status = np.zeros(3, dtype=np.int64)
    frames[0, :] = v0

    unit_power = s == 1.0
    theta = None if unit_power else np.array(th0, dtype=np.float64)
    # pot is cast to complex once, as the product pot*w would cast it
    pot_inner = pot[1:-1].astype(np.complex128) if np.any(pot) else None
    half, sixth = 0.5 * dt, dt / 6.0

    y = v0.copy()
    stage = np.empty(n, dtype=np.complex128)
    acc = np.empty(n, dtype=np.complex128)
    k1, k2, k3, k4 = (np.zeros(n, dtype=np.complex128) for _ in range(4))  # ends stay 0
    lap = np.empty(n - 2, dtype=np.complex128)
    mask = np.empty(n, dtype=bool)
    if not unit_power:
        w = np.empty(n, dtype=np.complex128)
        r, ang, tmp = (np.empty(n, dtype=np.float64) for _ in range(3))

    def rhs(v, k):
        """k[1:-1] = (kappa*lap(w) + pot*w) * cinv with w = v**s on the
        tracked branch; False if some |v| is zero."""
        u = v if unit_power else _tracked_power(v, theta, s, w, r, ang, tmp, mask)
        if u is None:
            return False
        np.multiply(2.0, u[1:-1], out=lap)
        np.subtract(u[2:], lap, out=lap)
        np.add(lap, u[:-2], out=lap)
        np.multiply(lap, dxinv2, out=lap)
        inner = k[1:-1]
        np.multiply(kappa, lap, out=inner)
        if pot_inner is not None:
            np.multiply(pot_inner, u[1:-1], out=lap)
            np.add(inner, lap, out=inner)
        np.multiply(inner, cinv, out=inner)
        return True

    def to_stage(h, k, j, step):
        np.multiply(h, k, out=stage)
        np.add(y, stage, out=stage)
        stage[0] = bl[step, j]
        stage[-1] = br[step, j]
        return stage

    def fail(code, step, index=0):
        status[:] = (code, step, index)
        return frames, status

    for step in range(n_steps):
        y[0] = bl[step, 0]
        y[-1] = br[step, 0]
        if not (rhs(y, k1)
                and rhs(to_stage(half, k1, 1, step), k2)
                and rhs(to_stage(half, k2, 1, step), k3)
                and rhs(to_stage(dt, k3, 2, step), k4)):
            return fail(STATUS_ZERO, step)
        np.multiply(2.0, k2, out=acc)
        np.add(k1, acc, out=acc)
        np.multiply(2.0, k3, out=stage)
        np.add(acc, stage, out=acc)
        np.add(acc, k4, out=acc)
        np.multiply(sixth, acc, out=acc)
        np.add(y, acc, out=y)
        y[0] = bl[step, 2]
        y[-1] = br[step, 2]

        if not np.isfinite(y, out=mask).all():
            return fail(STATUS_NONFINITE, step, int(np.argmin(mask)))
        if np.equal(y, 0, out=mask).any():
            return fail(STATUS_ZERO, step, int(np.argmax(mask)))
        if not unit_power:
            theta += _phase_step(y, theta, ang, tmp)
        frames[step + 1, :] = y
    return frames, status
