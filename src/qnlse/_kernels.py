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

Each call does once what every step would otherwise repeat: it
allocates the work arrays (the four slopes, the stage, the RK4
accumulator, the state, and the float and complex scratch of the
tracked power and the Laplacian), makes the slice views the stencil
reads and the slopes' interior views, and reads the boundary tables
into lists of rows.  Every stage, RHS and end-of-step operation writes
into those arrays, with ``out`` passed by position.  The operations
and their order are those of the expression form
``y + dt/6*(k1 + 2*k2 + 2*k3 + k4)`` with
``k = (kappa*lap(w) + pot*w) * cinv``, so the frames are the same bits.

Every scalar operand of a ufunc (2, ``dxinv2``, ``kappa``, ``cinv``,
``dt/2``, ``dt``, ``dt/6``, ``s`` and 2*pi) is a 0-d array, made once,
so that no ufunc converts a Python number again on every step.
The complex ones are complex128: numpy multiplies a complex array by a
float as by (a, 0.0), so ``np.array(a, dtype=complex128)`` gives the
same bits (±0, inf and nan included).  ``np.power(r, s, r)`` with a 0-d
exponent gives the bits of ``r **= s``, whose scalar-exponent shortcuts
(sqrt at 0.5, square at 2) numpy 2's power loop matches; the oracle in
``tests/test_kernels.py`` checks both shortcuts.  The ufuncs themselves
are looked up once per call.

The zero and finiteness checks count with ``np.count_nonzero``, which,
like ``a == 0``, counts nan as nonzero, and skips the Python wrapper of
``ndarray.all()``.  The state's checks run on its float view, two parts
per point, where numpy's loops are faster than on complex values, and
only a failing check goes back to the complex values to find the index.
numpy's floating-point warnings are silenced for the march, which
raises its own error instead (below).

An all-zero ``pot`` is detected once per call and its ``pot*w`` term is
skipped: that term is a signed zero, which can only change the sign of
an exactly zero slope component, and the expression-form oracle in
``tests/test_kernels.py``, whose draws include signed zeros, finds no
frame that differs.

``propagate_frames`` returns every frame, the initial one included, or
raises ``PropagationError`` at the first step that leaves a zero or
non-finite value (a stage's zero |w| is reported at index 0).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import PropagationError

TWO_PI = 2.0 * math.pi
_TWO_PI = np.array(TWO_PI)  # the ufuncs' operand
_TWO_PI.flags.writeable = False


def _phase_step(y, theta, out, tmp):
    """Argument of ``y`` relative to ``theta``, wrapped into [-pi, pi], into ``out``."""
    np.arctan2(y.imag, y.real, out)
    np.subtract(out, theta, out)
    np.divide(out, _TWO_PI, tmp)
    np.rint(tmp, tmp)
    np.multiply(_TWO_PI, tmp, tmp)
    np.subtract(out, tmp, out)
    return out


def _tracked_power(y, theta, s, out, r, ang, tmp):
    """``y**s`` on the branch tracked by ``theta``, into ``out``; None if
    some |y| is zero.  ``r``, ``ang`` and ``tmp`` are scratch."""
    np.abs(y, r)
    if np.count_nonzero(r) < r.size:
        return None
    _phase_step(y, theta, ang, tmp)
    np.add(theta, ang, ang)
    np.multiply(s, ang, ang)
    np.power(r, s, r)  # with the scalar-exponent shortcuts of r**s
    np.cos(ang, out.real)
    np.sin(ang, out.imag)
    np.multiply(r, out, out)
    return out


def propagate_frames(v0, th0, s, cinv, kappa, dxinv2, pot, dt, n_steps, bl, br):
    """Run the RK4 march and return its frames, one row per step after
    the initial one; raises PropagationError at a failing step."""
    multiply, add, subtract, isfinite, not_equal, count_nonzero = (
        np.multiply, np.add, np.subtract, np.isfinite, np.not_equal, np.count_nonzero)
    n = v0.shape[0]
    frames = np.empty((n_steps + 1, n), dtype=np.complex128)
    frames[0, :] = v0

    unit_power = s == 1.0
    theta = None if unit_power else np.array(th0, dtype=np.float64)
    # pot is cast to complex once, as the product pot*w would cast it
    pot_inner = pot[1:-1].astype(np.complex128) if np.any(pot) else None
    two, kappa, dxinv2, cinv, half, full, sixth = (
        np.array(a, dtype=np.complex128) for a in (2.0, kappa, dxinv2, cinv, 0.5 * dt, dt, dt / 6.0))
    s, zero = np.array(s, dtype=np.float64), np.array(0.0)
    left_rows, right_rows = bl[:n_steps].tolist(), br[:n_steps].tolist()

    y = v0.copy()
    stage = np.empty(n, dtype=np.complex128)
    acc = np.empty(n, dtype=np.complex128)
    k1, k2, k3, k4 = (np.zeros(n, dtype=np.complex128) for _ in range(4))  # ends stay 0
    inner1, inner2, inner3, inner4 = k1[1:-1], k2[1:-1], k3[1:-1], k4[1:-1]
    lap = np.empty(n - 2, dtype=np.complex128)
    y_parts = y.view(np.float64)  # re, im of each point
    part_mask = np.empty(2 * n, dtype=bool)
    point_mask = part_mask.view(np.uint16)  # a point's two part flags as one item
    if unit_power:
        y_src, stage_src = (y[2:], y[1:-1], y[:-2]), (stage[2:], stage[1:-1], stage[:-2])
    else:
        w = np.empty(n, dtype=np.complex128)
        r, ang, tmp = (np.empty(n, dtype=np.float64) for _ in range(3))
        y_src = stage_src = (w[2:], w[1:-1], w[:-2])

    def rhs(v, src, inner):
        """inner = (kappa*lap(w) + pot*w) * cinv on the interior, with
        w = v**s on the tracked branch and ``src`` its three stencil
        views; False if some |v| is zero."""
        if not unit_power and _tracked_power(v, theta, s, w, r, ang, tmp) is None:
            return False
        right, mid, left = src
        multiply(two, mid, lap)
        subtract(right, lap, lap)
        add(lap, left, lap)
        multiply(lap, dxinv2, lap)
        multiply(kappa, lap, inner)
        if pot_inner is not None:
            multiply(pot_inner, mid, lap)
            add(inner, lap, inner)
        multiply(inner, cinv, inner)
        return True

    def to_stage(h, k, left, right):
        multiply(h, k, stage)
        add(y, stage, stage)
        stage[0] = left
        stage[-1] = right
        return stage

    def fail(reason, step, index=0):
        raise PropagationError(f"field value became {reason} at step {step}, index {index}")

    # a failing march raises at its step, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for step in range(n_steps):
            (l0, l1, l2), (r0, r1, r2) = left_rows[step], right_rows[step]
            y[0] = l0
            y[-1] = r0
            if not (rhs(y, y_src, inner1)
                    and rhs(to_stage(half, k1, l1, r1), stage_src, inner2)
                    and rhs(to_stage(half, k2, l1, r1), stage_src, inner3)
                    and rhs(to_stage(full, k3, l2, r2), stage_src, inner4)):
                fail("zero", step)
            multiply(two, k2, acc)
            add(k1, acc, acc)
            multiply(two, k3, stage)
            add(acc, stage, acc)
            add(acc, k4, acc)
            multiply(sixth, acc, acc)
            add(y, acc, y)
            y[0] = l2
            y[-1] = r2

            if count_nonzero(isfinite(y_parts, part_mask)) < 2 * n:
                fail("non-finite", step, int(np.argmin(np.isfinite(y))))
            not_equal(y_parts, zero, part_mask)
            if count_nonzero(point_mask) < n:  # a point is zero where both its parts are
                fail("zero", step, int(np.argmax(y == 0)))
            if not unit_power:
                add(theta, _phase_step(y, theta, ang, tmp), theta)
            frames[step + 1] = y
    return frames
