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
tracked power, the stage series and the Laplacian), makes the slice
views the stencil reads and the slopes' interior views, and reads the
boundary tables into lists of rows.  Every stage, RHS and end-of-step
operation writes into those arrays, with ``out`` passed by position.
The operations and their order are those of the expression form
``y + dt/6*(k1 + 2*k2 + 2*k3 + k4)`` with
``k = (kappa*lap(w) + pot*w) * cinv``.

At s != 1 only the first stage of a step takes the tracked power of
its field ``y``, with the transcendental passes (``abs``, ``arctan2``,
the power, ``cos``, ``sin``); that power ``wy`` anchors the step.  A
later stage ``v`` is a small relative step from ``y``, so its power is
``wy * (1 + eps)**s`` with ``eps = (v - y)/y``: the binomial series of
``(1 + eps)**s`` to the power ``SERIES_ORDER`` = K, summed by Horner's
rule, has a truncation error below a quarter of machine epsilon,
relative, wherever ``|eps| <= series_radius(s)`` (derived there).  A
stage takes the series where every real and imaginary part of ``eps``
lies within ``series_radius(s)/sqrt(2)``, which keeps ``|eps|`` within
the radius.  Otherwise, and where ``eps`` has a nan or an inf (a zero,
nan or inf stage), it takes the tracked power, with the bits and the
failures the first stage would have.  The series continues the branch
of ``wy``; it agrees with the stage's own tracked branch unless ``y``'s
phase lies within ``asin(radius)`` of the cut half a turn from
``theta``.  So at s != 1 the frames are those of the expression form
with the same series stages, and differ from a march that takes every
stage's tracked power by rounding; at s = 1 they are the expression
form's bits.

Every scalar operand of a ufunc (2, ``dxinv2``, ``kappa``, ``cinv``,
``dt/2``, ``dt``, ``dt/6``, the series coefficients and its guard, ``s``
and 2*pi) is a 0-d array, made once, so that no ufunc converts a Python
number again on every step.
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

SERIES_ORDER = 4  # K, the highest power of eps in a stage's series
SERIES_RADIUS_CAP = 2.0 ** -10


def binomial_coefficients(s: float) -> list:
    """C(s, k) for k = 0..SERIES_ORDER, by C(s, k) = C(s, k-1)*(s-k+1)/k."""
    c = [1.0]
    for k in range(1, SERIES_ORDER + 1):
        c.append(c[-1] * (s - k + 1) / k)
    return c


def series_radius(s: float) -> float:
    """The largest ``|eps|`` the stage series takes at power ``s``.

    For ``|eps| < 1``, ``(1 + eps)**s`` (principal branch) is the sum over
    k of ``C(s, k) eps**k``.  Beyond k = K the ratio of successive
    coefficients is ``|s - k|/(k + 1) <= M = max(1, |s - K - 1|/(K + 2))``,
    so for ``|eps| <= g`` with ``M g < 1`` the truncation remainder is at
    most ``|C(s, K+1)| g**(K+1) / (1 - M g)``, while
    ``|(1 + eps)**s| = |1 + eps|**s >= (1 - g)**|s|``.  So the remainder
    stays below u/4 relative, u being machine epsilon, wherever
    ``g <= F(g)`` with

        F(g) = [u/4 (1 - M g) (1 - g)**|s| / |C(s, K+1)|]**(1/(K+1)).

    F decreases in g, so with ``g0 = min(cap, F(0))`` the value
    ``g = min(g0, F(g0))`` satisfies it: if g0 >= g, F(g) >= F(g0) >= g.
    For integer 0 <= s <= K the remainder is 0 and g is the cap,
    ``SERIES_RADIUS_CAP`` = 2**-10: with ``|eps|`` that small, each of
    Horner's roundings but the last is scaled by ``|eps|``, so the sum is
    within about one rounding of its last add.  Large |s| needs a small g:
    about 8e-5 at s = 20.
    """
    k1 = SERIES_ORDER + 1
    head = abs(binomial_coefficients(s)[-1] * (s - SERIES_ORDER) / k1)  # |C(s, K+1)|
    if head == 0.0:
        return SERIES_RADIUS_CAP
    m = max(1.0, abs(s - k1) / (k1 + 1))
    quarter_u = np.finfo(np.float64).eps / 4.0

    def bound(g):
        return (quarter_u * (1.0 - m * g) * (1.0 - g) ** abs(s) / head) ** (1.0 / k1)

    g0 = min(SERIES_RADIUS_CAP, bound(0.0))
    return min(g0, bound(g0))


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
    multiply, add, subtract, divide, absolute, less_equal, isfinite, not_equal, count_nonzero = (
        np.multiply, np.add, np.subtract, np.divide, np.absolute, np.less_equal, np.isfinite,
        np.not_equal, np.count_nonzero)
    n = v0.shape[0]
    frames = np.empty((n_steps + 1, n), dtype=np.complex128)
    frames[0, :] = v0

    unit_power = s == 1.0
    # pot is cast to complex once, as the product pot*w would cast it
    pot_inner = pot[1:-1].astype(np.complex128) if np.any(pot) else None
    two, kappa, dxinv2, cinv, half, full, sixth = (
        np.array(a, dtype=np.complex128) for a in (2.0, kappa, dxinv2, cinv, 0.5 * dt, dt, dt / 6.0))
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
    zero = np.array(0.0)
    if unit_power:
        anchor_power = stage_power = None
        y_src, stage_src = (y[2:], y[1:-1], y[:-2]), (stage[2:], stage[1:-1], stage[:-2])
    else:
        theta = np.array(th0, dtype=np.float64)
        # Horner's coefficients, from C(s, K) down to C(s, 0) = 1
        top, *middle, one = (np.array(c, dtype=np.complex128)
                             for c in reversed(binomial_coefficients(s)))
        limit = np.array(series_radius(s) * math.sqrt(0.5))  # on each part of eps
        s = np.array(s, dtype=np.float64)
        wy, w, eps = (np.empty(n, dtype=np.complex128) for _ in range(3))
        eps_parts, eps_size = eps.view(np.float64), np.empty(2 * n)
        r, ang, tmp = (np.empty(n, dtype=np.float64) for _ in range(3))
        y_src, stage_src = (wy[2:], wy[1:-1], wy[:-2]), (w[2:], w[1:-1], w[:-2])

        def anchor_power(v):
            """wy = v**s on the tracked branch; False if some |v| is zero."""
            return _tracked_power(v, theta, s, wy, r, ang, tmp) is not None

        def stage_power(v):
            """w = v**s: wy times the series of (1 + eps)**s where every
            part of eps = (v - y)/y is within the limit, else the tracked
            power; False if some |v| is zero."""
            subtract(v, y, eps)
            divide(eps, y, eps)
            absolute(eps_parts, eps_size)
            if count_nonzero(less_equal(eps_size, limit, part_mask)) < 2 * n:  # nan is not <= limit
                return _tracked_power(v, theta, s, w, r, ang, tmp) is not None
            multiply(top, eps, w)
            for c in middle:
                add(w, c, w)
                multiply(w, eps, w)
            add(w, one, w)
            multiply(w, wy, w)
            return True

    def rhs(v, power, src, inner):
        """inner = (kappa*lap(w) + pot*w) * cinv on the interior, with
        w = v**s from ``power`` (v itself at s = 1) and ``src`` its three
        stencil views; False if some |v| is zero."""
        if power is not None and not power(v):
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
            if not (rhs(y, anchor_power, y_src, inner1)
                    and rhs(to_stage(half, k1, l1, r1), stage_power, stage_src, inner2)
                    and rhs(to_stage(half, k2, l1, r1), stage_power, stage_src, inner3)
                    and rhs(to_stage(full, k3, l2, r2), stage_power, stage_src, inner4)):
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
