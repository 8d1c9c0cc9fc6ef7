"""Hot inner loop of the method-of-lines propagator: a vectorized numpy
RK4 time march.

The state is the complex field plus, when the marched power ``s`` is
not 1, a per-point continuous phase ``theta``.  The pointwise power of
the field is taken on the branch tracked by ``theta``, not on the
principal branch: the fields wind past |arg| = pi on wide grids, where a
principal power would jump.  At s = 1 the power is the field itself.

A slope is ``c*d``, with ``c = kappa*dxinv2*cinv`` and
``d = lap(w) + (pot/(kappa*dxinv2))*w`` (the Laplacian as the difference
of first differences, the ``pot`` term skipped where pot is all zero); a
stage is ``y + (c*h)*d`` on the interior, and the step
``y + (c*dt/6)*(d1 + 2*(d2 + d3) + d4)``.  Each call allocates its work
arrays and views once; every operation writes into them with ``out``,
and every scalar operand is a 0-d array made once, so that no ufunc
converts a Python number per step.  A step makes 20 whole-array calls
(ufuncs and ``count_nonzero``) at s = 1 and 76 at s != 1 where each
power takes the series or the tracked power at once, 2 more per slope
with a potential.  Its frames differ from the unfolded form's
(``k = (kappa*lap + pot*w)*cinv``, ``y + dt/6*(k1 + 2*k2 + 2*k3 + k4)``)
by rounding: over the benchmark's marches by at most 2e-13 of the
largest value, 7e-15 at s = 1.

At s != 1, a power near a known one comes from a series: ``v**s`` is
``wy*(1 + eps)**s``, ``eps = (v - y)/y``, for ``y`` of power ``wy``, and
the binomial series of ``(1 + eps)**s`` to ``eps**SERIES_ORDER``, by
Horner's rule, is within u/4 of it, relative (u is machine epsilon),
where ``|eps| <= series_radius(s)``.  It is taken where each part of eps
is within ``series_radius(s)/sqrt(2)``; elsewhere, and where eps is not
finite, the tracked power is, with its transcendental passes.  Every
series is taken about the one anchor ``(y_prev, wy)``: stage 1 moves it
from the previous step's state to this step's, and stages 2-4 take
theirs from it; but every ``REANCHOR_PERIOD`` = P steps the anchor is
the tracked power and ``theta`` moves to its phase.  A series step adds
under 4u relative (the truncation, Horner's last add, the complex
product), so each power is within 4Pu (1.4e-14) of the tracked power
carried exactly, and within ``delta = (4P + 2(2 + |s*theta|))u`` of an
all-tracked march's powers (each tracked power rounds by about
``(2 + |s*theta|)u``).  Per step the slopes then move by at most
``dt*|c|*(4 + max|pot/(kappa*dxinv2)|)*delta*max|w|`` and the two
updates round by ``2u*max|y|``: over N steps of a march that does not
amplify them, the frames stay within N times their sum of the
all-tracked march's.  Between re-anchors the guard keeps the phase
within P*asin(2**-10) of ``theta``, far inside the half turn the
tracked power's wrap allows.

The zero and finiteness checks of the state run once per block of
``BLOCK_ROWS`` stored frames.  A failing block check, or a stage with a
zero |v| (reported at index 0), first scans the block's rows in order,
so the march raises ``PropagationError`` at the first step whose state
has a zero or non-finite value, and its first such index, within one
block of that step.  numpy's floating-point warnings are silenced for
each block's steps and check.

There is one march loop.  It writes into the whole march's array, or
into ``BLOCK_ROWS + 1`` rows that every block reuses, so that a streaming
consumer's memory is set by the block and not by the step count.
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
BLOCK_ROWS = 64  # stored frames per zero and finiteness check
REANCHOR_PERIOD = 16  # steps between the anchor's tracked powers


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


def _tracked_power(y, theta, s, out, r, ang, tmp, track=False):
    """``y**s`` on the branch tracked by ``theta``, into ``out``; None if
    some |y| is zero.  With ``track``, ``theta`` moves to y's tracked
    phase.  ``r``, ``ang`` and ``tmp`` are scratch."""
    np.abs(y, r)
    if np.count_nonzero(r) < r.size:
        return None
    _phase_step(y, theta, ang, tmp)
    phase = theta if track else ang
    np.add(theta, ang, phase)
    np.multiply(s, phase, ang)
    np.power(r, s, r)  # with the scalar-exponent shortcuts of r**s
    np.cos(ang, out.real)
    np.sin(ang, out.imag)
    np.multiply(r, out, out)
    return out


def _fail(reason, step, index=0):
    raise PropagationError(f"field value became {reason} at step {step}, index {index}")


def _raise_first_fault(rows, step):
    """Raise for the first zero or non-finite value of ``rows``, the states
    after steps ``step``, ``step + 1``, ..., row by row, as a check after
    every step would; return if none."""
    for row in rows:
        finite = np.isfinite(row)
        if not finite.all():
            _fail("non-finite", step, int(np.argmin(finite)))
        zero = row == 0
        if zero.any():
            _fail("zero", step, int(np.argmax(zero)))
        step += 1


def propagate_frames(v0, th0, s, cinv, kappa, dxinv2, pot, dt, n_steps, bl, br, frames=None):
    """Run the RK4 march; raises PropagationError at a failing step.

    Without ``frames``, march into one ``(n_steps + 1, n)`` array and
    return it: row k is frame k, written once.  With ``frames``, a buffer
    of that shape or of ``min(n_steps, BLOCK_ROWS) + 1`` rows that every
    block reuses, return an iterator that marches into it as it is asked
    for and yields each checked block, a view of ``frames``: the initial
    frame and the first ``BLOCK_ROWS`` steps' frames, then each next
    ``BLOCK_ROWS`` steps' (fewer at the end).  A reused buffer overwrites a
    block when the march resumes after it.  A block is yielded only after
    its check has passed, so a march that raises has yielded exactly the
    blocks before the one that holds its failing step.
    """
    args = (v0, th0, s, cinv, kappa, dxinv2, pot, dt, n_steps, bl, br)
    if frames is not None:
        return _march_blocks(*args, frames)
    frames = np.empty((n_steps + 1, v0.shape[0]), dtype=np.complex128)
    for _ in _march_blocks(*args, frames):
        pass
    return frames


def _march_blocks(v0, th0, s, cinv, kappa, dxinv2, pot, dt, n_steps, bl, br, frames):
    """The march loop: ``propagate_frames`` with ``frames``."""
    multiply, add, subtract, divide, absolute, less_equal, isfinite, not_equal, count_nonzero = (
        np.multiply, np.add, np.subtract, np.divide, np.absolute, np.less_equal, np.isfinite,
        np.not_equal, np.count_nonzero)
    n = v0.shape[0]

    scale = kappa * dxinv2
    c = scale * cinv
    # pot's term of d, cast to complex once, as its product with w would cast it
    pot_inner = (pot[1:-1] / scale).astype(np.complex128) if np.any(pot) else None
    two, half, full, sixth = (np.array(a, dtype=np.complex128)
                              for a in (2.0, c * (0.5 * dt), c * dt, c * dt / 6.0))

    y = v0.copy()
    stage = np.empty(n, dtype=np.complex128)
    y_inner, stage_inner = y[1:-1], stage[1:-1]
    d1, d2, d3, d4, acc = (np.empty(n - 2, dtype=np.complex128) for _ in range(5))
    diff = np.empty(n - 1, dtype=np.complex128)
    diff_hi, diff_lo = diff[1:], diff[:-1]
    block_mask = np.empty((min(n_steps, BLOCK_ROWS), 2 * n), dtype=bool)  # re, im of each point
    zero = np.array(0.0)
    if s == 1.0:
        tracked_anchor = carried_anchor = stage_power = None
        y_src, stage_src = (y[1:], y[:-1], y_inner), (stage[1:], stage[:-1], stage_inner)
    else:
        theta = np.array(th0, dtype=np.float64)
        # Horner's coefficients, from C(s, K) down to C(s, 0) = 1
        top, *middle, one = (np.array(a, dtype=np.complex128)
                             for a in reversed(binomial_coefficients(s)))
        limit = np.array(series_radius(s) * math.sqrt(0.5))  # on each part of eps
        s = np.array(s, dtype=np.float64)
        y_prev, wy, w, eps = (np.empty(n, dtype=np.complex128) for _ in range(4))
        eps_parts, eps_size, part_mask = eps.view(np.float64), np.empty(2 * n), np.empty(2 * n, bool)
        r, ang, tmp = (np.empty(n, dtype=np.float64) for _ in range(3))
        y_src, stage_src = (wy[1:], wy[:-1], wy[1:-1]), (w[1:], w[:-1], w[1:-1])

        def series_power(v, out):
            """out = wy*(1 + eps)**s by the series, eps = (v - y_prev)/y_prev;
            False, leaving out as it was, where a part of eps is beyond the limit."""
            subtract(v, y_prev, eps)
            divide(eps, y_prev, eps)
            absolute(eps_parts, eps_size)
            if count_nonzero(less_equal(eps_size, limit, part_mask)) < 2 * n:  # nan is not <= limit
                return False
            multiply(top, eps, w)
            for a in middle:
                add(w, a, w)
                multiply(w, eps, w)
            add(w, one, w)
            multiply(w, wy, out)
            return True

        def tracked_anchor(v):
            """wy = v**s, the tracked power, with theta moved to v's phase."""
            if _tracked_power(v, theta, s, wy, r, ang, tmp, track=True) is None:
                return False
            y_prev[...] = v
            return True

        def carried_anchor(v):
            """wy = v**s by the series from the previous step's anchor, else tracked."""
            if series_power(v, wy):
                y_prev[...] = v
                return True
            return tracked_anchor(v)

        def stage_power(v):
            """w = v**s by the series from the step's anchor, else tracked."""
            return (series_power(v, w)
                    or _tracked_power(v, theta, s, w, r, ang, tmp) is not None)

    def rhs(v, power, src, d):
        """d = lap(w) + (pot/(kappa*dxinv2))*w on the interior, with w = v**s
        from ``power`` (v itself at s = 1) and ``src`` its views w[1:], w[:-1]
        and w[1:-1]; False if some |v| is zero."""
        if power is not None and not power(v):
            return False
        upper, lower, mid = src
        subtract(upper, lower, diff)
        subtract(diff_hi, diff_lo, d)
        if pot_inner is not None:
            multiply(pot_inner, mid, acc)
            add(d, acc, d)
        return True

    def to_stage(h, d, left, right):
        multiply(h, d, stage_inner)
        add(y_inner, stage_inner, stage_inner)
        stage[0] = left
        stage[-1] = right
        return stage

    whole = frames.shape[0] > n_steps  # else every block reuses rows 1 on
    frames[0] = v0
    if not n_steps:
        yield frames[:1]
    for first in range(0, n_steps, BLOCK_ROWS):
        last = min(first + BLOCK_ROWS, n_steps)
        block = frames[first + 1:last + 1] if whole else frames[1:last - first + 1]
        rows = zip(range(first, last), bl[first:last].tolist(), br[first:last].tolist())
        # a failing march raises at its step, without numpy's warnings
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            for step, (l0, l1, l2), (r0, r1, r2) in rows:
                y[0] = l0
                y[-1] = r0
                anchor = carried_anchor if step % REANCHOR_PERIOD else tracked_anchor
                if not (rhs(y, anchor, y_src, d1)
                        and rhs(to_stage(half, d1, l1, r1), stage_power, stage_src, d2)
                        and rhs(to_stage(half, d2, l1, r1), stage_power, stage_src, d3)
                        and rhs(to_stage(full, d3, l2, r2), stage_power, stage_src, d4)):
                    _raise_first_fault(block[:step - first], first)
                    _fail("zero", step)
                add(d2, d3, acc)
                multiply(two, acc, acc)
                add(d1, acc, acc)
                add(acc, d4, acc)
                multiply(sixth, acc, acc)
                add(y_inner, acc, y_inner)
                y[0] = l2
                y[-1] = r2
                block[step - first] = y

            parts = block.view(np.float64)
            mask = block_mask[:last - first]
            if (count_nonzero(isfinite(parts, mask)) < mask.size
                    # a point is zero where both its parts are
                    or 2 * count_nonzero(not_equal(parts, zero, mask).view(np.uint16)) < mask.size):
                _raise_first_fault(block, first)
        # the first block starts at the initial frame
        yield frames[:last + 1] if first == 0 else block
