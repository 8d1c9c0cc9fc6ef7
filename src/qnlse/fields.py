"""Closed-form complex fields of (x, t) and curves of one variable.

Every closed-form free-particle solution handled by this package has one
shape, ``A * exp(kx x + kt t) * prod_j (1 + cx_j x + ct_j t) ** s_j``: the
q-deformed forms are products of powers of affine bases (kx = kt = 0), and
their q -> 1 limits, the plain exponentials, have no factors.  A curve
of one variable, ``A * exp(k u) * (1 + c u) ** s``, is the power product
of one coordinate: one factor with ct = 0 and kt = 0, its u read as x at
t = 0.  So one class, ``PowerProductField``, carries for every shape

* exact partial derivatives (power rule, no discretization error), and
* a globally continuous logarithm.

The continuous logarithm is what makes fractional powers of field
*values* well defined far from the origin: the solutions wind around
zero once |arg| passes pi, where the principal branch of ``value ** s``
stops agreeing with the analytic continuation along the solution.  For
the affine bases used here the real part is pinned at 1, so the
principal log of each *base* is itself continuous and their weighted
sum is the continuation anchored at log 1 = 0.

Every method (``__call__``, ``log_value``, ``d_t``, ``d_x``, ``d_xx``,
and a curve's ``deriv``) takes the class's coordinates, (x, t) for a
field and (u,) for a curve, and broadcasts: coordinates may be floats
or ndarrays, and a scalar call returns a Python ``complex``, the value
an array call gives at that point, bit for bit.  A vanished base or a
non-finite value raises ``DomainError`` naming the first offending
point in C order.

A "sampler" in the rest of the package is any callable (x, t) -> complex.
Bare scalar callables are still accepted: ``lift_sampler`` applies them
point by point over arrays, so every layer has one array path.  Objects
of this module additionally expose ``log_value``, ``d_t``, ``d_x``,
``d_xx`` and ``pow``; residual checkers use those when present and fall
back to principal-branch arithmetic otherwise.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .qmath import cpow_principal


def as_sample(z):
    """A Python complex for a 0-d result, the ndarray otherwise."""
    return complex(z) if np.ndim(z) == 0 else z


def require_everywhere(ok, what: str, **coords) -> None:
    """Raise ``DomainError("<what> at (name=value, ...)")`` at the first
    point, in C order, where ``ok`` is False."""
    if np.all(ok):
        return
    ok = np.asarray(ok)
    i = int(np.flatnonzero(~ok)[0])
    where = ", ".join(
        f"{name}={float(np.broadcast_to(value, ok.shape).flat[i])}"
        for name, value in coords.items()
    )
    raise DomainError(f"{what} at ({where})" if where else what)


def require_finite(value, what: str, **coords):
    """``value`` as a sample, or ``DomainError("<what> is not finite at
    (...)")`` at the first point where it is not finite."""
    require_everywhere(np.isfinite(value), f"{what} is not finite", **coords)
    return as_sample(value)


def finite_exp(log, what: str, **coords):
    """exp(log), or DomainError at the first point where it is not finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = np.exp(log)
    return require_finite(value, what, **coords)


def _closed_form(cls):
    """Class decorator: ``__call__``, ``log_value``, ``d_t``, ``d_x`` and
    ``d_xx`` take the coordinates named by the instance's class
    (``coords``).

    A call whose coordinates are all scalars runs on one-point arrays and
    returns that point's value as a Python complex, since numpy's array
    loops round complex products and quotients differently from scalar
    arithmetic (Python's and numpy's alike).  Each call runs without
    numpy's overflow and invalid-value warnings: an infinite coordinate
    makes the log nan (0 * inf), and the value's finiteness check then
    names the point.  A derivative of a checked value can still overflow
    (a finite phase times a huge wavenumber), so it raises
    ``DomainError("<noun> derivative is not finite at (...)")`` at the
    first point where it is not finite."""

    def wrap(method):
        derivative = method.__name__.startswith("d_")

        @functools.wraps(method)
        def call(self, *coords):
            if len(coords) != len(self.coords):
                raise TypeError(f"{method.__name__}() takes the coordinates {self.coords}")
            if not any(map(np.ndim, coords)):
                return complex(call(self, *map(np.atleast_1d, coords))[0])
            with np.errstate(over="ignore", invalid="ignore"):
                value = method(self, *coords)
            if not derivative:
                return value
            return require_finite(value, f"{self.noun} derivative", **self._named(coords))

        return call

    for name in ("__call__", "log_value", "d_t", "d_x", "d_xx"):
        setattr(cls, name, wrap(vars(cls)[name]))
    return cls


@dataclass(frozen=True)
class AffineFactor:
    """One factor (1 + cx*x + ct*t) ** s of a power-product field."""

    cx: complex
    ct: complex
    s: float

    def base(self, x, t):
        return 1.0 + self.cx * x + self.ct * t


@_closed_form
class PowerProductField:
    """A * exp(kx*x + kt*t) * prod_j (1 + cx_j x + ct_j t) ** s_j with exact
    calculus.

    The continuous-log construction assumes every base stays off the
    branch cut of the principal logarithm; for the solution families in
    this package the coefficients are purely imaginary, so Re(base) = 1
    everywhere and the assumption holds on the whole plane.
    """

    coords = ("x", "t")
    noun = "field"

    def __init__(self, factors, amplitude: complex = 1.0 + 0j,
                 kx: complex = 0j, kt: complex = 0j):
        self.factors = tuple(factors)
        self.kx = complex(kx)
        self.kt = complex(kt)
        self.amplitude = complex(amplitude)
        if self.amplitude == 0:
            raise DomainError(f"{self.noun} amplitude must be nonzero")
        self._log_amp = cmath.log(self.amplitude)

    def _named(self, coords) -> dict:
        return dict(zip(self.coords, coords))

    def _bases(self, coords):
        """(x, t, the factors' bases) at the class's coordinates."""
        x, t = coords if len(coords) == 2 else (coords[0], 0.0)  # a curve's u is x at t = 0
        bases = [f.base(x, t) for f in self.factors]
        for b in bases:
            require_everywhere(b != 0, f"{self.noun} base vanished", **self._named(coords))
        return x, t, bases

    def log_value(self, *coords):
        x, t, bases = self._bases(coords)
        total = self._log_amp + self.kx * x + self.kt * t
        for f, b in zip(self.factors, bases):
            total += f.s * np.log(b)
        return total

    def __call__(self, *coords):
        return finite_exp(self.log_value(*coords), f"{self.noun} value", **self._named(coords))

    def _log_grads(self, coords):
        # d/dx log, d/dt log, d2/dx2 log
        lx = self.kx
        lt = self.kt
        lxx = 0j
        for f, b in zip(self.factors, self._bases(coords)[2]):
            lx += f.s * f.cx / b
            lt += f.s * f.ct / b
            lxx -= f.s * (f.cx / b) ** 2
        return lx, lt, lxx

    # each derivative takes the value first, which checks the point

    def d_t(self, *coords):
        value = self(*coords)
        return value * self._log_grads(coords)[1]

    def d_x(self, *coords):
        value = self(*coords)
        return value * self._log_grads(coords)[0]

    def d_xx(self, *coords):
        value = self(*coords)
        lx, _, lxx = self._log_grads(coords)
        return value * (lx * lx + lxx)

    def pow(self, s: float) -> "PowerProductField":
        """The field raised to a real power, on its own continuous branch."""
        return PowerProductField(
            (AffineFactor(f.cx, f.ct, f.s * s) for f in self.factors),
            amplitude=cpow_principal(self.amplitude, s),
            kx=self.kx * s,
            kt=self.kt * s,
        )


class ExponentialField(PowerProductField):
    """A * exp(kx*x + kt*t): the q -> 1 limit of the power products, one
    with no factors."""

    def __init__(self, kx: complex, kt: complex, amplitude: complex = 1.0 + 0j):
        super().__init__((), amplitude, kx, kt)


class PowerCurve(PowerProductField):
    """A * exp(k*u) * (1 + c*u) ** s: the power product of the one factor
    (1 + c*x) ** s with kx = k, whose one coordinate u is x at t = 0."""

    coords = ("u",)
    noun = "curve"

    def __init__(self, c: complex, s: float, amplitude: complex = 1.0 + 0j,
                 k: complex = 0j):
        self.c = complex(c)
        self.s = float(s)
        self.k = complex(k)
        super().__init__((AffineFactor(self.c, 0j, self.s),), amplitude, self.k)

    def deriv(self, u, order: int):
        if order not in (1, 2):
            raise DomainError(f"derivative order must be 1 or 2, got {order}")
        return self.d_x(u) if order == 1 else self.d_xx(u)

    def pow(self, s: float) -> "PowerCurve":
        return PowerCurve(
            self.c, self.s * s, amplitude=cpow_principal(self.amplitude, s), k=self.k * s
        )


class ExpCurve(PowerCurve):
    """A * exp(k*u): the q -> 1 limit of the power curves, one with c = s = 0."""

    def __init__(self, k: complex, amplitude: complex = 1.0 + 0j):
        super().__init__(0j, 0.0, amplitude, k)


_CALCULUS = ("log_value", "d_t", "d_x", "d_xx", "deriv")


class _Pointwise:
    """A scalar callable and its calculus methods, applied point by point
    over broadcast arrays (in C order, so the first error raised is the
    first offending point)."""

    def __init__(self, func):
        self._func = func
        for name in _CALCULUS:
            method = getattr(func, name, None)
            if method is not None:
                setattr(self, name, _Pointwise(method))

    def __call__(self, *args):
        values = np.frompyfunc(self._func, len(args), 1)(*args)
        return as_sample(np.asarray(values, dtype=complex))


def lift_sampler(sampler):
    """``sampler`` itself if it is one of this module's closed forms (they
    broadcast), else a wrapper that applies it point by point."""
    return sampler if isinstance(sampler, PowerProductField) else _Pointwise(sampler)


def value_power(sampler, value, s: float, *point):
    """Raise a sampled field/curve value at ``point`` to a real power.

    Uses the sampler's continuous logarithm when it has one (the branch
    on which the closed forms satisfy their equations); otherwise the
    principal branch, which is only valid while the accumulated phase
    stays within (-pi, pi].  A non-finite power raises DomainError
    naming its point, (x, t) for a field or (u,) for a curve.
    """
    if s == 1.0:
        return value
    coords = dict(zip(("x", "t") if len(point) == 2 else ("u",), point))
    log = getattr(sampler, "log_value", None)
    if log is not None:
        return finite_exp(s * log(*point), "powered value", **coords)
    value = np.asarray(value, dtype=complex)
    if np.any(value == 0):
        raise DomainError("cannot raise a vanishing field value to a fractional power")
    # a negative real base sits on the upper side of the cut, as in cpow_principal
    value = np.where(value.imag == 0.0, value.real + 0j, value)
    return finite_exp(s * np.log(value), "powered value", **coords)
