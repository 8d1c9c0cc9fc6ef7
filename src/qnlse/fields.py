"""Closed-form complex fields of (x, t) and curves of one variable.

Every closed-form free-particle solution handled by this package has one
shape, ``A * exp(kx x + kt t) * prod_j (1 + cx_j x + ct_j t) ** s_j``: the
q-deformed forms are products of powers of affine bases (kx = kt = 0), and
their q -> 1 limits, the plain exponentials, have no factors.  The curves
of one variable are ``A * exp(k u) * (1 + c u) ** s`` in the same way.
Each shape carries

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
``deriv``) broadcasts: coordinates may be floats or ndarrays, and a
scalar call returns a Python ``complex``, the value an array call gives
at that point, bit for bit.  A vanished base or a non-finite value
raises ``DomainError`` naming the first offending point in C order.

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


# Decorates each log_value: an infinite coordinate makes the log nan
# (0 * inf), and the value's finiteness check then names the point, so
# numpy need not warn as well.
_nan_at_infinity = np.errstate(invalid="ignore")

_CALCULUS = ("log_value", "d_t", "d_x", "d_xx", "deriv")


def _finite_derivative(what: str, *names: str):
    """Method decorator: the derivative of a checked value can still
    overflow (a finite phase times a huge wavenumber), so it is computed
    without numpy's overflow and invalid-value warnings and raises
    ``DomainError("<what> derivative is not finite at (...)")`` at the
    first point where it is not finite."""

    def decorate(method):
        @functools.wraps(method)
        @np.errstate(over="ignore", invalid="ignore")
        def checked(self, *args):
            coords = dict(zip(names, args))
            return require_finite(method(self, *args), f"{what} derivative", **coords)

        return checked

    return decorate


_field_derivative = _finite_derivative("field", "x", "t")
_curve_derivative = _finite_derivative("curve", "u")


def _scalars_on_arrays(n_coords: int):
    """Class decorator: a call of ``__call__`` or a calculus method whose
    ``n_coords`` coordinates are all scalars runs on one-point arrays and
    returns that point's value as a Python complex, since numpy's array
    loops round complex products and quotients differently from scalar
    arithmetic (Python's and numpy's alike)."""

    def wrap(method):
        @functools.wraps(method)
        def call(self, *args):
            coords = args[:n_coords]
            if any(map(np.ndim, coords)):
                return method(self, *args)
            return complex(method(self, *map(np.atleast_1d, coords), *args[n_coords:])[0])

        return call

    def decorate(cls):
        for name in ("__call__",) + _CALCULUS:
            if name in vars(cls):
                setattr(cls, name, wrap(vars(cls)[name]))
        return cls

    return decorate


@dataclass(frozen=True)
class AffineFactor:
    """One factor (1 + cx*x + ct*t) ** s of a power-product field."""

    cx: complex
    ct: complex
    s: float

    def base(self, x, t):
        return 1.0 + self.cx * x + self.ct * t


@_scalars_on_arrays(2)
class PowerProductField:
    """A * exp(kx*x + kt*t) * prod_j (1 + cx_j x + ct_j t) ** s_j with exact
    calculus.

    The continuous-log construction assumes every base stays off the
    branch cut of the principal logarithm; for the solution families in
    this package the coefficients are purely imaginary, so Re(base) = 1
    everywhere and the assumption holds on the whole plane.
    """

    def __init__(self, factors, amplitude: complex = 1.0 + 0j,
                 kx: complex = 0j, kt: complex = 0j):
        self.factors = tuple(factors)
        self.kx = complex(kx)
        self.kt = complex(kt)
        self.amplitude = complex(amplitude)
        if self.amplitude == 0:
            raise DomainError("field amplitude must be nonzero")
        self._log_amp = cmath.log(self.amplitude)

    def _bases(self, x, t):
        bases = [f.base(x, t) for f in self.factors]
        for b in bases:
            require_everywhere(b != 0, "field base vanished", x=x, t=t)
        return bases

    @_nan_at_infinity
    def log_value(self, x, t):
        total = self._log_amp + self.kx * x + self.kt * t
        for f, b in zip(self.factors, self._bases(x, t)):
            total += f.s * np.log(b)
        return total

    def __call__(self, x, t):
        return finite_exp(self.log_value(x, t), "field value", x=x, t=t)

    def _log_grads(self, x, t):
        # d/dx log, d/dt log, d2/dx2 log
        lx = self.kx
        lt = self.kt
        lxx = 0j
        for f, b in zip(self.factors, self._bases(x, t)):
            lx += f.s * f.cx / b
            lt += f.s * f.ct / b
            lxx -= f.s * (f.cx / b) ** 2
        return lx, lt, lxx

    # each derivative takes the value first, which checks the point

    @_field_derivative
    def d_t(self, x, t):
        value = self(x, t)
        return value * self._log_grads(x, t)[1]

    @_field_derivative
    def d_x(self, x, t):
        value = self(x, t)
        return value * self._log_grads(x, t)[0]

    @_field_derivative
    def d_xx(self, x, t):
        value = self(x, t)
        lx, _, lxx = self._log_grads(x, t)
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


@_scalars_on_arrays(1)
class PowerCurve:
    """A * exp(k*u) * (1 + c*u) ** s, one-variable analogue of the power
    product."""

    def __init__(self, c: complex, s: float, amplitude: complex = 1.0 + 0j,
                 k: complex = 0j):
        self.c = complex(c)
        self.s = float(s)
        self.k = complex(k)
        self.amplitude = complex(amplitude)
        if self.amplitude == 0:
            raise DomainError("curve amplitude must be nonzero")
        self._log_amp = cmath.log(self.amplitude)

    def _base(self, u):
        b = 1.0 + self.c * u
        require_everywhere(b != 0, "curve base vanished", u=u)
        return b

    @_nan_at_infinity
    def log_value(self, u):
        return self._log_amp + self.k * u + self.s * np.log(self._base(u))

    def __call__(self, u):
        return finite_exp(self.log_value(u), "curve value", u=u)

    @_curve_derivative
    def deriv(self, u, order: int):
        if order not in (1, 2):
            raise DomainError(f"derivative order must be 1 or 2, got {order}")
        v = self(u)  # checks the point first
        b = self._base(u)
        k, s, c = self.k, self.s, self.c
        if order == 1:
            return k * v + v * s * c / b
        return (2 * k * s * c / b + k * k) * v + v * s * (s - 1.0) * (c / b) ** 2

    def pow(self, s: float) -> "PowerCurve":
        return PowerCurve(
            self.c, self.s * s, amplitude=cpow_principal(self.amplitude, s), k=self.k * s
        )


class ExpCurve(PowerCurve):
    """A * exp(k*u): the q -> 1 limit of the power curves, one with c = s = 0."""

    def __init__(self, k: complex, amplitude: complex = 1.0 + 0j):
        super().__init__(0j, 0.0, amplitude, k)


_CLOSED_FORMS = (PowerProductField, PowerCurve)


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
    return sampler if isinstance(sampler, _CLOSED_FORMS) else _Pointwise(sampler)


def value_power(sampler, value, s: float, *point):
    """Raise a sampled field/curve value to a real power.

    Uses the sampler's continuous logarithm when it has one (the branch
    on which the closed forms satisfy their equations); otherwise the
    principal branch, which is only valid while the accumulated phase
    stays within (-pi, pi].
    """
    if s == 1.0:
        return value
    log = getattr(sampler, "log_value", None)
    if log is not None:
        return finite_exp(s * log(*point), "powered value")
    value = np.asarray(value, dtype=complex)
    if np.any(value == 0):
        raise DomainError("cannot raise a vanishing field value to a fractional power")
    # a negative real base sits on the upper side of the cut, as in cpow_principal
    value = np.where(value.imag == 0.0, value.real + 0j, value)
    return finite_exp(s * np.log(value), "powered value")
