"""Complex elementary and special functions.

Principal-branch complex powers, the deformed exponential
``[1 + (q-1)z]^(1/(1-q))``, and the Gauss hypergeometric function 2F1
with its first two derivatives.  Everything here is a pure function of
its inputs; valid results never contain NaN or infinity.  An operation
that would produce one raises a ``QnlseError``, never a bare Python
error.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .errors import ConvergenceError, DomainError

__all__ = [
    "HypParams", "check_binomial_identity", "cpow_principal", "hyp2f1", "hyp2f1_deriv",
    "hyp2f1_series", "q_exp", "q_exp_real_cutoff"
]

# Below this |q - 1| the fractional-power form of the deformed
# exponential has lost all precision (exponent 1/(1-q) -> inf) and the
# exact q -> 1 limit is used instead.
EPS_Q_ONE = 1e-12

# Series truncation: stop once |term| <= SERIES_RTOL * |partial sum| for
# three consecutive terms; give up past SERIES_MAX_TERMS.
SERIES_RTOL = 2.0 ** -52
SERIES_MAX_TERMS = 10_000


def _require_finite(value: complex, what: str) -> complex:
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise DomainError(f"{what} produced a non-finite value")
    return value


def _modulus(z: complex) -> float:
    """``abs(z)``, or inf where that overflows (``abs`` raises there)."""
    try:
        return abs(z)
    except OverflowError:
        return math.inf


def cpow_principal(base: complex, exponent: complex) -> complex:
    """Principal-branch complex power exp(exponent * Log(base)).

    The logarithm's argument lies in (-pi, pi]; a negative-zero
    imaginary part on the base is normalized so that negative real
    bases sit on the upper side of the cut.  ``0 ** w`` is 0 when
    Re(w) > 0 and a domain error otherwise.  A negative real base with a
    real integer exponent (every float of magnitude 2**53 or more is one)
    has a real power, its sign set by the exponent's parity; it is
    refused where its modulus overflows and 0 where it underflows.
    """
    b = complex(base)
    e = complex(exponent)
    if b == 0:
        if e.real > 0:
            return 0j
        raise DomainError(
            "0 cannot be raised to an exponent with non-positive real part"
        )
    if b.imag == 0.0:
        b = complex(b.real, 0.0)
        if b.real < 0.0 and e.imag == 0.0 and e.real.is_integer():
            try:
                return complex(math.pow(b.real, e.real))
            except OverflowError as err:
                raise DomainError(f"complex power overflowed ({b!r} ** {e!r})") from err
    return _exp_power(b, e, e * cmath.log(b))


def _exp_power(base: complex, exponent: complex, log_power: complex) -> complex:
    """``base ** exponent`` as exp(``log_power``), its logarithm.  Where
    the phase, the imaginary part of ``log_power``, overflows, the power
    is 0 if its modulus underflows, whatever the phase, and is refused
    otherwise."""
    try:
        if math.isinf(log_power.imag):
            if math.exp(log_power.real) == 0.0:
                return 0j
            raise DomainError("the phase of a complex power overflowed "
                              f"({base!r} ** {exponent!r})")
        out = cmath.exp(log_power)
    except OverflowError as err:
        raise DomainError(f"complex power overflowed ({base!r} ** {exponent!r})") from err
    return _require_finite(out, "complex power")


def _log1p(a: float, z: complex) -> complex:
    """Principal Log(1 + w) for w = az, with a negative real 1 + w on the
    upper side of the cut.  Where |w| < 1/2 it is 0.5*log1p(2x + x^2 +
    y^2) + i*atan2(y, 1 + x), for w = x + iy: it keeps its relative
    accuracy as w -> 0, where Log(1 + w) would lose the digits of w that
    1 + w rounds away, and |1 + w| >= 1/2 keeps log1p's argument from
    cancelling.  Where |w| overflows it is log|a| + Log(z) or Log(-z), as
    the sign of a says: Log(w), which Log(1 + w) equals to the last bit."""
    w = a * z
    x, y = w.real, w.imag + 0.0  # -0.0 + 0.0 is 0.0
    size = _modulus(w)
    if size == math.inf:
        v = z if a > 0.0 else -z
        return math.log(abs(a)) + cmath.log(complex(v.real, v.imag + 0.0))
    if size < 0.5:
        return complex(0.5 * math.log1p(x * (2.0 + x) + y * y), math.atan2(y, 1.0 + x))
    return cmath.log(complex(1.0 + x, y))


def q_exp(q: float, z: complex) -> complex:
    """Deformed exponential [1 + (q-1)z]^(1/(1-q)) on the principal branch.

    It is exp(Log(1 + (q-1)z)/(1-q)), with the logarithm taken by a
    complex log1p, so that it stays accurate as q -> 1.  For |q - 1|
    below ``EPS_Q_ONE`` the exact limit exp(-z) is returned: the
    deformed form tends to exp(-z) as q -> 1 (its base carries q-1
    while its exponent carries 1/(1-q)).  Where (q-1)z overflows, the
    logarithm of the bracket is taken from log|q-1| and Log(+-z).
    Non-finite arguments are refused.
    """
    zc = complex(z)
    if not (math.isfinite(q) and cmath.isfinite(zc)):
        raise DomainError(f"non-finite deformed exponential argument (q={q}, z={zc})")
    if abs(q - 1.0) < EPS_Q_ONE:
        return _exp_power(math.e, -zc, -zc)
    w = (q - 1.0) * zc
    base = complex(1.0 + w.real, w.imag + 0.0)  # as cpow_principal normalizes it
    if base == 0:
        raise DomainError(f"q_exp pole: 1 + (q-1)z vanished for q={q}, z={zc}")
    return _exp_power(base, complex(1.0 / (1.0 - q)), _log1p(q - 1.0, zc) / (1.0 - q))


def q_exp_real_cutoff(q: float, x: float) -> float:
    """Real deformed exponential with the standard cutoff.

    Returns [1 + (q-1)x]^(1/(1-q)) where the bracket is positive and 0
    otherwise, or refuses a value that overflows.  It is taken as
    exp(log1p((q-1)x)/(1-q)), which stays accurate as q -> 1; where
    (q-1)x overflows, log1p((q-1)x) is log|q-1| + log|x|.
    """
    if not (math.isfinite(q) and math.isfinite(x)):
        raise DomainError(f"non-finite deformed exponential argument (q={q}, x={x})")
    if abs(q - 1.0) < EPS_Q_ONE:
        power = -x
    else:
        t = (q - 1.0) * x
        if 1.0 + t <= 0.0:
            return 0.0
        log_bracket = math.log1p(t) if t < math.inf else math.log(abs(q - 1.0)) + math.log(abs(x))
        power = log_bracket / (1.0 - q)
    try:
        return math.exp(power)
    except OverflowError as err:
        raise DomainError(
            f"deformed exponential overflowed (q={q}, x={x})"
        ) from err


def _check_hyp_args(alpha: float, beta: float, gamma: float, z: complex) -> None:
    for name, value in (("alpha", alpha), ("beta", beta), ("gamma", gamma)):
        if not math.isfinite(value):
            raise DomainError(f"non-finite hypergeometric parameter {name}")
    if not cmath.isfinite(z):
        raise DomainError("non-finite hypergeometric argument z")
    if gamma == math.floor(gamma) and gamma <= 0.0:
        raise DomainError(f"gamma={gamma} is a pole of the hypergeometric function")


@dataclass(frozen=True)
class HypParams:
    """Parameter quadruple (alpha, beta, gamma, z) for a 2F1 evaluation.

    gamma must avoid the poles of the function (zero and the negative
    integers).  The general series path additionally requires |z| < 1;
    the degenerate beta == gamma closed form is valid for any z off the
    cut [1, inf).
    """

    alpha: float
    beta: float
    gamma: float
    z: complex

    def __post_init__(self) -> None:
        zc = complex(self.z)
        _check_hyp_args(self.alpha, self.beta, self.gamma, zc)
        object.__setattr__(self, "z", zc)


def hyp2f1_series(alpha: float, beta: float, gamma: float, z: complex) -> complex:
    """Truncated power series sum of (a)_n (b)_n / ((c)_n n!) z^n.

    Requires |z| < 1 and the arguments ``HypParams`` requires.  Terms are
    accumulated until three consecutive ones fall below the
    floating-point noise floor of the partial sum.  A term that fails
    that test is checked for a NaN sum, which no later term can settle:
    a term overflowed.
    """
    zc = complex(z)
    if _modulus(zc) >= 1.0:
        raise DomainError(
            f"series evaluation requires |z| < 1, got |z| = {_modulus(zc):.6g}"
        )
    _check_hyp_args(alpha, beta, gamma, zc)
    term = 1.0 + 0j
    total = 1.0 + 0j
    quiet = 0
    try:
        for n in range(SERIES_MAX_TERMS):
            term *= (alpha + n) * (beta + n) / ((gamma + n) * (n + 1)) * zc
            total += term
            if abs(term) <= SERIES_RTOL * abs(total):
                quiet += 1
                if quiet == 3:
                    return _require_finite(total, "hypergeometric series")
            elif total != total:
                raise OverflowError("the partial sum is NaN")
            else:
                quiet = 0
    except OverflowError as err:  # from abs, or a NaN sum
        raise DomainError("hypergeometric series overflowed") from err
    raise ConvergenceError(
        f"hypergeometric series did not settle within {SERIES_MAX_TERMS} terms "
        f"(|z| = {abs(zc):.6g})"
    )


def hyp2f1(params: HypParams) -> complex:
    """Gauss hypergeometric function 2F1(alpha, beta; gamma; z).

    beta == gamma (compared exactly: callers that want this route build
    the two fields from the same value) dispatches to the closed form
    (1 - z)^(-alpha), valid off the cut [1, inf).  Otherwise the power
    series is summed, which requires |z| < 1; no analytic continuation
    is attempted.
    """
    if params.beta == params.gamma:
        return cpow_principal(1.0 - params.z, -params.alpha)
    return hyp2f1_series(params.alpha, params.beta, params.gamma, params.z)


def hyp2f1_deriv(params: HypParams, order: int) -> complex:
    """First or second z-derivative of 2F1 via the contiguous shift.

    d/dz F(a,b;c;z) = (ab/c) F(a+1,b+1;c+1;z), applied twice for the
    second derivative.  The coefficient is 0 where a factor of its
    numerator is, though another overflows.
    """
    a, b, c = params.alpha, params.beta, params.gamma
    if order == 1:
        numerator, denominator = (a, b), (c,)
    elif order == 2:
        numerator, denominator = (a, a + 1.0, b, b + 1.0), (c, c + 1.0)
    else:
        raise DomainError(f"derivative order must be 1 or 2, got {order}")
    coeff = 0.0 if 0.0 in numerator else math.prod(numerator) / math.prod(denominator)
    shifted = HypParams(a + order, b + order, c + order, params.z)
    return _require_finite(coeff * hyp2f1(shifted), "hypergeometric derivative")


def check_binomial_identity(alpha: float, gamma: float, z: complex) -> float:
    """Scaled defect of F(-alpha, gamma; gamma; -z) = (1+z)^alpha.

    The hypergeometric side is summed with the raw series (the
    degenerate closed-form dispatch would make the comparison vacuous:
    both sides would evaluate the identical power).  Requires |z| < 1,
    which also keeps 1 + z off the negative real axis.
    """
    zc = complex(z)
    if _modulus(zc) >= 1.0:
        raise DomainError("binomial identity check requires |z| < 1")
    lhs = hyp2f1_series(-alpha, gamma, gamma, -zc)
    rhs = cpow_principal(1.0 + zc, alpha)
    defect = _modulus(lhs - rhs) / max(1.0, _modulus(rhs))
    return _require_finite(defect, "binomial identity check")
