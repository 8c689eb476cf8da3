"""Modified Bessel function I0, and the asymptotic brackets of I0 and I1.

`i0e` and `log_i0e` read e^-kappa I0(kappa) from the one per-concentration
kernel, `backend.i0e_sigma2`, at every kappa.  The convergent power series
gives I0 itself for moderate argument (`bessel_i0_series`, and `log_i0`
below SERIES_CUTOFF); the truncated large-argument bracket polynomials
are kept as the asymptotic forms that the error-order checks measure.
"""

import math

from . import backend

# The raw power series I0(x) stays below double overflow up to x ~ 712;
# above the cutoff `log_i0` adds kappa to `log_i0e` instead.
SERIES_CUTOFF = 600.0


def _check_nonneg(x, name="x"):
    if not (0.0 <= x < math.inf):
        raise ValueError("%s must be finite and >= 0, got %r" % (name, x))


def _check_order(order):
    if order not in (0, 1, 2, 3):
        raise ValueError("asymptotic order must be in {0,1,2,3}, got %r" % (order,))


def bessel_i0_series(x: float) -> float:
    """I0(x) by its power series.  Requires 0 <= x <= SERIES_CUTOFF."""
    _check_nonneg(x)
    if x > SERIES_CUTOFF:
        raise ValueError("x=%r exceeds the series cutoff %r" % (x, SERIES_CUTOFF))
    return backend.i0_series_sum(x)


def bessel_i0e_asymptotic(kappa: float, order: int = 3) -> float:
    """Truncated asymptotic bracket of sqrt(2 pi kappa) e^(-kappa) I0(kappa).

    Order counts the 1/kappa correction terms kept beyond the leading one:
    1 + 1/(8k) + 9/(128k^2) + 75/(1024k^3).
    """
    if not (kappa > 0.0):
        raise ValueError("kappa must be > 0, got %r" % (kappa,))
    _check_order(order)
    u = 1.0 / kappa
    b = 1.0
    if order >= 1:
        b += 0.125 * u
    if order >= 2:
        b += 0.0703125 * (u * u)
    if order >= 3:
        b += 0.0732421875 * (u * u * u)
    return b


def bessel_i1e_asymptotic(kappa: float, order: int = 3) -> float:
    """Truncated asymptotic bracket for I1: 1 - 3/(8k) - 15/(128k^2) - 105/(1024k^3)."""
    if not (kappa > 0.0):
        raise ValueError("kappa must be > 0, got %r" % (kappa,))
    _check_order(order)
    u = 1.0 / kappa
    b = 1.0
    if order >= 1:
        b -= 0.375 * u
    if order >= 2:
        b -= 0.1171875 * (u * u)
    if order >= 3:
        b -= 0.1025390625 * (u * u * u)
    return b


def i0e(kappa: float) -> float:
    """e^(-kappa) I0(kappa), overflow-safe for 0 <= kappa <= ~9e307."""
    return backend.i0e_sigma2(kappa)[0]


def log_i0e(kappa: float) -> float:
    """log(e^(-kappa) I0(kappa)), the scaled logarithm used by log-space callers."""
    return math.log(backend.i0e_sigma2(kappa)[0])


def log_i0(kappa: float) -> float:
    """log I0(kappa) without overflow, for 0 <= kappa <= ~9e307."""
    _check_nonneg(kappa, "kappa")
    if kappa <= SERIES_CUTOFF:
        s = backend.i0_series_sum(kappa)
        if s < 2.0:
            # log near 1 magnifies the rounding of s; log1p of the series
            # summed without its leading 1 keeps full relative accuracy
            return math.log1p(backend.i0_series_sum(kappa, 0.0))
        return math.log(s)
    return kappa + log_i0e(kappa)
