"""Scaled modified Bessel function I0, and the asymptotic brackets of I0 and I1.

`i0e` and `log_i0e` read e^-kappa I0(kappa) from the one per-concentration
kernel, `backend.i0e_sigma2`, at every kappa.  The truncated
large-argument bracket polynomials are kept as the asymptotic forms that
the error-order checks measure.
"""

import math

from . import backend
from .distributions import _inverse_powers


# the 1/kappa, 1/kappa^2 and 1/kappa^3 coefficients of each bracket
_I0_TERMS = (0.125, 0.0703125, 0.0732421875)
_I1_TERMS = (-0.375, -0.1171875, -0.1025390625)


def _bracket(terms, kappa, order):
    u, uu = _inverse_powers(kappa)
    if order not in (0, 1, 2, 3):
        raise ValueError("asymptotic order must be in {0,1,2,3}, got %r" % (order,))
    b = 1.0
    for c, p in zip(terms[:order], (u, uu, uu * u)):
        b += c * p
    return b


def bessel_i0e_asymptotic(kappa: float, order: int = 3) -> float:
    """Truncated asymptotic bracket of sqrt(2 pi kappa) e^(-kappa) I0(kappa).

    Order counts the 1/kappa correction terms kept beyond the leading one:
    1 + 1/(8k) + 9/(128k^2) + 75/(1024k^3).
    """
    return _bracket(_I0_TERMS, kappa, order)


def bessel_i1e_asymptotic(kappa: float, order: int = 3) -> float:
    """Truncated asymptotic bracket for I1: 1 - 3/(8k) - 15/(128k^2) - 105/(1024k^3)."""
    return _bracket(_I1_TERMS, kappa, order)


def i0e(kappa: float) -> float:
    """e^(-kappa) I0(kappa), overflow-safe for 0 <= kappa <= ~9e307."""
    return backend.i0e_sigma2(kappa)[0]


def log_i0e(kappa: float) -> float:
    """log(e^(-kappa) I0(kappa)), the scaled logarithm used by log-space callers."""
    return math.log(backend.i0e_sigma2(kappa)[0])

