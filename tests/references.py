"""Reference implementations that tests compare the package against.

Compensated scaled power series for e^(-x) I0(x) and e^(-x) I1(x), run
to twice the term count needed for convergence; they are the high-trust
references for the Bessel code and the circular variance.
`bessel_i0_integral` gives I0 from its integral representation by
adaptive quadrature.  MPMATH_KAPPAS are the concentrations at which the
per-kappa values are checked against mpmath.
"""

import math
from typing import Callable

from circbridge.distributions import _require_tol
from circbridge.oracle import adaptive_quadrature

# 300 log-uniform concentrations on [1e-4, 1e6], plus both sides of the
# kappa = 300 and 600 points where earlier versions switched algorithms.
MPMATH_KAPPAS = [10.0 ** (-4.0 + 10.0 * i / 299.0) for i in range(300)] + [
    299.5,
    300.5,
    599.5,
    600.5,
]


def _kahan_series(t0: float, ratio_num: Callable[[int], float]) -> float:
    # Compensated summation, run to twice the term count needed for
    # convergence.
    s = t0
    c = 0.0
    t = t0
    k = 1
    settled = 0
    while True:
        t *= ratio_num(k)
        y = t - c
        tt = s + y
        c = (tt - s) - y
        s = tt
        if settled:
            settled -= 1
            if settled == 0:
                return s
        elif t <= 1e-17 * s:
            settled = k  # keep going for as many terms again
        if k >= 400000:
            raise ArithmeticError("series reference did not converge")
        k += 1


def i0e_series_reference(kappa: float) -> float:
    """Compensated scaled power series for e^(-kappa) I0(kappa), kappa <= 700."""
    if not (0.0 <= kappa <= 700.0):
        raise ValueError("kappa must be in [0, 700], got %r" % (kappa,))
    q = 0.25 * kappa * kappa
    return _kahan_series(math.exp(-kappa), lambda k: q / (k * k))


def i1e_series_reference(kappa: float) -> float:
    """Compensated scaled power series for e^(-kappa) I1(kappa), kappa <= 700."""
    if not (0.0 <= kappa <= 700.0):
        raise ValueError("kappa must be in [0, 700], got %r" % (kappa,))
    if kappa == 0.0:
        return 0.0
    q = 0.25 * kappa * kappa
    return _kahan_series(0.5 * kappa * math.exp(-kappa), lambda k: q / (k * (k + 1)))


def bessel_i0_integral(kappa: float, tol: float = 1e-13) -> float:
    """I0(kappa) from its integral representation (1/pi) int_0^pi e^(kappa cos t) dt.

    Deliberately independent of the per-kappa kernel `backend.i0e_sigma2`.
    The integrand is evaluated in the scaled form e^(kappa(cos t - 1)) and
    rescaled at the end, which restricts kappa to at most 700 before
    e^kappa overflows.  tol is relative.
    """
    if not (0.0 <= kappa <= 700.0):
        raise ValueError("kappa must be in [0, 700], got %r" % (kappa,))
    _require_tol(tol)

    def g(t):
        return math.exp(kappa * (math.cos(t) - 1.0))

    coarse = adaptive_quadrature(g, 0.0, math.pi, 1e-4)
    abs_tol = 0.5 * tol * coarse.value
    fine = adaptive_quadrature(g, 0.0, math.pi, abs_tol)
    return math.exp(kappa) * fine.value / math.pi
