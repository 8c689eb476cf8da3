"""Reference implementations that tests compare the package against.

Compensated scaled power series for e^(-x) I0(x) and e^(-x) I1(x), run
to twice the term count needed for convergence; they are the high-trust
references for the Bessel code and the circular variance.  MPMATH_KAPPAS
are the concentrations at which the per-kappa values are checked against
mpmath.
"""

import math
from typing import Callable

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
