"""Exact circular and linear distribution functions.

Covers the circular normal (von Mises) density and log-density, its
circular variance, the wrapped normal density and circular variance, the
matched-scale relation v = sqrt(2) sigma between the two laws, and the
linear-normal helpers phi, Phi and the upper incomplete moments.
"""

import math
from dataclasses import dataclass

from . import backend
from .backend import INV_SQRT_2PI, TWO_PI

SQRT2 = math.sqrt(2.0)
INV_SQRT2 = 1.0 / math.sqrt(2.0)
LOG_TWO = math.log(2.0)
LOG_TWO_PI = math.log(2.0 * math.pi)

# From this wrapped-normal scale up, the density is summed as its Fourier
# series instead of over integer wraps (see wn_density).
_WN_FOURIER_MIN_V = math.sqrt(TWO_PI)

# 1 + m for the rounding margin m of matched_sup_gap's stopping test
_SUP_MARGIN = 1.0 + 1e-6


def normalize_angle(theta: float) -> float:
    """Map an angle to [0, 2*pi)."""
    t = math.fmod(theta, TWO_PI) + 0.0  # + 0.0 turns -0.0 into 0.0
    if t < 0.0:
        t += TWO_PI
        # t + 2*pi rounds up to 2*pi for t in (-4.4e-16, 0)
        if t == TWO_PI:
            return 0.0
    return t


def wrap_angle(t: float) -> float:
    """Wrapped difference: map to (-pi, pi]."""
    t = math.fmod(t, TWO_PI)
    if t > math.pi:
        t -= TWO_PI
    elif t <= -math.pi:
        t += TWO_PI
    return t


@dataclass(frozen=True)
class VonMisesParams:
    """Mean direction mu (normalized to [0, 2*pi)) and concentration kappa >= 0.

    Also carries the per-concentration values every evaluation at this
    kappa shares, set at construction from one call of the kernel
    `backend.i0e_sigma2`: `i0e`, `log_i0e`, `variance` (sigma^2) and `sigma`.
    At kappa == 0 the law is uniform: i0e, variance and sigma are all 1.
    Equality, hashing and repr depend on (mu, kappa) alone.
    """

    mu: float
    kappa: float

    def __post_init__(self):
        if not (-math.inf < self.mu < math.inf):
            raise ValueError("mu must be finite, got %r" % (self.mu,))
        if not (0.0 <= self.kappa < math.inf):
            raise ValueError("kappa must be finite and >= 0, got %r" % (self.kappa,))
        object.__setattr__(self, "mu", normalize_angle(self.mu))
        # object.__setattr__ keeps the values in the instance's inline
        # slots, where reads specialize; writing self.__dict__ would not
        i0e, sigma2 = backend.i0e_sigma2(self.kappa)
        object.__setattr__(self, "i0e", i0e)
        object.__setattr__(self, "log_i0e", math.log(i0e))
        object.__setattr__(self, "variance", sigma2)
        object.__setattr__(self, "sigma", math.sqrt(sigma2))


@dataclass(frozen=True)
class WrappedNormalParams:
    """Mean direction mu (normalized to [0, 2*pi)) and linear scale v > 0."""

    mu: float
    v: float

    def __post_init__(self):
        if not (-math.inf < self.mu < math.inf):
            raise ValueError("mu must be finite, got %r" % (self.mu,))
        if not (0.0 < self.v < math.inf):
            raise ValueError("v must be finite and > 0, got %r" % (self.v,))
        object.__setattr__(self, "mu", normalize_angle(self.mu))


def _require_positive_kappa(kappa):
    if not (kappa > 0.0):
        raise ValueError("kappa must be > 0, got %r" % (kappa,))


def _require_tol(tol):
    if not (0.0 < tol < math.inf):
        raise ValueError("tol must be finite and > 0, got %r" % (tol,))


def vm_density(params: VonMisesParams, theta: float) -> float:
    """Circular normal density exp(kappa cos(theta - mu)) / (2 pi I0(kappa)).

    Evaluated in scaled form exp(-2 kappa sin^2(t/2)) / (2 pi e^-kappa I0),
    which never overflows.
    """
    return _vm_density_value(params.kappa, params.i0e, wrap_angle(theta - params.mu))


def _vm_density_value(kappa, i0e, t):
    # the density at wrapped offset t, given kappa and e^-kappa I0(kappa)
    s = math.sin(0.5 * t)
    return math.exp(-2.0 * kappa * (s * s)) / (TWO_PI * i0e)


def vm_log_density(params: VonMisesParams, theta: float) -> float:
    """Log of the circular normal density, finite for very large kappa.

    Evaluated in the scaled form -2 kappa sin^2(t/2) - log(2 pi e^-kappa I0),
    like `vm_density`.
    """
    t = wrap_angle(theta - params.mu)
    s = math.sin(0.5 * t)
    return -2.0 * params.kappa * (s * s) - LOG_TWO_PI - params.log_i0e


def circular_variance_exact(kappa: float) -> float:
    """Circular variance 1 - I1(kappa)/I0(kappa), for kappa > 0.

    Read from the per-concentration kernel `backend.i0e_sigma2`, a
    trapezoid sum of positive terms with no branch point; its relative
    error is within a few ulp at every kappa.
    """
    _require_positive_kappa(kappa)
    return backend.i0e_sigma2(kappa)[1]


def circular_variance_expansion(kappa: float) -> float:
    """Three-term large-concentration expansion 1/(2k) + 1/(8k^2) + 1/(8k^3)."""
    _require_positive_kappa(kappa)
    u = 1.0 / kappa
    return 0.5 * u + 0.125 * (u * u) + 0.125 * (u * u * u)


def _wn_tail_reach(v: float, tol: float):
    # Gaussian tail bound: wraps k with |t + 2 pi k| beyond this reach add
    # less than tol in total; None when one wrap each way is always enough.
    # log(2 / (tol v sqrt(2 pi))) as a sum of logs, so that tiny v cannot
    # overflow the quotient.
    log_arg = LOG_TWO - math.log(tol) - math.log(v) - 0.5 * LOG_TWO_PI
    if log_arg <= 0.0:
        return None
    return v * math.sqrt(2.0 * log_arg)


def _wn_wraps(t_wrapped: float, reach) -> int:
    # wrap count at wrapped offset t for a per-scale reach from _wn_tail_reach
    if reach is None:
        return 1
    return int(math.ceil((abs(t_wrapped) + reach) / TWO_PI)) + 1


def _wn_fourier_count(v: float, tol: float) -> int:
    # With rho = e^(-v^2/2), the terms p > P of the Fourier series add at
    # most rho^((P+1)^2) / (pi (1 - rho)) to the density; the smallest P
    # that puts this below tol.
    log_arg = -math.log(math.pi * tol) - math.log1p(-math.exp(-0.5 * v * v))
    if log_arg <= 0.0:
        return 0
    return int(math.ceil(math.sqrt(2.0 * log_arg) / v)) - 1


def _wn_series(v: float, tol: float):
    # the per-scale part of wn_density: (Fourier term count, None) from
    # v = sqrt(2 pi) up, else (None, lattice tail reach)
    if v >= _WN_FOURIER_MIN_V:
        return _wn_fourier_count(v, tol), None
    return None, _wn_tail_reach(v, tol)


def _wn_density_value(t, v, series):
    # the density at wrapped offset t, given series = _wn_series(v, tol)
    pmax, reach = series
    if pmax is not None:
        return backend.wn_fourier_at(t, v, pmax)
    return backend.wn_density_at(t, v, _wn_wraps(t, reach))


def wn_density(params: WrappedNormalParams, theta: float, tol: float = 1e-12) -> float:
    """Wrapped normal density, within tol (absolute) of the exact value.

    Below v = sqrt(2 pi) it sums normal densities over integer wraps,
    with the symmetric truncation bound kmax chosen so the omitted tail
    is below tol; from there up it sums the Fourier (theta) series
    (1/2pi)(1 + 2 sum rho^(p^2) cos(p t)), rho = e^(-v^2/2), truncated
    the same way.  The lattice terms decay like e^(-2 pi^2 k^2 / v^2) and
    the Fourier terms like e^(-v^2 p^2 / 2), so each series is used where
    it needs the fewer terms; at the switch both decay like e^(-pi n^2)
    (Kurz, Gilitschenski & Hanebeck 2014).
    """
    _require_tol(tol)
    v = params.v
    return _wn_density_value(wrap_angle(theta - params.mu), v, _wn_series(v, tol))


def wn_circular_variance(v: float) -> float:
    """Circular variance of the wrapped normal law: 1 - exp(-v^2 / 2)."""
    if not (v > 0.0):
        raise ValueError("v must be > 0, got %r" % (v,))
    return -math.expm1(-0.5 * v * v)


# No package code calls this; perfbench/worker.py does, until the next
# change to the benchmark reads SQRT2 * params.sigma instead.
def matched_wn_scale(kappa: float) -> float:
    """Wrapped-normal scale matching the circular variance: v = sqrt(2) sigma."""
    return SQRT2 * math.sqrt(circular_variance_exact(kappa))


def matched_sup_gap(params: VonMisesParams, grid_size: int = 1001, tol: float = 1e-12) -> float:
    """Sup over a theta grid of |circular normal - matched wrapped normal|.

    The wrapped normal uses the matched scale v = sqrt(2) sigma(kappa);
    the gap shrinks as kappa grows, which is the limiting-law statement
    in a computable form.  grid_size equispaced offsets from mu cover
    [0, 2 pi), so the gap does not depend on mu.

    Both densities are even in t, so only the offsets
    t_j = wrap_angle(j * 2 pi / grid_size), j = 0 .. grid_size // 2, on
    [0, pi] are walked, outward from t = 0.  The walk stops at the first
    point where f (1 + m) and (g + tol)(1 + m) both fall below the running
    sup, f and g being the two densities there and m = 1e-6 a margin for
    rounding.  No later point can raise the sup: |f - g| <= max(f, g) for
    f, g >= 0; both exact densities decrease in |t| on [0, pi]; and
    sigma^2 <= 1 keeps v <= sqrt(2) on the lattice sum, which omits only
    positive terms, less than tol in all, so a later g is at most the
    exact density here, below g + tol.  The offsets on (pi, 2 pi) mirror
    these only up to rounding, so the max over all grid_size offsets may
    differ from the result by a few ulp of the peak density.
    """
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1, got %r" % (grid_size,))
    _require_tol(tol)
    v = SQRT2 * params.sigma
    series = _wn_series(v, tol)
    kappa = params.kappa
    i0e = params.i0e
    step = TWO_PI / grid_size
    sup = 0.0
    for j in range(grid_size // 2 + 1):
        t = wrap_angle(j * step)
        f = _vm_density_value(kappa, i0e, t)
        g = _wn_density_value(t, v, series)
        gap = abs(f - g)
        if gap > sup:
            sup = gap
        if f * _SUP_MARGIN < sup and (g + tol) * _SUP_MARGIN < sup:
            break
    return sup


def normal_pdf(z: float) -> float:
    """Standard normal density phi(z)."""
    return math.exp(-0.5 * (z * z)) * INV_SQRT_2PI


def normal_cdf(z: float) -> float:
    """Standard normal distribution function Phi(z) via erfc."""
    return 0.5 * math.erfc(-z * INV_SQRT2)


def upper_incomplete_moment(j: int, z: float) -> float:
    """Upper incomplete moment of the standard normal: integral of y^j phi(y) over (z, inf).

    Closed forms for even j up to 8; j = 0 is the survival function.
    """
    if j not in (0, 2, 4, 6, 8):
        raise ValueError("j must be one of {0, 2, 4, 6, 8}, got %r" % (j,))
    psi = 0.5 * math.erfc(z * INV_SQRT2)
    if j == 0:
        return psi
    phi = normal_pdf(z)
    z2 = z * z
    if j == 2:
        return z * phi + psi
    if j == 4:
        return (3.0 + z2) * z * phi + 3.0 * psi
    if j == 6:
        return (15.0 + (5.0 + z2) * z2) * z * phi + 15.0 * psi
    return (105.0 + (35.0 + (7.0 + z2) * z2) * z2) * z * phi + 105.0 * psi
