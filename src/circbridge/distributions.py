"""Exact circular and linear distribution functions.

Covers the circular normal (von Mises) density and log-density, its
circular variance, the wrapped normal density and circular variance, the
matched-scale relation v = sqrt(2) sigma between the two laws, and the
linear-normal helpers phi, Phi and the upper incomplete moments.
"""

import math
from dataclasses import dataclass, field

from . import backend
from . import bessel
from .backend import INV_SQRT_2PI, TWO_PI

SQRT2 = math.sqrt(2.0)
INV_SQRT2 = 1.0 / math.sqrt(2.0)
LOG_TWO_PI = math.log(2.0 * math.pi)

# Above this concentration the circular variance switches from the series
# ratio (whose term recurrences lose ~kappa*eps relative accuracy) to an
# order-8 asymptotic polynomial whose truncation is below 1e-17 relative.
_SIGMA2_ASYM_MIN = 300.0


def normalize_angle(theta: float) -> float:
    """Map an angle to [0, 2*pi)."""
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    return t


def wrap_angle(t: float) -> float:
    """Wrapped difference: map to (-pi, pi]."""
    t = math.fmod(t, TWO_PI)
    if t > math.pi:
        t -= TWO_PI
    elif t <= -math.pi:
        t += TWO_PI
    return t


class _per_kappa:
    """Computes a value from the instance on first access and stores it in
    the instance dict, where later reads find it without calling back here
    (a non-data descriptor; unlike functools.cached_property it takes no
    lock, which costs single-point callers measurably on Python 3.11)."""

    def __init__(self, compute):
        self.compute = compute
        self.name = compute.__name__
        self.__doc__ = compute.__doc__

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.compute(obj)
        obj.__dict__[self.name] = value
        return value


@dataclass(frozen=True)
class VonMisesParams:
    """Mean direction mu (normalized to [0, 2*pi)) and concentration kappa >= 0.

    Also carries the per-concentration values every evaluation at this
    kappa shares, each computed once on first access: `variance`, `i0e`
    and `log_i0e`.  Equality, hashing and repr depend on (mu, kappa) alone.
    """

    mu: float
    kappa: float

    def __post_init__(self):
        if not (-math.inf < self.mu < math.inf):
            raise ValueError("mu must be finite, got %r" % (self.mu,))
        if not (0.0 <= self.kappa < math.inf):
            raise ValueError("kappa must be finite and >= 0, got %r" % (self.kappa,))
        object.__setattr__(self, "mu", normalize_angle(self.mu))

    @_per_kappa
    def variance(self) -> "CircularVariance":
        """circular_variance_exact(kappa); raises ValueError when kappa == 0."""
        return circular_variance_exact(self.kappa)

    @_per_kappa
    def i0e(self) -> float:
        """e^(-kappa) I0(kappa); the scaled density divides by 2 pi times this."""
        return bessel.i0e(self.kappa)

    @_per_kappa
    def log_i0e(self) -> float:
        """log(e^(-kappa) I0(kappa))."""
        return bessel.log_i0e(self.kappa)


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


@dataclass(frozen=True)
class CircularVariance:
    """Circular variance and its square root sigma."""

    value: float
    sigma: float = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "sigma", math.sqrt(self.value))


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
    t = wrap_angle(theta - params.mu)
    s = math.sin(0.5 * t)
    return math.exp(-2.0 * params.kappa * (s * s)) / (TWO_PI * params.i0e)


def vm_log_density(params: VonMisesParams, theta: float) -> float:
    """Log of the circular normal density, finite for very large kappa.

    Evaluated in the scaled form -2 kappa sin^2(t/2) - log(2 pi e^-kappa I0),
    like `vm_density`.
    """
    t = wrap_angle(theta - params.mu)
    s = math.sin(0.5 * t)
    return -2.0 * params.kappa * (s * s) - LOG_TWO_PI - params.log_i0e


def circular_variance_exact(kappa: float) -> CircularVariance:
    """Circular variance 1 - I1(kappa)/I0(kappa).

    Moderate kappa uses the power-series ratio with a compensated
    termwise numerator; large kappa uses the ratio of the scaled
    asymptotic forms carried to order eight, for which every coefficient
    is an exact dyadic rational and the truncation sits far below double
    precision.  Worst relative error is ~1e-12 just below the branch
    point and under 1e-15 elsewhere.
    """
    _require_positive_kappa(kappa)
    if kappa <= _SIGMA2_ASYM_MIN:
        v = backend.sigma2_series(kappa)
    else:
        # 1/2, 1/8, 1/8, 25/128, 13/32, 1073/1024, 103/32, 375733/32768
        u = 1.0 / kappa
        v = 11.466461181640625
        v = 3.21875 + u * v
        v = 1.0478515625 + u * v
        v = 0.40625 + u * v
        v = 0.1953125 + u * v
        v = 0.125 + u * v
        v = 0.125 + u * v
        v = u * (0.5 + u * v)
    return CircularVariance(value=v)


def circular_variance_expansion(kappa: float) -> float:
    """Three-term large-concentration expansion 1/(2k) + 1/(8k^2) + 1/(8k^3)."""
    _require_positive_kappa(kappa)
    u = 1.0 / kappa
    return 0.5 * u + 0.125 * (u * u) + 0.125 * (u * u * u)


def _wn_wrap_count(t_wrapped: float, v: float, tol: float) -> int:
    # Gaussian tail bound: wraps beyond kmax contribute less than tol in total.
    arg = 2.0 / (tol * v * math.sqrt(TWO_PI))
    if arg <= 1.0:
        return 1
    reach = abs(t_wrapped) + v * math.sqrt(2.0 * math.log(arg))
    return int(math.ceil(reach / TWO_PI)) + 1


def wn_density(params: WrappedNormalParams, theta: float, tol: float = 1e-12) -> float:
    """Wrapped normal density: normal densities summed over integer wraps.

    The symmetric truncation bound kmax is chosen so the omitted tail mass
    is below tol.
    """
    _require_tol(tol)
    t = wrap_angle(theta - params.mu)
    kmax = _wn_wrap_count(t, params.v, tol)
    return backend.wn_density_at(t, params.v, kmax)


def wn_circular_variance(v: float) -> float:
    """Circular variance of the wrapped normal law: 1 - exp(-v^2 / 2)."""
    if not (v > 0.0):
        raise ValueError("v must be > 0, got %r" % (v,))
    return -math.expm1(-0.5 * v * v)


def matched_wn_scale(kappa: float) -> float:
    """Wrapped-normal scale matching the circular variance: v = sqrt(2) sigma."""
    return SQRT2 * circular_variance_exact(kappa).sigma


def matched_sup_gap(params: VonMisesParams, grid_size: int = 1001, tol: float = 1e-12) -> float:
    """Sup over a theta grid of |circular normal - matched wrapped normal|.

    The wrapped normal uses the matched scale v = sqrt(2) sigma(kappa);
    the gap shrinks as kappa grows, which is the limiting-law statement
    in a computable form.  grid_size equispaced points cover [0, 2 pi).
    """
    if grid_size < 1:
        raise ValueError("grid_size must be >= 1, got %r" % (grid_size,))
    wn = WrappedNormalParams(params.mu, SQRT2 * params.variance.sigma)
    step = TWO_PI / grid_size
    sup = 0.0
    for j in range(grid_size):
        theta = j * step
        gap = abs(vm_density(params, theta) - wn_density(wn, theta, tol))
        if gap > sup:
            sup = gap
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
