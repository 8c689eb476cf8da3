"""Exact circular and linear distribution functions.

Covers the circular normal (von Mises) density and its circular
variance, the wrapped normal density for scales below sqrt(2 pi), the
matched-scale relation v = sqrt(2) sigma between the two laws, and the
linear-normal helpers phi, Phi and the upper incomplete moments.
"""

import math
import sys

from . import backend
from .backend import INV_SQRT_2PI, TWO_PI

SQRT2 = math.sqrt(2.0)
INV_SQRT2 = 1.0 / math.sqrt(2.0)
LOG_TWO = math.log(2.0)
LOG_TWO_PI = math.log(2.0 * math.pi)

# Wrapped-normal scales lie below this.  Every matched scale sqrt(2) sigma
# is at most sqrt(2), and below sqrt(2 pi) the lattice sum needs at most
# 11 terms at tol 1e-12 and 35 at tol 1e-300.
_WN_MAX_V = math.sqrt(TWO_PI)
# The smallest scale whose reciprocal is finite.  1 / (float max) itself
# rounds down to a scale whose reciprocal overflows.
_WN_MIN_V = math.nextafter(1.0 / sys.float_info.max, 1.0)

# 1 + m for the rounding margin m of matched_sup_gap's stopping test
_SUP_MARGIN = 1.0 + 1e-6


def normalize_angle(theta: float) -> float:
    """Map an angle to [0, 2*pi)."""
    # fmod is exact and raises at +-inf; % then adds 2 pi to a negative
    # remainder, rounding up to 2 pi itself for one in (-4.4e-16, 0), and
    # turns a zero into +0.0
    try:
        t = math.fmod(theta, TWO_PI) % TWO_PI
    except ValueError:
        raise ValueError("theta must be finite, got %r" % (theta,)) from None
    return 0.0 if t == TWO_PI else t


def wrap_angle(t: float) -> float:
    """Wrapped difference: map to (-pi, pi]."""
    # the IEEE remainder is exact, lies in [-pi, pi] and raises at +-inf
    try:
        t = math.remainder(t, TWO_PI)
    except ValueError:
        raise ValueError("t must be finite, got %r" % (t,)) from None
    return math.pi if t == -math.pi else t


class _Frozen:
    """Immutable slotted record whose equality, hash and repr read the names in _fields.

    Each constructor stores its fields through the class's slot descriptors,
    bound once at module level, past the __setattr__ that refuses every
    assignment.  Pickling and copying rebuild a record from its _fields
    through __reduce__: the default protocol would restore the slots
    through that __setattr__.
    """

    __slots__ = ()

    def _key(self):
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields)
        return "%s(%s)" % (self.__class__.__qualname__, fields)

    def __reduce__(self):
        return self.__class__, self._key()

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))


class VonMisesParams(_Frozen):
    """Mean direction mu (normalized to [0, 2*pi)) and concentration kappa >= 0.

    Also carries the per-concentration values every evaluation at this
    kappa shares, set at construction from one call of the kernel
    `backend.i0e_sigma2`: `i0e`, `variance` (sigma^2) and `sigma`.  That
    kernel is also the one check of kappa's domain, 0 <= kappa <= ~9e307.
    The log of `i0e` is `bessel.log_i0e(kappa)`, or `math.log(params.i0e)`.
    At kappa == 0 the law is uniform: i0e, variance and sigma are all 1.
    Equality, hashing and repr depend on (mu, kappa) alone.
    """

    __slots__ = ("mu", "kappa", "i0e", "variance", "sigma")
    _fields = ("mu", "kappa")

    def __init__(self, mu: float, kappa: float):
        _require_finite("mu", mu)
        _set_vm_mu(self, normalize_angle(mu))
        _set_vm_kappa(self, kappa)
        i0e, sigma2 = backend.i0e_sigma2(kappa)
        _set_vm_i0e(self, i0e)
        _set_vm_variance(self, sigma2)
        _set_vm_sigma(self, math.sqrt(sigma2))


# slot stores, one per field: a bound descriptor's __set__ costs about
# two thirds of a generic object.__setattr__ call
_set_vm_mu = VonMisesParams.mu.__set__
_set_vm_kappa = VonMisesParams.kappa.__set__
_set_vm_i0e = VonMisesParams.i0e.__set__
_set_vm_variance = VonMisesParams.variance.__set__
_set_vm_sigma = VonMisesParams.sigma.__set__


class WrappedNormalParams(_Frozen):
    """Mean direction mu (normalized to [0, 2*pi)) and linear scale v.

    The scale lies in [_WN_MIN_V, sqrt(2 pi)): below _WN_MIN_V, about
    5.6e-309, the reciprocal 1/v that the lattice sum scales by overflows.
    """

    __slots__ = ("mu", "v")
    _fields = ("mu", "v")

    def __init__(self, mu: float, v: float):
        _require_finite("mu", mu)
        if not (0.0 < v < _WN_MAX_V):
            raise ValueError("v must be finite, > 0 and < sqrt(2 pi), got %r" % (v,))
        if v < _WN_MIN_V:
            raise ValueError("v must be >= %r, where 1/v is finite, got %r" % (_WN_MIN_V, v))
        _set_wn_mu(self, normalize_angle(mu))
        _set_wn_v(self, v)


_set_wn_mu = WrappedNormalParams.mu.__set__
_set_wn_v = WrappedNormalParams.v.__set__


def _require_finite(name, value):
    if not (-math.inf < value < math.inf):
        raise ValueError("%s must be finite, got %r" % (name, value))


def _require_positive_kappa(kappa):
    if not (kappa > 0.0):
        raise ValueError("kappa must be > 0, got %r" % (kappa,))


def _inverse_powers(kappa: float) -> tuple[float, float]:
    """(u, u^2) with u = 1/kappa: the per-kappa numbers of the 1/kappa expansions.

    Raises ValueError unless kappa > 0 and 1/kappa^3, the scale of every
    remainder, is finite; below about 1.8e-103 the expansions overflow.
    """
    _require_positive_kappa(kappa)
    u = 1.0 / kappa
    uu = u * u
    if not (uu * u < math.inf):
        raise ValueError(
            "kappa=%r is too small for the 1/kappa expansions: 1/kappa^3 overflows" % (kappa,)
        )
    return u, uu


def _require_tol(tol):
    if not (0.0 < tol < math.inf):
        raise ValueError("tol must be finite and > 0, got %r" % (tol,))


def vm_density(params: VonMisesParams, theta: float) -> float:
    """Circular normal density exp(kappa cos(theta - mu)) / (2 pi I0(kappa)).

    Evaluated in scaled form exp(-2 kappa sin^2(t/2)) / (2 pi e^-kappa I0),
    which never overflows.  Raises ValueError unless theta is finite.
    """
    _require_finite("theta", theta)
    return _vm_density_value(params.kappa, params.i0e, wrap_angle(theta - params.mu))


def _vm_density_value(kappa, i0e, t):
    # the density at wrapped offset t, given kappa and e^-kappa I0(kappa)
    s = math.sin(0.5 * t)
    return math.exp(-2.0 * kappa * (s * s)) / (TWO_PI * i0e)


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
    u, uu = _inverse_powers(kappa)
    return 0.5 * u + 0.125 * uu + 0.125 * (uu * u)


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


def wn_density(params: WrappedNormalParams, theta: float, tol: float = 1e-12) -> float:
    """Wrapped normal density, within tol (absolute) of the exact value.

    Sums normal densities over integer wraps, with the symmetric
    truncation bound kmax chosen so the omitted tail is below tol.  The
    terms decay like e^(-2 pi^2 k^2 / v^2), so below v = sqrt(2 pi), the
    bound `WrappedNormalParams` keeps, the lattice needs no more terms
    than the Fourier (theta) series would (Kurz, Gilitschenski & Hanebeck
    2014).  Raises ValueError unless theta is finite.
    """
    _require_tol(tol)
    _require_finite("theta", theta)
    v = params.v
    t = wrap_angle(theta - params.mu)
    return backend.wn_density_at(t, v, _wn_wraps(t, _wn_tail_reach(v, tol)))


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
    f, g >= 0; both exact densities decrease in |t| on [0, pi]; and the
    lattice sum omits only positive terms, less than tol in all, so a
    later g is at most the exact density here, below g + tol.  The
    offsets on (pi, 2 pi) mirror these only up to rounding, so the max
    over all grid_size offsets may differ from the result by a few ulp of
    the peak density.
    """
    if type(grid_size) is not int or grid_size < 1:
        raise ValueError("grid_size must be >= 1, got %r" % (grid_size,))
    _require_tol(tol)
    v = SQRT2 * params.sigma  # at most sqrt(2), as sigma^2 <= 1
    reach = _wn_tail_reach(v, tol)
    kappa = params.kappa
    i0e = params.i0e
    step = TWO_PI / grid_size
    sup = 0.0
    for j in range(grid_size // 2 + 1):
        t = wrap_angle(j * step)
        f = _vm_density_value(kappa, i0e, t)
        g = backend.wn_density_at(t, v, _wn_wraps(t, reach))
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

    For even j up to 8, by parts M_j = z^(j-1) phi(z) + (j-1) M_(j-2) from
    the survival function M_0.  The limits are 0 at z = +inf and (j - 1)!!
    at z = -inf; a nan z gives nan.
    """
    if type(j) is not int or j not in (0, 2, 4, 6, 8):
        raise ValueError("j must be one of {0, 2, 4, 6, 8}, got %r" % (j,))
    m = 0.5 * math.erfc(z * INV_SQRT2)
    phi = normal_pdf(z)
    for k in range(1, j, 2):
        m *= k
        # phi is 0 for |z| beyond about 38.6, where z^k phi could be inf * 0
        if phi:
            m += z ** k * phi
    return m
