"""Compute kernels: the package's hot numerical loops.

The one per-concentration kernel (e^-kappa I0(kappa), the circular
variance and D = kappa sigma^2 - 1/2 together, from Hankel series for
kappa >= 64 and a trapezoid sum below), quadrature of the concentrated
circular density on the GK15 nodes under a certified error (one rule,
Gauss-7 or one Kronrod panel, else k = 2 .. 64 equal Kronrod panels, k
fixed by an ellipse bound before any runs; every error is a bound plus a
rounding allowance) and the wrapped-normal lattice sum.  Plain Python.
The I0 series `i0_series_sum`, the `sigma2_series` alias and
`backend_name` remain only because the benchmark reads them.
"""

import functools
import math
import sys

TWO_PI = 2.0 * math.pi
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)

# `i0_series_sum` and its two constants have no caller in the package:
# perfbench/tracing.py wraps the function, and the next change to the
# benchmark deletes all three.
# Series terms below this fraction of the running sum no longer move a double.
_TERM_EPS = 1e-17
_MAX_TERMS = 200000

# The per-kappa trapezoid sum stops at terms below this fraction of the
# running sum.
_TRAPEZOID_EPS = 1e-18
_SQRT24 = math.sqrt(24.0)
_HALF_PI = 0.5 * math.pi  # sqrt(2 pi kappa) = 2 sqrt(kappa pi/2), finite to _KAPPA_MAX
# Largest concentration the per-kappa kernel accepts: the largest at which
# the exponent factor -2 kappa is still finite.
_KAPPA_MAX = 0.5 * sys.float_info.max

# 15-point Kronrod nodes on [-1, 1] (positive half, descending) with the
# embedded 7-point Gauss rule on the odd-index nodes and the center.
_XGK = (
    0.9914553711208126,
    0.9491079123427585,
    0.8648644233597691,
    0.7415311855993945,
    0.5860872354676911,
    0.4058451513773972,
    0.20778495500789848,
    0.0,
)
_WGK = (
    0.022935322010529224,
    0.06309209262997856,
    0.10479001032225019,
    0.14065325971552592,
    0.1690047266392679,
    0.19035057806478542,
    0.20443294007529889,
    0.20948214108472782,
)
_WG = (
    0.1294849661688697,
    0.27970539148927664,
    0.3818300505051189,
    0.4179591836734694,
)
_VM_NODES = tuple(zip(_XGK[:7], _WGK[:7]))  # the off-centre Kronrod pairs, for `_vm_panel`
_G7_NODES = tuple(zip(_XGK[1:7:2], _WG[:3]))  # the Gauss pairs, for `_vm_gauss7`
# `vm_scaled_mass`'s narrow rule (C, c eps), Kronrod class (C, beta) and
# rounding allowance per |value|
_G7_WIDTH2, _G7_ERROR = 0.49, 0.02 * sys.float_info.epsilon
_K15_WIDTH2, _K15_ERROR = 9.0, 3e-13
_ROUNDING = 50.0 * sys.float_info.epsilon


class QuadratureError(ArithmeticError):
    """Raised when quadrature cannot certify an error within the requested tolerance."""


# perfbench/worker.py records this name; the next change to the benchmark
# drops the call and the function.
def backend_name():
    """Name of the kernel implementation; always 'python'."""
    return "python"


def i0_series_sum(x, head=1.0):
    """Power series for I0: sum over k of (x/2)^(2k) / (k!)^2.

    Plain recurrence summation; valid while the unscaled sum stays inside
    double range (x <= ~700).  head is the k = 0 term; head=0.0 sums
    I0(x) - 1 to full relative accuracy, which adding 1 first would lose
    for small x.
    """
    q = 0.25 * x * x
    t = 1.0
    s = head
    k = 1
    while True:
        t *= q / (k * k)
        s += t
        if t <= _TERM_EPS * s:
            return s
        if k >= _MAX_TERMS:
            raise ArithmeticError("I0 series did not converge")
        k += 1


@functools.cache
def _sin2_nodes(n):
    """sin(j h)^2 for j = 1 .. n - 1 when n <= 28, else j = 1 .. 23,
    h = pi / (2 n): the s^2 at the interior nodes of `i0e_sigma2`'s
    n-panel rule that it can reach."""
    import array  # here, not at the top: only a new n reads it

    h = 0.5 * math.pi / n
    table = []
    for j in range(1, n if n <= 28 else 24):
        u = math.sin(j * h)
        u *= u
        table.append(u)
    return array.array("d", table)


def i0e_sigma2(kappa):
    """e^(-kappa) I0(kappa), the circular variance sigma^2 = 1 - I1/I0 and
    D = kappa sigma^2 - 1/2.

    For kappa >= 64, u = 1/kappa: two Hankel series (Abramowitz & Stegun
    9.7.1) to u^12, one Horner expression each, with positive coefficients:
    P = sqrt(2 pi kappa) e^-kappa I0 and R = dP/du, the u^0 term of
    kappa (P - P1) - P/2 cancelling in the rationals (P1 as P, for I1).  So
    i0e = P / sqrt(2 pi kappa), sigma^2 = u (P/2 + u R) / P and D = u R / P
    cancel nothing; at kappa = 64 the next terms are below 7e-20 of P and
    4e-17 of R.
    Below 64, with s = sin(t/2), e^-kappa I0 = (1/pi) int_0^pi
    e^(-2 kappa s^2) dt, and sigma^2 is int 2 s^2 e^(-2 kappa s^2) dt over
    int e^(-2 kappa s^2) dt (D is kappa sigma^2 - 1/2).  Both integrals are
    summed by the trapezoid rule on n = ceil(sqrt(24 kappa)) + 4 <= 44
    panels of [0, pi], from t = 0 outwards, until a term falls below
    _TRAPEZOID_EPS of the running sum.
    For a periodic analytic integrand the rule converges exponentially: the
    aliasing error is about e^(-2 n^2 / kappa), below e^-48, and every term
    is positive.  The s^2 at the nodes come from `_sin2_nodes(n)`; for
    n >= 29 it holds j = 1 .. 23, and the sum stops by j = 22 (checked at
    the smallest kappa of every n in 29..44).  Raises ValueError unless
    0 <= kappa <= _KAPPA_MAX (about 9e307).
    """
    if not (0.0 <= kappa <= _KAPPA_MAX):
        raise ValueError("kappa must be finite, >= 0 and <= %r, got %r" % (_KAPPA_MAX, kappa))
    if kappa >= 64.0:
        u = 1.0 / kappa
        p = 1.0 + u * (0.125 + u * (0.0703125 + u * (0.0732421875 + u * (0.112152099609375 + u * (
            0.22710800170898438 + u * (0.5725014209747314 + u * (1.7277275025844574 + u * (
                6.074042001273483 + u * (24.380529699556064 + u * (110.01714026924674 + u * (
                    551.3358961220206 + u * 3038.090510922384)))))))))))
        r = 0.125 + u * (0.140625 + u * (0.2197265625 + u * (0.4486083984375 + u * (
            1.1355400085449219 + u * (3.4350085258483887 + u * (12.094092518091202 + u * (
                48.592336010187864 + u * (219.42476729600457 + u * (1100.1714026924674 + u * (
                    6064.694857342227 + u * (36457.08613106861 + u * 237350.82116581127)))))))))))
        return 0.5 * p / math.sqrt(_HALF_PI * kappa), u * (0.5 * p + u * r) / p, u * r / p
    n = math.ceil(_SQRT24 * math.sqrt(kappa)) + 4
    m = -2.0 * kappa
    s0 = 0.5  # the node t = 0, at half weight
    s1 = 0.0
    for u in _sin2_nodes(n):
        f = math.exp(m * u)
        s0 += f
        s1 += u * f
        if f < _TRAPEZOID_EPS * s0:
            break
    else:
        # the node t = pi, where s = 1, at half weight
        f = 0.5 * math.exp(m)
        s0 += f
        s1 += f
    sigma2 = 2.0 * s1 / s0
    return s0 / n, sigma2, kappa * sigma2 - 0.5


# perfbench/tracing.py traces the per-kappa kernel under its former name;
# the next change to the benchmark drops this alias.
sigma2_series = i0e_sigma2


def _vm_panel(m, a, b):
    """The Kronrod-15 value of exp(m * sin(t/2)^2) over [a, b], a < b, from
    one loop over _VM_NODES."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    u = math.sin(0.5 * c)
    res = _WGK[7] * math.exp(m * (u * u))
    for x, wk in _VM_NODES:
        dx = h * x
        u = math.sin(0.5 * (c - dx))
        v = math.sin(0.5 * (c + dx))
        res += wk * (math.exp(m * (u * u)) + math.exp(m * (v * v)))
    return res * h


def _vm_gauss7(m, a, b):
    """The Gauss-7 value of exp(m * sin(t/2)^2) over [a, b], on the
    embedded Gauss nodes of `_vm_panel`'s Kronrod rule."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    u = math.sin(0.5 * c)
    res = _WG[3] * math.exp(m * (u * u))
    for x, wg in _G7_NODES:
        u = math.sin(0.5 * (c - h * x))
        v = math.sin(0.5 * (c + h * x))
        res += wg * (math.exp(m * (u * u)) + math.exp(m * (v * v)))
    return res * h


def _vm_kronrod_bound(kappa, h):
    """`vm_scaled_mass`'s ellipse bound B(h), kappa > 0; inf where M rho^-24 >= 1 or rho = 1."""
    y = math.sqrt(24.0 / kappa)
    y = math.asinh(24.0 / (kappa * math.hypot(y if y < 30.0 else 30.0, h)))
    y = math.asinh(24.0 / (kappa * math.hypot(y if y < 30.0 else 30.0, h)))
    y = math.asinh(24.0 / (kappa * math.hypot(y if y < 30.0 else 30.0, h)))
    y = y if y < 30.0 else 30.0
    lnrho = math.asinh(y / h)
    s = math.sinh(0.5 * y)
    expo = 2.0 * kappa * (s * s) - 24.0 * lnrho
    if not expo < 0.0:
        return math.inf
    return 8.014 * h * math.exp(expo) / -math.expm1(-2.0 * lnrho)


def vm_scaled_mass(kappa, a, b, tol):
    """Integral of exp(-2 kappa sin(t/2)^2) over [a, b], under a certified error.

    The integrand is the circular normal density scaled to peak value one,
    so nothing overflows at any concentration.  Every error returned is a
    bound on the rule's error plus the rounding allowance 50 eps |value|.
    Two straight-line stages, by the width w and s = w^2 max(2 kappa, 1).
    One rule: s <= 0.49 (C) takes Gauss-7 alone, which the ellipse bound
    below (rho^-14) puts under c eps w, c = 0.02, and returns (value,
    c eps w + 50 eps |value|, 7) when that meets tol; else one `_vm_panel`
    gives K and returns (K, err, 15) with the first err of these that
    meets tol: beta w + 50 eps |K| where s <= 9 (C; +-3 sigma at large
    kappa), beta = 3e-13 above B(w/2) per unit width over the whole class
    (2.6e-13 at kappa = 1/2, w = 3); B(w/2) + 50 eps |K|.  B(h) is twice
    a bound on K's error on a panel of half-width h: the integrand is
    entire and at most M = exp(2 kappa sinh(y/2)^2) on the Bernstein
    ellipse of half-height y, ln rho = asinh(y/h), where K15 (degree 23,
    positive weights) errs by at most 4.007 h M rho^-24 / (1 - rho^-2)
    (Trefethen 2008, Thm 4.5); y takes three fixed-point steps towards its
    minimiser, capped at 30.  At kappa = 0 the integrand is 1, every rule
    is exact and B is 0, so the rounding allowance is the whole error.
    Else k panels: k is the least power of two in 2 .. 64 with
    k B(w/2k) + 50 eps |K| <= tol, [a, b] is halved into k equal panels,
    and the call returns (sum K_i, k B(w/2k) + 50 eps |sum K_i|,
    15 (k + 1)).  So a call evaluates at most 65 panels.  B ignores where
    a panel lies, so 64 panels span at most ~270 sigma at tol 1e-12 of the
    mass over a period (220 at 2e-14): a period at kappa <= 1,000, and 20
    sigma in the CDF sweep.  Returns (0.0, 0.0, 0) when b <= a.  Raises
    QuadratureError once a rule's rounding allowance alone reaches tol:
    Gauss-7's (panels=0; K's would be about the same) or K's (B is not
    computed); before the k panels run when 64 panels are not enough; and
    after them when their error is past tol.
    """
    if b <= a:
        return 0.0, 0.0, 0
    m = -2.0 * kappa
    w = b - a
    s = w * w * (2.0 * kappa if kappa > 0.5 else 1.0)
    k = 1
    if s <= _G7_WIDTH2:
        val = _vm_gauss7(m, a, b)
        rounding = _ROUNDING * val
        err = _G7_ERROR * w + rounding
        if err <= tol:
            return val, err, 7
        if rounding >= tol:  # K's allowance, about the same, fails too
            k = 0
    if k:
        val = _vm_panel(m, a, b)
        rounding = _ROUNDING * val
        err = _K15_ERROR * w + rounding if s <= _K15_WIDTH2 else math.inf
        if err > tol:  # B(w/2), k = 1 of the search below, unless rounding alone fails
            bound = _vm_kronrod_bound(kappa, 0.5 * w) if kappa > 0.0 and rounding < tol else 0.0
            err = bound + rounding
        if err <= tol:
            return val, err, 15
    while rounding < tol < err and k < 64:
        k *= 2
        bound = _vm_kronrod_bound(kappa, w / (2 * k))
        err = k * bound + rounding
    if err <= tol:
        cuts = [a, b]
        while len(cuts) <= k:
            cuts[1:] = [c for lo, hi in zip(cuts, cuts[1:]) for c in (0.5 * (lo + hi), hi)]
        val = 0.0
        for lo, hi in zip(cuts, cuts[1:]):
            val += _vm_panel(m, lo, hi)
        err = k * bound + _ROUNDING * val
        if err <= tol:
            return val, err, 15 * (k + 1)
    raise QuadratureError(
        "no convergence on [%r, %r] (panels=%d, err=%.3e, rounding=%.3e, tol=%.3e)"
        % (a, b, k, err, rounding, tol)
    )


def wn_density_at(t, v, kmax):
    """Wrapped-normal lattice sum at wrapped offset t with scale v.

    Sums the normal density over wraps k = -kmax..kmax; the caller picks
    kmax from a Gaussian tail bound.
    """
    inv_v = 1.0 / v
    s = 0.0
    k = -kmax
    while k <= kmax:
        z = (t + TWO_PI * k) * inv_v
        s += math.exp(-0.5 * (z * z))
        k += 1
    return s * (INV_SQRT_2PI * inv_v)
