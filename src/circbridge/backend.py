"""Compute kernels: the package's hot numerical loops.

The one per-concentration kernel (a trapezoid sum that gives
e^-kappa I0(kappa) and the circular variance together), adaptive GK15
quadrature of the concentrated circular density (by width w and s = w^2
max(2 kappa, 1), in rule order: Gauss-7 alone at s <= C = 0.49, error
c eps w + 50 eps |value|, c = 0.02; one Kronrod panel at s <= C = 9, within
+-3 sigma, passing on |K - G| or on beta w + 50 eps |value|, beta = 3e-13;
else bisection, a panel passing on |K - G| or an ellipse bound) and the
wrapped-normal lattice sum.
Plain Python.  The I0 power series `i0_series_sum`, the `sigma2_series`
alias and `backend_name` remain only because the benchmark reads them.
"""

import functools
import math
import sys

TWO_PI = 2.0 * math.pi
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

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
# (node, Kronrod weight, Gauss weight) of the off-centre node pairs, for
# `_vm_panel`; the Gauss weight is 0.0 at the Kronrod-only pairs.
_VM_NODES = tuple(zip(_XGK[:7], _WGK[:7], (0.0, _WG[0], 0.0, _WG[1], 0.0, _WG[2], 0.0)))
_G7_NODES = tuple(zip(_XGK[1:7:2], _WG[:3]))  # the Gauss pairs, for `_vm_gauss7`
# `vm_scaled_mass`'s narrow rule (C, c eps), Kronrod class (C, beta) and
# rounding allowance per |value|
_G7_WIDTH2, _G7_ERROR = 0.49, 0.02 * sys.float_info.epsilon
_K15_WIDTH2, _K15_ERROR = 9.0, 3e-13
_ROUNDING = 50.0 * sys.float_info.epsilon

# Bisection depth at which a panel that still fails its tolerance raises
# QuadratureError instead of splitting again.
MAX_DEPTH = 40
# Panels one `vm_scaled_mass` call may evaluate before it raises
# QuadratureError.  Near the panels' rounding noise some pass and others
# fail, and a depth-first walk to MAX_DEPTH could visit ~2^40; no call in
# the tests takes more than 759, none in the benchmark workloads over one.
MAX_PANELS = 10000


class QuadratureError(ArithmeticError):
    """Raised when adaptive refinement cannot reach the requested tolerance."""


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


@functools.lru_cache(maxsize=4096)
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
    """e^(-kappa) I0(kappa) and the circular variance 1 - I1(kappa)/I0(kappa).

    With s = sin(t/2), both come from one positive periodic integrand:
    e^-kappa I0 = (1/pi) int_0^pi e^(-2 kappa s^2) dt, and the variance is
    int 2 s^2 e^(-2 kappa s^2) dt over int e^(-2 kappa s^2) dt.  Both are
    summed by the trapezoid rule on n = ceil(sqrt(24 kappa)) + 4 panels of
    [0, pi], from t = 0 outwards, until a term falls below _TRAPEZOID_EPS
    of the running sum.  For a periodic analytic integrand the rule
    converges exponentially: the aliasing error is about e^(-2 n^2 / kappa),
    below e^-48, and every term is positive, so nothing cancels.  The s^2
    at the nodes depend on n alone and come from `_sin2_nodes(n)`, a table
    kept for the last 4096 n (~0.4 kB each).  It holds every interior
    node for n <= 28, and for n >= 29 the nodes j = 1 .. 23, one past the
    last the sum then reaches: it stops by j = 22 (checked at the smallest
    kappa of every n in 29..20,000: 22 at n = 29, 15 for large n; within
    one n a larger kappa stops no later).  At most 28 nodes are summed
    for any kappa.  Raises ValueError unless
    0 <= kappa <= _KAPPA_MAX (about 9e307).
    """
    if not (0.0 <= kappa <= _KAPPA_MAX):
        raise ValueError("kappa must be finite, >= 0 and <= %r, got %r" % (_KAPPA_MAX, kappa))
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
    return s0 / n, 2.0 * s1 / s0


# perfbench/tracing.py traces the per-kappa kernel under its former name;
# the next change to the benchmark drops this alias.
sigma2_series = i0e_sigma2


def _vm_panel(m, a, b):
    """One Kronrod-15 panel of exp(m * sin(t/2)^2) over [a, b], a < b.

    Returns (kronrod, |kronrod - gauss|) from one loop over _VM_NODES.
    The integrand lies in (0, 1], so a Kronrod-only pair adds 0.0 * fsum = +0.0 to the Gauss sum, which
    leaves its value and its summation order as they were.
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    u = math.sin(0.5 * c)
    fc = math.exp(m * (u * u))
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for x, wk, wg in _VM_NODES:
        dx = h * x
        u = math.sin(0.5 * (c - dx))
        f1 = math.exp(m * (u * u))
        u = math.sin(0.5 * (c + dx))
        f2 = math.exp(m * (u * u))
        fsum = f1 + f2
        resk += wk * fsum
        resg += wg * fsum
    return resk * h, abs(resk - resg) * h


def _vm_gauss7(m, a, b):
    """`_vm_panel`'s Gauss-7 value of exp(m * sin(t/2)^2) over [a, b] alone."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    u = math.sin(0.5 * c)
    res = _WG[3] * math.exp(m * (u * u))
    for x, wg in _G7_NODES:
        u = math.sin(0.5 * (c - h * x))
        v = math.sin(0.5 * (c + h * x))
        res += wg * (math.exp(m * (u * u)) + math.exp(m * (v * v)))
    return res * h


def _vm_kronrod_bound(kappa, h, val):
    """`vm_scaled_mass`'s ellipse bound; inf where M rho^-24 >= 1 or rho = 1."""
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
    bound = 8.014 * h * math.exp(expo) / -math.expm1(-2.0 * lnrho)
    return bound + _ROUNDING * val


def vm_scaled_mass(kappa, a, b, tol):
    """Adaptive integral of exp(-2 kappa sin(t/2)^2) over [a, b].

    The integrand is the circular normal density scaled to peak value one,
    so nothing overflows at any concentration.  Three routes, in order, by
    the width w and s = w^2 max(2 kappa, 1).  First, s <= 0.49 (C) takes
    Gauss-7 alone, which the ellipse bound below (rho^-14) puts under
    c eps w, c = 0.02 (0.0166 eps w at worst): when c eps w + 50 eps |value|
    meets tol, it returns (value, that error, 7).  Second, s <= 9 (C; +-3
    sigma at large kappa, 3 rad for kappa <= 1/2) evaluates one `_vm_panel`
    with no stack and returns (K, |K - G|, 15), or else (K, beta w + 50 eps
    |K|, 15), when that meets tol.  beta = 3e-13 is above twice the Kronrod
    bound below per unit width over the whole class (2.6e-13 at worst, at
    kappa = 1/2 and w = 3), so the loop would accept that panel too; one
    that fails both is the loop's first panel, not evaluated again.  Third,
    adaptive bisection on `_vm_panel`, every panel popped from one
    depth-first stack (so it holds at most MAX_DEPTH + 1), accepts a panel
    whose error estimate meets the local tolerance, halved at every split.
    The estimate is |K - G|, or where that fails and kappa > 0, the smaller
    of it and twice a bound on K's own error plus 50 eps |K| for rounding:
    the integrand is entire and at most M = exp(2 kappa sinh(y/2)^2) on the
    Bernstein ellipse of half-height y, ln rho = asinh(y/h), where K15
    (degree 23, positive weights) errs by at most 4.007 h M rho^-24 /
    (1 - rho^-2) (Trefethen 2008, Thm 4.5); y takes three fixed-point steps
    towards its minimiser, capped at 30.  Returns (value, error_estimate,
    evaluations), (0.0, 0.0, 0) when b <= a.  Raises QuadratureError when
    a panel at depth MAX_DEPTH still fails, or after MAX_PANELS panels, so
    a tolerance the panels cannot meet fails loudly and soon.
    """
    if b <= a:
        return 0.0, 0.0, 0
    m = -2.0 * kappa
    w = b - a
    s = w * w * (2.0 * kappa if kappa > 0.5 else 1.0)
    if s <= _G7_WIDTH2:
        val = _vm_gauss7(m, a, b)
        err = _G7_ERROR * w + _ROUNDING * val
        if err <= tol:
            return val, err, 7
    first = None
    if s <= _K15_WIDTH2:
        first = val, err = _vm_panel(m, a, b)
        if err <= tol:
            return val, err, 15
        err = _K15_ERROR * w + _ROUNDING * val
        if err <= tol:
            return val, err, 15
    stack = [(a, b, tol, 0)]
    total = 0.0
    err_total = 0.0
    panels = 0
    while stack:
        a1, b1, tol1, depth = stack.pop()
        val, err = first or _vm_panel(m, a1, b1)
        first = None
        panels += 1
        if err > tol1 and kappa > 0.0:
            err = min(err, _vm_kronrod_bound(kappa, 0.5 * (b1 - a1), val))
        if err <= tol1:
            total += val
            err_total += err
        elif depth >= MAX_DEPTH:
            raise QuadratureError(
                "no convergence on [%r, %r] at depth %d (err=%.3e, tol=%.3e)"
                % (a1, b1, depth, err, tol1)
            )
        elif panels >= MAX_PANELS:
            raise QuadratureError(
                "no convergence on [%r, %r] within %d panels (err=%.3e, tol=%.3e)"
                % (a1, b1, MAX_PANELS, err, tol1)
            )
        else:
            mid = 0.5 * (a1 + b1)
            half = 0.5 * tol1
            stack.append((mid, b1, half, depth + 1))
            stack.append((a1, mid, half, depth + 1))
    return total, err_total, 15 * panels


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
