"""Compute kernels: the package's hot numerical loops.

The I0 power series, the circular-variance series ratio, the asymptotic
bracket polynomials, the 15-point Gauss-Kronrod rule with its adaptive
bisection, quadrature of the concentrated circular density, and the
wrapped-normal lattice and Fourier sums.  Plain Python; there is nothing to compile.
"""

import math

TWO_PI = 2.0 * math.pi
INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)
HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# Series terms below this fraction of the running sum no longer move a double.
_TERM_EPS = 1e-17
_MAX_TERMS = 200000

# Block-rescaling bound for the unnormalized series ratio; powers of two
# keep the rescaling exact.
_RESCALE_LIMIT = 1e250
_RESCALE_FACTOR = 2.0 ** -512

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

# Bisection depth at which a panel that still fails its tolerance raises
# QuadratureError instead of splitting again.
MAX_DEPTH = 40


class QuadratureError(ArithmeticError):
    """Raised when adaptive refinement cannot reach the requested tolerance."""


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


def sigma2_series(x):
    """Circular variance 1 - I1(x)/I0(x) from the two power series.

    The numerator I0 - I1 is accumulated term by term with compensated
    summation, because forming the ratio first and subtracting from one
    would lose all significant digits for large x.  Accumulators are
    rescaled by an exact power of two before they can overflow, and the
    scale cancels in the final division, so any x > 0 is accepted.
    """
    q = 0.25 * x * x
    t0 = 1.0
    t1 = 0.5 * x
    s = 1.0
    sc = 0.0
    d = 1.0 - t1
    dc = 0.0
    k = 1
    while True:
        t0 *= q / (k * k)
        t1 *= q / (k * (k + 1))
        y = t0 - sc
        tt = s + y
        sc = (tt - s) - y
        s = tt
        e = t0 - t1
        y = e - dc
        tt = d + y
        dc = (tt - d) - y
        d = tt
        if t0 <= _TERM_EPS * s and (k + 1) > 0.5 * x:
            return d / s
        if k >= _MAX_TERMS:
            raise ArithmeticError("circular-variance series did not converge")
        if t0 > _RESCALE_LIMIT:
            t0 *= _RESCALE_FACTOR
            t1 *= _RESCALE_FACTOR
            s *= _RESCALE_FACTOR
            sc *= _RESCALE_FACTOR
            d *= _RESCALE_FACTOR
            dc *= _RESCALE_FACTOR
        k += 1


def i0e_asym_bracket(x, order):
    """Large-argument bracket of sqrt(2 pi x) e^(-x) I0(x), truncated."""
    u = 1.0 / x
    b = 1.0
    if order >= 1:
        b += 0.125 * u
    if order >= 2:
        b += 0.0703125 * (u * u)
    if order >= 3:
        b += 0.0732421875 * (u * u * u)
    return b


def i1e_asym_bracket(x, order):
    """Large-argument bracket of sqrt(2 pi x) e^(-x) I1(x), truncated."""
    u = 1.0 / x
    b = 1.0
    if order >= 1:
        b -= 0.375 * u
    if order >= 2:
        b -= 0.1171875 * (u * u)
    if order >= 3:
        b -= 0.1025390625 * (u * u * u)
    return b


def gk15_panel(f, a, b):
    """One Kronrod-15 panel of f over [a, b], a < b.

    Returns (kronrod, |kronrod - gauss|).
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for i in range(7):
        dx = h * _XGK[i]
        fsum = f(c - dx) + f(c + dx)
        resk += _WGK[i] * fsum
        if i & 1:
            resg += _WG[i >> 1] * fsum
    return resk * h, abs(resk - resg) * h


def _vm_panel(m, a, b):
    """`gk15_panel` of exp(m * sin(t/2)^2), with the integrand in line."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    u = math.sin(0.5 * c)
    fc = math.exp(m * (u * u))
    resk = _WGK[7] * fc
    resg = _WG[3] * fc
    for i in range(7):
        dx = h * _XGK[i]
        u = math.sin(0.5 * (c - dx))
        f1 = math.exp(m * (u * u))
        u = math.sin(0.5 * (c + dx))
        f2 = math.exp(m * (u * u))
        fsum = f1 + f2
        resk += _WGK[i] * fsum
        if i & 1:
            resg += _WG[i >> 1] * fsum
    return resk * h, abs(resk - resg) * h


def adaptive_gk15(panel, f, a, b, tol):
    """Adaptive bisection of [a, b] on 15-point Kronrod panels, a < b.

    `panel(f, lo, hi)` returns (estimate, error estimate) for one panel.
    A panel is accepted when its error estimate meets the local
    tolerance, which is halved at every split.  Returns (value,
    error_estimate, evaluations); raises QuadratureError when a panel at
    depth MAX_DEPTH still fails, so a tolerance the panels cannot meet
    fails loudly.  The stack is depth-first, so it never holds more than
    MAX_DEPTH + 1 panels.
    """
    stack = [(a, b, tol, 0)]
    total = 0.0
    err_total = 0.0
    evals = 0
    while stack:
        a1, b1, tol1, depth = stack.pop()
        val, err = panel(f, a1, b1)
        evals += 15
        if err <= tol1:
            total += val
            err_total += err
        elif depth >= MAX_DEPTH:
            raise QuadratureError(
                "no convergence on [%g, %g] at depth %d (err=%.3e, tol=%.3e)"
                % (a1, b1, depth, err, tol1)
            )
        else:
            mid = 0.5 * (a1 + b1)
            half = 0.5 * tol1
            stack.append((mid, b1, half, depth + 1))
            stack.append((a1, mid, half, depth + 1))
    return total, err_total, evals


def vm_scaled_mass(kappa, a, b, tol):
    """Adaptive integral of exp(-2 kappa sin(t/2)^2) over [a, b].

    The integrand is the circular normal density scaled to peak value one,
    so nothing overflows at any concentration.  Returns (value,
    error_estimate, evaluations), (0.0, 0.0, 0) when b <= a; raises
    QuadratureError as `adaptive_gk15` does.
    """
    if b <= a:
        return 0.0, 0.0, 0
    return adaptive_gk15(_vm_panel, -2.0 * kappa, a, b, tol)


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


def wn_fourier_at(t, v, pmax):
    """Wrapped-normal Fourier (theta) series at wrapped offset t with scale v.

    (1/2pi)(1 + 2 sum over p = 1..pmax of e^(-v^2 p^2 / 2) cos(p t)),
    smallest terms first; the caller picks pmax from the tail bound.
    """
    h = -0.5 * v * v
    s = 0.0
    for p in range(pmax, 0, -1):
        s += math.exp(h * (p * p)) * math.cos(p * t)
    return (1.0 + 2.0 * s) / TWO_PI
