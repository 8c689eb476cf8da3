"""Reference implementations that tests compare the package against.

Compensated scaled power series for e^(-x) I0(x) and e^(-x) I1(x), run
to twice the term count needed for convergence; they are the high-trust
references for the Bessel code and the circular variance.
`adaptive_quadrature` integrates any integrand by adaptive bisection on
the generic 15-point Gauss-Kronrod panel `gk15_panel`; the tests take
integrals, normalizations and moments with it, and `bessel_i0_integral`
gives I0 from its integral representation with it.
`matched_sup_gap_full_grid` evaluates the density gap at every grid
offset on [0, pi], the reference for `matched_sup_gap`'s outward walk,
and `vm_cdf_sweep_every_segment` integrates every segment of the CDF
sweep, the reference for the sweep's stop at its 20 sigma reach.
`vm_scaled_mass_stack_only` is the quadrature of the CDF sweep written
as the generic stack driver over an index-loop panel, the reference that
`backend.vm_scaled_mass` and its node-table loop `backend._vm_panel`
must match bit for bit; `kronrod_ellipse_bound` is its second error
bound, the one that certifies a panel whose Gauss/Kronrod estimate fails,
`narrow_gauss7` its narrow rule on the Gauss half of `gk15_panel`,
`gauss7_panel`, whose error `gauss7_ellipse_bound` bounds, and
`kronrod_class` the one `gk15_panel` it certifies before its loop.
MPMATH_KAPPAS are the concentrations at which the per-kappa values are
checked against mpmath.
"""

import math
from dataclasses import dataclass
from typing import Callable

from circbridge import backend
from circbridge.distributions import (
    SQRT2,
    TWO_PI,
    _require_tol,
    _vm_density_value,
    _wn_tail_reach,
    _wn_wraps,
    wrap_angle,
)

_EPS = 2.0 ** -52

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


def matched_sup_gap_full_grid(params, grid_size: int, tol: float) -> float:
    """`matched_sup_gap` by evaluating both densities at every grid offset
    on [0, pi], j = 0 .. grid_size // 2, with no stopping test."""
    v = SQRT2 * params.sigma
    reach = _wn_tail_reach(v, tol)
    step = TWO_PI / grid_size
    sup = 0.0
    for j in range(grid_size // 2 + 1):
        t = wrap_angle(j * step)
        g = backend.wn_density_at(t, v, _wn_wraps(t, reach))
        gap = abs(_vm_density_value(params.kappa, params.i0e, t) - g)
        if gap > sup:
            sup = gap
    return sup


def vm_cdf_sweep_every_segment(params, xs, tol: float):
    """`vm_cdf_sweep` integrating every segment, those past 20 sigma too.

    xs must lie in the principal window (mu - pi, mu + pi] and tol must be
    valid; neither is checked here.
    """
    ts = [x - params.mu for x in xs]
    reach = min(math.pi, 20.0 * params.sigma)
    offsets = {0.0, *map(abs, ts)}
    if max(offsets) > reach:
        offsets.add(reach)
    cuts = sorted(offsets)
    inv_norm = 1.0 / (2.0 * math.pi * params.i0e)
    seg_tol = tol / inv_norm / max(len(cuts) - 1, 1)
    half = {0.0: 0.0}
    mass = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        part, _err, _n = backend.vm_scaled_mass(params.kappa, lo, hi, seg_tol)
        mass += part
        half[hi] = inv_norm * mass
    return [0.5 - half[-t] if t < 0.0 else 0.5 + half[t] for t in ts]


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


def gk15_panel(f, a, b):
    """One Kronrod-15 panel of f over [a, b], a < b.

    Returns (kronrod, |kronrod - gauss|).
    """
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    fc = f(c)
    resk = backend._WGK[7] * fc
    resg = backend._WG[3] * fc
    for i in range(7):
        dx = h * backend._XGK[i]
        fsum = f(c - dx) + f(c + dx)
        resk += backend._WGK[i] * fsum
        if i & 1:
            resg += backend._WG[i >> 1] * fsum
    return resk * h, abs(resk - resg) * h


def adaptive_quadrature(
    f: Callable[[float], float], a: float, b: float, tol: float
) -> QuadratureResult:
    """Integrate f over [a, b] to absolute tolerance tol.

    Adaptive bisection on 15-point Kronrod panels; each panel is accepted
    when its embedded Gauss/Kronrod error estimate meets the local
    tolerance, which is halved at every split.  Raises QuadratureError if
    a panel at bisection depth `backend.MAX_DEPTH` (40) still fails its
    tolerance.
    """
    if not (a < b):
        raise ValueError("need a < b, got a=%r b=%r" % (a, b))
    _require_tol(tol)
    value, err, evals = adaptive_gk15_stack_only(gk15_panel, f, a, b, tol)
    return QuadratureResult(value=value, abs_error_estimate=err, evaluations=evals)


def adaptive_gk15_stack_only(panel, f, a, b, tol, certify=None):
    """Adaptive bisection of [a, b] on `panel(f, lo, hi)`, which returns
    (estimate, error estimate), with every panel, the first too, popped
    from a depth-first stack as in `backend.vm_scaled_mass`, for any
    panel.  When a panel's estimate fails its tolerance and `certify` is
    given, `certify(lo, hi, estimate)` is a second error bound and the
    smaller of the two is the panel's.  It has no panel budget, so the
    tests give it only calls that take far fewer panels than
    `backend.MAX_PANELS`."""
    stack = [(a, b, tol, 0)]
    total = 0.0
    err_total = 0.0
    evals = 0
    while stack:
        a1, b1, tol1, depth = stack.pop()
        val, err = panel(f, a1, b1)
        evals += 15
        if err > tol1 and certify is not None:
            err = min(err, certify(a1, b1, val))
        if err <= tol1:
            total += val
            err_total += err
        elif depth >= backend.MAX_DEPTH:
            raise backend.QuadratureError(
                "no convergence on [%r, %r] at depth %d (err=%.3e, tol=%.3e)"
                % (a1, b1, depth, err, tol1)
            )
        else:
            mid = 0.5 * (a1 + b1)
            half = 0.5 * tol1
            stack.append((mid, b1, half, depth + 1))
            stack.append((a1, mid, half, depth + 1))
    return total, err_total, evals


def vm_panel_index_loop(m, a, b):
    """`backend._vm_panel` as an index loop over the node arrays, adding to
    the Gauss sum at the odd indices only."""
    xgk, wgk, wg = backend._XGK, backend._WGK, backend._WG
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    u = math.sin(0.5 * c)
    fc = math.exp(m * (u * u))
    resk = wgk[7] * fc
    resg = wg[3] * fc
    for i in range(7):
        dx = h * xgk[i]
        u = math.sin(0.5 * (c - dx))
        f1 = math.exp(m * (u * u))
        u = math.sin(0.5 * (c + dx))
        f2 = math.exp(m * (u * u))
        fsum = f1 + f2
        resk += wgk[i] * fsum
        if i & 1:
            resg += wg[i >> 1] * fsum
    return resk * h, abs(resk - resg) * h


def kronrod_ellipse_certificate(kappa, h, estimate):
    """The Bernstein-ellipse certificate `backend.vm_scaled_mass` applies
    to a failing panel of half-width h of exp(kappa (cos t - 1)),
    kappa > 0, with the K15 value `estimate`, written from the bound
    itself and doing the same float operations.

    On the panel's map to [-1, 1], the Bernstein ellipse E_rho of
    half-height y in t has ln rho = asinh(y / h), and there
    |exp(kappa (cos z - 1))| <= exp(kappa (cosh y - 1)) = M.  The
    Chebyshev coefficients of the integrand are at most 2 M rho^-k; K15
    is exact to degree 23 and symmetric, with positive weights that sum
    to 2, and the integral of T_k is at most 2 / (k^2 - 1), so the error
    is at most h (2 + 2/575) 2 M sum over even k >= 24 of rho^-k, below
    4.007 h M rho^-24 / (1 - rho^-2).  y is three fixed-point steps, each
    capped at 30, towards the minimiser of kappa (cosh y - 1) - 24 ln rho,
    where kappa sinh y = 24 / hypot(y, h).
    The certificate is twice the bound plus 50 eps of the estimate, and
    inf where the bound is no use: M rho^-24 >= 1, or rho^-2 rounds to 1.
    """
    y = min(math.sqrt(24.0 / kappa), 30.0)
    for _step in range(3):
        y = min(math.asinh(24.0 / (kappa * math.hypot(y, h))), 30.0)
    log_rho = math.asinh(y / h)
    sinh_half = math.sinh(0.5 * y)
    log_m = 2.0 * kappa * (sinh_half * sinh_half)  # kappa (cosh y - 1)
    log_m_rho24 = log_m - 24.0 * log_rho
    one_minus_rho_m2 = -math.expm1(-2.0 * log_rho)
    if not (log_m_rho24 < 0.0 and one_minus_rho_m2 > 0.0):
        return math.inf
    bound = (2.0 * 4.007) * h * math.exp(log_m_rho24) / one_minus_rho_m2
    return bound + (50.0 * _EPS) * estimate


def kronrod_ellipse_bound(kappa):
    """`kronrod_ellipse_certificate` at kappa as a `certify(lo, hi,
    estimate)` for `adaptive_gk15_stack_only`."""

    def certify(lo, hi, estimate):
        return kronrod_ellipse_certificate(kappa, 0.5 * (hi - lo), estimate)

    return certify


def gauss7_panel(f, a, b):
    """The 7-point Gauss rule embedded in `gk15_panel`, alone: its value
    of the integral of f over [a, b], a < b."""
    c = 0.5 * (a + b)
    h = 0.5 * (b - a)
    resg = backend._WG[3] * f(c)
    for i in (1, 3, 5):
        dx = h * backend._XGK[i]
        resg += backend._WG[i >> 1] * (f(c - dx) + f(c + dx))
    return resg * h


def gauss7_ellipse_bound(kappa, h):
    """A bound on the error of `gauss7_panel` for exp(kappa (cos t - 1)),
    kappa >= 0, on a panel of half-width h.

    Gauss-Legendre with n = 7 points errs by at most
    (64/15) M rho^-14 / (rho^2 - 1) on [-1, 1] (Trefethen 2008, Thm 4.5),
    h times that on the panel, with M and rho as in
    `kronrod_ellipse_certificate`; y is three fixed-point steps, each
    capped at 30, towards kappa sinh y = 14 / hypot(y, h), and 30 at
    kappa = 0, where M = 1.  Any y > 0 gives a valid bound.
    """
    y = 30.0
    if kappa > 0.0:
        y = min(math.sqrt(14.0 / kappa), 30.0)
        for _step in range(3):
            y = min(math.asinh(14.0 / (kappa * math.hypot(y, h))), 30.0)
    log_rho = math.asinh(y / h)
    sinh_half = math.sinh(0.5 * y)
    log_m = 2.0 * kappa * (sinh_half * sinh_half)
    # rho^-14 / (rho^2 - 1) = rho^-16 / (1 - rho^-2)
    return (64.0 / 15.0) * h * math.exp(log_m - 16.0 * log_rho) / -math.expm1(-2.0 * log_rho)


# `backend.vm_scaled_mass`'s narrow rule: an interval of width w with
# w^2 max(2 kappa, 1) <= NARROW_WIDTH2 takes `gauss7_panel` alone, with
# the error NARROW_ERROR_PER_WIDTH eps w + 50 eps |value|, when that
# meets tol.
NARROW_WIDTH2 = 0.49
NARROW_ERROR_PER_WIDTH = 0.02


def rule_width(kappa, width2):
    """The widest float w with w^2 max(2 kappa, 1) <= width2 as
    `backend.vm_scaled_mass` rounds it: the edge of the narrow rule
    (NARROW_WIDTH2) or of the Kronrod class (KRONROD_CLASS_WIDTH2)."""
    scale = max(2.0 * kappa, 1.0)
    w = math.sqrt(width2 / scale)
    while w * w * scale > width2:
        w = math.nextafter(w, 0.0)
    while (up := math.nextafter(w, math.inf)) * up * scale <= width2:
        w = up
    return w


def narrow_gauss7(kappa, f, a, b, tol):
    """(value, error, 7) where `backend.vm_scaled_mass` takes its narrow
    rule on [a, b], a < b, for f the scaled density at kappa; else None."""
    width = b - a
    if not width * width * max(2.0 * kappa, 1.0) <= NARROW_WIDTH2:
        return None
    value = gauss7_panel(f, a, b)
    error = (NARROW_ERROR_PER_WIDTH * _EPS) * width + (50.0 * _EPS) * value
    return (value, error, 7) if error <= tol else None


# `backend.vm_scaled_mass`'s Kronrod class: an interval of width w with
# w^2 max(2 kappa, 1) <= KRONROD_CLASS_WIDTH2 that the narrow rule has not
# settled takes one `gk15_panel`, accepted on |K - G| or else with the
# error KRONROD_CLASS_ERROR_PER_WIDTH w + 50 eps |value|, when either meets
# tol; otherwise that panel is the first of the adaptive loop.
KRONROD_CLASS_WIDTH2 = 9.0
KRONROD_CLASS_ERROR_PER_WIDTH = 3e-13


def kronrod_class(kappa, f, a, b, tol):
    """(value, error, 15) where `backend.vm_scaled_mass` settles [a, b],
    a < b, with its Kronrod class, for f the scaled density at kappa;
    else None.  Call it only where `narrow_gauss7` has given None."""
    width = b - a
    if not width * width * max(2.0 * kappa, 1.0) <= KRONROD_CLASS_WIDTH2:
        return None
    value, estimate = gk15_panel(f, a, b)
    if estimate > tol:
        estimate = KRONROD_CLASS_ERROR_PER_WIDTH * width + (50.0 * _EPS) * value
    return (value, estimate, 15) if estimate <= tol else None


def scaled_density(kappa):
    """exp(-2 kappa sin(t/2)^2), with the float operations of the kernel's panels."""
    m = -2.0 * kappa

    def f(t):
        u = math.sin(0.5 * t)
        return math.exp(m * (u * u))

    return f


def vm_scaled_mass_stack_only(kappa, a, b, tol):
    """`backend.vm_scaled_mass` on the references above."""
    if b <= a:
        return 0.0, 0.0, 0
    f = scaled_density(kappa)
    settled = narrow_gauss7(kappa, f, a, b, tol) or kronrod_class(kappa, f, a, b, tol)
    if settled is not None:
        return settled
    certify = kronrod_ellipse_bound(kappa) if kappa > 0.0 else None
    return adaptive_gk15_stack_only(vm_panel_index_loop, -2.0 * kappa, a, b, tol, certify)


def _sin_per_node_sums(kappa):
    # `backend.i0e_sigma2`'s trapezoid loop as it was before its node
    # table, with a sine per node; returns n, both sums and the node j at
    # which the loop stopped (n when it ran to t = pi)
    n = math.ceil(backend._SQRT24 * math.sqrt(kappa)) + 4
    h = 0.5 * math.pi / n
    m = -2.0 * kappa
    s0 = 0.5
    s1 = 0.0
    for j in range(1, n):
        u = math.sin(j * h)
        u *= u
        f = math.exp(m * u)
        s0 += f
        s1 += u * f
        if f < backend._TRAPEZOID_EPS * s0:
            return n, s0, s1, j
    f = 0.5 * math.exp(m)
    return n, s0 + f, s1 + f, n


def i0e_sigma2_sin_per_node(kappa):
    """`backend.i0e_sigma2` computing sin(j h) at every node, as it did
    before `backend._sin2_nodes`; kappa is not checked."""
    n, s0, s1, _stop = _sin_per_node_sums(kappa)
    return s0 / n, 2.0 * s1 / s0


def sin_per_node_stop(kappa):
    """The node j at which `i0e_sigma2_sin_per_node(kappa)` stops, n when
    it sums every node."""
    return _sin_per_node_sums(kappa)[3]


def smallest_kappa_of_nodes(n):
    """The smallest float kappa at which `backend.i0e_sigma2` takes n
    panels, n >= 4 (n = 4 only at kappa = 0)."""

    def nodes(kappa):
        return math.ceil(backend._SQRT24 * math.sqrt(kappa)) + 4

    kappa = ((n - 5) / backend._SQRT24) ** 2 if n > 5 else 0.0
    while nodes(kappa) < n:
        kappa = math.nextafter(kappa, math.inf)
    while kappa > 0.0 and nodes(math.nextafter(kappa, 0.0)) >= n:
        kappa = math.nextafter(kappa, 0.0)
    assert nodes(kappa) == n
    return kappa
