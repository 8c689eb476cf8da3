"""Independent brute-force references and error-order scan machinery.

Everything the expansions are validated against lives here: adaptive
Gauss-Kronrod quadrature of any integrand (on the kernels' GK15 engine),
the integral representation of I0, a compensated scaled-series reference
for the Bessel brackets, quadrature of the circular distribution
function, residual scans over the bulk, and the log-log slope fit used
to measure decay orders.
"""

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from . import backend
from .backend import QuadratureError  # re-exported: raised by the integrator
from .distributions import SQRT2, VonMisesParams, _require_tol
from .expansions import (
    BulkSpec,
    cdf_expansion,
    log_ratio_exact,
    log_ratio_expansion,
    ratio_expansion,
)

# Residuals below this are floating-point noise and are excluded from
# slope fits.
RESIDUAL_FLOOR = 1e-14

SCAN_TARGETS = ("log_ratio", "ratio", "cdf")
_ENVELOPE_POWER = {"log_ratio": 8, "ratio": 12, "cdf": 11}

@dataclass(frozen=True)
class QuadratureResult:
    value: float
    abs_error_estimate: float
    evaluations: int


@dataclass(frozen=True)
class ScanReport:
    """Per-concentration residual maxima and the fitted decay slope."""

    kappa_values: Tuple[float, ...]
    max_residual: Tuple[float, ...]
    max_normalized_residual: Tuple[float, ...]
    fitted_slope: float
    grid_size: int
    regime: BulkSpec


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
    value, err, evals = backend.adaptive_gk15(backend.gk15_panel, f, a, b, tol)
    return QuadratureResult(value=value, abs_error_estimate=err, evaluations=evals)


def bessel_i0_integral(kappa: float, tol: float = 1e-13) -> float:
    """I0(kappa) from its integral representation (1/pi) int_0^pi e^(kappa cos t) dt.

    Deliberately independent of the power series.  The integrand is
    evaluated in the scaled form e^(kappa(cos t - 1)) and rescaled at the
    end, which restricts kappa to at most 700 before e^kappa overflows.
    tol is relative.
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


def _kahan_series(t0: float, ratio_num: Callable[[int], float]) -> float:
    # Compensated summation, run to twice the term count needed for
    # convergence; serves as the high-trust series reference.
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


def vm_cdf_sweep(
    params: VonMisesParams, xs: Sequence[float], tol: float = 1e-12
) -> List[float]:
    """Circular distribution function at ascending points, in one pass.

    F(x) = integral of the density from mu - pi to x, for each x of xs,
    which must be non-decreasing and lie in the principal window
    (mu - pi, mu + pi].  The window is cut at every point and at the
    anchors -20 sigma, 0 and +20 sigma (offsets from mu) below the last
    point; each segment is integrated once and the values are running
    sums, so the work grows with the number of points plus three rather
    than with their product.  tol is absolute and holds for every value:
    each of the n segments is integrated to tol / n.  For very
    concentrated laws (kappa >= 1e4) the integration starts at -20 sigma
    when the first point lies above it; the omitted tail is below e^(-40)
    of the total mass.  Values are not clamped to [0, 1], so towards
    mu + pi they may exceed 1 by up to tol.
    """
    _require_tol(tol)
    if len(xs) == 0:
        raise ValueError("xs must not be empty")
    mu = params.mu
    t0 = xs[0] - mu
    for t in (t0, xs[-1] - mu):
        if not (-math.pi < t <= math.pi):
            raise ValueError(
                "x must lie in the principal window (mu - pi, mu + pi], got offset %r" % (t,)
            )
    # essentially all mass lies within 20 sigma of the mode; the tail
    # envelope exp(kappa(cos t - 1)) <= exp(-kappa t^2 / 5) puts the
    # remainder below e^-40
    reach = min(math.pi, 20.0 * params.variance.sigma)
    a = -math.pi
    if params.kappa >= 1e4 and t0 > -reach:
        a = -reach
    # anchor the subdivision at the mode and the mass boundary so the
    # first panel of a wide segment cannot step over the peak; merge the
    # anchors into the points, dropping any that repeat a cut
    anchors = (-reach, 0.0, reach)
    cuts = [a]
    ends = []  # index into cuts of each point
    k = 0
    prev = xs[0]
    for x in xs:
        if not (prev <= x):
            raise ValueError("xs must be ascending, got %r after %r" % (x, prev))
        prev = x
        t = x - mu
        while k < 3 and anchors[k] < t:
            if anchors[k] > cuts[-1]:
                cuts.append(anchors[k])
            k += 1
        if t > cuts[-1]:
            cuts.append(t)
        ends.append(len(cuts) - 1)
    inv_norm = 1.0 / (2.0 * math.pi * params.i0e)
    seg_tol = tol / inv_norm / (len(cuts) - 1)
    kappa = params.kappa
    masses = [0.0]
    mass = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        part, _err, _n = backend.vm_scaled_mass(kappa, lo, hi, seg_tol)
        mass += part
        masses.append(mass)
    return [inv_norm * masses[i] for i in ends]


def vm_cdf_quadrature(params: VonMisesParams, x: float, tol: float = 1e-12) -> float:
    """Circular distribution function at one point: `vm_cdf_sweep` of (x,).

    x must lie in the principal window (mu - pi, mu + pi]; tol is
    absolute, and the value may exceed 1 by up to tol towards mu + pi.
    """
    return vm_cdf_sweep(params, (x,), tol)[0]


def slope_fit(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x).

    Needs at least three points with distinct positive abscissae and
    positive ordinates.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 points, got %d" % len(points))
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if len(set(xs)) != len(xs):
        raise ValueError("abscissae must be distinct")
    if any(x <= 0.0 for x in xs) or any(y <= 0.0 for y in ys):
        raise ValueError("slope fit needs positive coordinates")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(points)
    mx = sum(lx) / n
    my = sum(ly) / n
    sxx = sum((v - mx) ** 2 for v in lx)
    sxy = sum((u - mx) * (v - my) for u, v in zip(lx, ly))
    return sxy / sxx


def _scan_residual(target, params, x, cdf_quad):
    # cdf_quad is F(x) by quadrature, read only for the cdf target
    dt = ((x - params.mu) / params.variance.sigma) / SQRT2
    if target == "log_ratio":
        exact = log_ratio_exact(params, x)
        approx = log_ratio_expansion(dt, params.kappa, 2).value
        return abs(exact - approx)
    if target == "ratio":
        exact = math.exp(log_ratio_exact(params, x))
        approx = ratio_expansion(dt, params.kappa, 2).value
        return abs(exact - approx)
    approx = cdf_expansion(dt, params.kappa).value
    return abs(cdf_quad - approx)


def residual_scan(
    regime: BulkSpec,
    kappa_values: Sequence[float],
    grid_size: int,
    target: str,
    quad_tol: float = 1e-13,
) -> ScanReport:
    """Exact-versus-expansion residuals over the bulk for each concentration.

    The laws are centred at mu = 0 (the residuals depend on x - mu only).
    For every kappa the residual of the chosen target is evaluated on an
    odd equispaced delta_tilde grid spanning the bulk; the report records
    the maximum residual, the maximum residual normalized by the envelope
    (1 + |dt|^p)/kappa^3, and the log-log slope across kappa of the
    residual at fixed delta_tilde = 1 (points below RESIDUAL_FLOOR are
    dropped from the fit as floating-point noise).
    """
    if target not in SCAN_TARGETS:
        raise ValueError("target must be one of %s, got %r" % (SCAN_TARGETS, target))
    if len(kappa_values) == 0:
        raise ValueError("kappa_values must not be empty")
    if any(not (k > 0.0) for k in kappa_values):
        raise ValueError("all kappa values must be > 0")
    if grid_size < 11 or grid_size % 2 == 0:
        raise ValueError("grid_size must be odd and >= 11, got %r" % (grid_size,))
    power = _ENVELOPE_POWER[target]
    half = (grid_size - 1) // 2
    max_res: List[float] = []
    max_norm: List[float] = []
    slope_points: List[Tuple[float, float]] = []
    for kappa in kappa_values:
        params = VonMisesParams(0.0, kappa)
        hw_dt = regime.delta_halfwidth(kappa) / SQRT2
        step = hw_dt / half
        kappa_cubed = kappa ** 3
        dts = [j * step for j in range(-half, half + 1)]
        xs = [params.mu + SQRT2 * params.variance.sigma * dt for dt in dts]
        cdf_quad = vm_cdf_sweep(params, xs, quad_tol) if target == "cdf" else [None] * len(xs)
        mr = 0.0
        mn = 0.0
        for dt, x, cq in zip(dts, xs, cdf_quad):
            r = _scan_residual(target, params, x, cq)
            if r > mr:
                mr = r
            rn = r * kappa_cubed / (1.0 + abs(dt) ** power)
            if rn > mn:
                mn = rn
        max_res.append(mr)
        max_norm.append(mn)
        x1 = params.mu + SQRT2 * params.variance.sigma
        cq1 = vm_cdf_quadrature(params, x1, quad_tol) if target == "cdf" else None
        slope_points.append((kappa, _scan_residual(target, params, x1, cq1)))
    kept = [(k, r) for k, r in slope_points if r >= RESIDUAL_FLOOR]
    if len(kept) < 3:
        raise ValueError("too few residuals above the floating-point floor for a slope fit")
    slope = slope_fit(kept)
    return ScanReport(
        kappa_values=tuple(kappa_values),
        max_residual=tuple(max_res),
        max_normalized_residual=tuple(max_norm),
        fitted_slope=slope,
        grid_size=grid_size,
        regime=regime,
    )
