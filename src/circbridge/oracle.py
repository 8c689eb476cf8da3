"""Independent brute-force references and error-order scan machinery.

Everything the expansions are validated against lives here: adaptive
Gauss-Kronrod quadrature of any integrand (on the kernels' GK15 engine),
quadrature of the circular distribution function, residual scans over
the bulk, and the log-log slope fit used to measure decay orders.
"""

import math
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

from . import backend
from .backend import QuadratureError  # re-exported: raised by the integrator
from .distributions import SQRT2, VonMisesParams, _require_tol
from .expansions import (
    ENVELOPE_POWER,
    SCAN_MIN_GRID,
    BulkSpec,
    _cdf_expansion_value,
    _first_order_term,
    _inverse_powers,
    _log_ratio_constants,
    _log_ratio_exact_value,
    _log_ratio_second_term,
    _ratio_second_term,
    grid_size_ok,
)

# Residuals below this are floating-point noise and are excluded from
# slope fits.
RESIDUAL_FLOOR = 1e-14

SCAN_TARGETS = ("log_ratio", "ratio", "cdf")

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


def vm_cdf_sweep(
    params: VonMisesParams, xs: Sequence[float], tol: float = 1e-12
) -> List[float]:
    """Circular distribution function at points in any order, in one pass.

    F(x) = integral of the density from mu - pi to x, for each x of xs,
    which must lie in the principal window (mu - pi, mu + pi].  The
    density is even about mu, so F(mu + t) = 1/2 + sgn(t) M(|t|), with M
    the mass on [mu, mu + |t|].  The cuts are the sorted set of 0 and
    every |t|, plus 20 sigma when a point lies beyond it; one sweep
    outwards from the mode integrates each of the n segments once, to
    tol / n, and M is their running sum.  So F(mu) is exactly 1/2, and
    tol is absolute and holds for every value.  Values are not clamped:
    at either end of the window they may leave [0, 1] by up to tol.
    """
    _require_tol(tol)
    if len(xs) == 0:
        raise ValueError("xs must not be empty")
    mu = params.mu
    ts = [x - mu for x in xs]
    for t in ts:
        if not (-math.pi < t <= math.pi):
            raise ValueError(
                "x must lie in the principal window (mu - pi, mu + pi], got offset %r" % (t,)
            )
    # essentially all mass lies within 20 sigma of the mode (the envelope
    # exp(kappa(cos t - 1)) <= exp(-kappa t^2 / 5) leaves e^-40 beyond); a
    # cut there keeps the first panel of a wide segment from stepping over
    # the peak at its start
    reach = min(math.pi, 20.0 * params.sigma)
    offsets = {0.0, *map(abs, ts)}
    if max(offsets) > reach:
        offsets.add(reach)
    cuts = sorted(offsets)
    inv_norm = 1.0 / (2.0 * math.pi * params.i0e)
    seg_tol = tol / inv_norm / max(len(cuts) - 1, 1)
    kappa = params.kappa
    half = {0.0: 0.0}  # inv_norm times the mass on [0, cut], by cut
    mass = 0.0
    for lo, hi in zip(cuts, cuts[1:]):
        part, _err, _n = backend.vm_scaled_mass(kappa, lo, hi, seg_tol)
        mass += part
        half[hi] = inv_norm * mass
    return [0.5 - half[-t] if t < 0.0 else 0.5 + half[t] for t in ts]


def vm_cdf_quadrature(params: VonMisesParams, x: float, tol: float = 1e-12) -> float:
    """Circular distribution function at one point: `vm_cdf_sweep` of (x,).

    x must lie in the principal window (mu - pi, mu + pi]; tol is
    absolute.  The mass is integrated outwards from mu, so x = mu gives
    exactly 1/2, and the value may leave [0, 1] by up to tol at either
    end of the window.
    """
    return vm_cdf_sweep(params, (x,), tol)[0]


def slope_fit(points: Sequence[Tuple[float, float]]) -> float:
    """Least-squares slope of log(y) against log(x).

    Needs at least three points with distinct finite positive abscissae
    and finite positive ordinates.
    """
    if len(points) < 3:
        raise ValueError("need at least 3 points, got %d" % len(points))
    xs = [p[0] for p in points]
    ys = [p[1] for p in points]
    if len(set(xs)) != len(xs):
        raise ValueError("abscissae must be distinct")
    if not all(0.0 < v < math.inf for v in xs + ys):
        raise ValueError("slope fit needs finite positive coordinates")
    lx = [math.log(x) for x in xs]
    ly = [math.log(y) for y in ys]
    n = len(points)
    mx = sum(lx) / n
    my = sum(ly) / n
    sxx = sum((v - mx) ** 2 for v in lx)
    sxy = sum((u - mx) * (v - my) for u, v in zip(lx, ly))
    return sxy / sxx


def _scan_residuals(target, params, powers, xs, cdf_quad):
    """Residual |exact - expansion| of the target at each of xs.

    powers is `_inverse_powers(params.kappa)`; cdf_quad holds F(x) by
    quadrature for each x, read only for the cdf target.  The values are
    those of log_ratio_exact(params, x) and of the order-2
    log_ratio_expansion, ratio_expansion and cdf_expansion at the deviate
    of x, from the same cores with the per-kappa numbers read once.
    """
    u, uu = powers
    mu = params.mu
    sigma = params.sigma
    if target == "cdf":
        return [
            abs(cq - _cdf_expansion_value(((x - mu) / sigma) / SQRT2, u, uu))
            for x, cq in zip(xs, cdf_quad)
        ]
    kappa = params.kappa
    log_i0e, half_log_var = _log_ratio_constants(params)
    out = []
    for x in xs:
        t = x - mu
        delta = t / sigma
        dt = delta / SQRT2
        exact = _log_ratio_exact_value(kappa, log_i0e, half_log_var, t, delta)
        first = _first_order_term(dt, u)
        if target == "log_ratio":
            out.append(abs(exact - (first + _log_ratio_second_term(dt, uu))))
        else:
            out.append(abs(math.exp(exact) - (1.0 + first + _ratio_second_term(dt, uu))))
    return out


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
    if len(kappa_values) < 3:
        raise ValueError(
            "a slope fit needs at least 3 kappa values, got %d" % len(kappa_values)
        )
    if not grid_size_ok(grid_size, SCAN_MIN_GRID):
        raise ValueError("grid_size must be odd and >= 11, got %r" % (grid_size,))
    power = ENVELOPE_POWER[target]
    max_res: List[float] = []
    max_norm: List[float] = []
    slope_points: List[Tuple[float, float]] = []
    # every grid is built, and so checked against the circle, and every
    # kappa checked against the expansions' range and the residuals'
    # kappa^3 scale, before any is evaluated
    grids = []
    for kappa in kappa_values:
        params = VonMisesParams(0.0, kappa)
        grid = regime.grid(params, grid_size)
        try:
            kappa_cubed = kappa ** 3
        except OverflowError:
            raise ValueError(
                "kappa=%r is too large for the normalized residuals: kappa^3 overflows" % (kappa,)
            ) from None
        grids.append((params, grid, _inverse_powers(kappa), kappa_cubed))
    for params, (dts, xs), powers, kappa_cubed in grids:
        cdf_quad = vm_cdf_sweep(params, xs, quad_tol) if target == "cdf" else None
        res = _scan_residuals(target, params, powers, xs, cdf_quad)
        max_res.append(max(res))
        max_norm.append(
            max(r * kappa_cubed / (1.0 + abs(dt) ** power) for dt, r in zip(dts, res))
        )
        x1 = params.mu + SQRT2 * params.sigma
        cq1 = [vm_cdf_quadrature(params, x1, quad_tol)] if target == "cdf" else None
        slope_points.append((params.kappa, _scan_residuals(target, params, powers, [x1], cq1)[0]))
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
