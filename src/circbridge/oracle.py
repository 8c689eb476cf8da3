"""Independent brute-force references and the bulk comparisons.

Everything the expansions are validated against lives here: quadrature
of the circular distribution function (on the kernels' GK15 integrator),
the `table` rows and the residual scans over the bulk, and the log-log
slope fit used to measure decay orders.
"""

import math
import sys
from collections import namedtuple

from . import backend
from .backend import QuadratureError  # re-exported: raised by the CDF sweep
from .distributions import (
    SQRT2,
    VonMisesParams,
    _inverse_powers,
    _require_tol,
    _vm_density_value,
)
from .expansions import (
    ENVELOPE_POWER,
    SCAN_MIN_GRID,
    BulkSpec,
    _cdf_expansion_value,
    _first_order_term,
    _log_ratio_constants,
    _log_ratio_exact_value,
    _log_ratio_second_term,
    _ratio_second_term,
    _reference_density_value,
    _remainder_scale,
    grid_size_ok,
    log_ratio_exact,
)

# Residuals below this are floating-point noise and are excluded from
# slope fits.
RESIDUAL_FLOOR = 1e-14

SCAN_TARGETS = tuple(ENVELOPE_POWER)

TABLE_COLUMNS = (
    "x",
    "delta",
    "delta_tilde",
    "vm_density",
    "ref_normal_density",
    "logratio_exact",
    "logratio_order1",
    "logratio_order2",
    "cdf_quad",
    "cdf_approx",
    "residual_log",
    "residual_cdf",
)

# The ratio residual exponentiates the exact log-ratio, which must stay
# at or below this.
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


ScanReport = namedtuple(
    "ScanReport",
    "kappa_values max_residual max_normalized_residual fitted_slope grid_size regime",
)
ScanReport.__doc__ = "Per-concentration residual maxima and the fitted decay slope."


def _window_offset(x, mu):
    t = x - mu
    if not (-math.pi < t <= math.pi):
        raise ValueError(
            "x must lie in the principal window (mu - pi, mu + pi], got offset %r" % (t,)
        )
    return t


def vm_cdf_sweep(params: VonMisesParams, xs, tol: float = 1e-12) -> list[float]:
    """Circular distribution function at points in any order, in one pass.

    F(x) = integral of the density from mu - pi to x, for each x of xs,
    which must lie in the principal window (mu - pi, mu + pi].  The
    density is even about mu, so F(mu + t) = 1/2 + sgn(t) M(|t|), with M
    the mass on [mu, mu + |t|].  The cuts are the sorted set of 0 and
    every |t|, plus the reach min(pi, 20 sigma) when a point lies beyond
    it.  One sweep outwards from the mode integrates each segment that
    starts below the reach, and M is their running sum; so the cost grows
    with the distinct offsets within 20 sigma.  Each such segment gets an
    equal share of tol, and so does the whole tail past the reach when a
    cut lies there; a segment its share cannot certify runs again, after
    the others, on an equal part of what they left unused.  A cut past
    the reach gets the mass at the reach:
    there the integrand is at most e^-40 of its peak, and the whole tail
    holds less than e^-40 / 5 of the mass up to the reach, under half
    an ulp of it, so integrating it would change no bit.  F(mu) is
    exactly 1/2, and tol is absolute and holds for every value.  Values
    are not clamped: at either end of the window they may leave [0, 1]
    by up to tol.
    """
    _require_tol(tol)
    if len(xs) == 0:
        raise ValueError("xs must not be empty")
    ts = [_window_offset(x, params.mu) for x in xs]
    # essentially all mass lies within 20 sigma of the mode (the envelope
    # exp(kappa(cos t - 1)) <= exp(-kappa t^2 / 5) leaves e^-40 beyond); a
    # cut there keeps the first panel of a wide segment from stepping over
    # the peak at its start, and the segments past it are not integrated
    reach = min(math.pi, 20.0 * params.sigma)
    offsets = {0.0, *map(abs, ts)}
    if max(offsets) > reach:
        offsets.add(reach)
    cuts = sorted(offsets)
    inv_norm = 1.0 / (2.0 * math.pi * params.i0e)
    n = cuts.index(reach) if cuts[-1] > reach else len(cuts) - 1  # segments below the reach
    seg_tol = tol / inv_norm / max(n + (1 if cuts[-1] > reach else 0), 1)
    kappa = params.kappa
    late, spent = set(), 0.0  # lower ends of the segments their share cannot certify; others' error
    half = {0.0: 0.0}  # inv_norm times the mass on [0, cut], by cut
    mass = 0.0
    for lo, hi in zip(cuts, cuts[1 : n + 1]):
        try:
            val, err, _ = backend.vm_scaled_mass(kappa, lo, hi, seg_tol)
        except QuadratureError:
            late.add(lo)
            val = err = 0.0
        mass += val
        spent += err
        half[hi] = inv_norm * mass
    if late:  # again, each late one on an equal part of what the others left unused
        late_tol, mass = (n * seg_tol - spent) / len(late), 0.0
        for lo, hi in zip(cuts, cuts[1 : n + 1]):
            mass += backend.vm_scaled_mass(kappa, lo, hi, late_tol if lo in late else seg_tol)[0]
            half[hi] = inv_norm * mass
    half.update(dict.fromkeys(cuts[n + 1 :], inv_norm * mass))
    return [0.5 - half[-t] if t < 0.0 else 0.5 + half[t] for t in ts]


def vm_cdf_quadrature(params: VonMisesParams, x: float, tol: float = 1e-12) -> float:
    """Circular distribution function at one point: `vm_cdf_sweep` of (x,).

    x must lie in the principal window (mu - pi, mu + pi]; tol is
    absolute.  The mass is integrated outwards from mu, so x = mu gives
    exactly 1/2, and the value may leave [0, 1] by up to tol at either
    end of the window.  The sweep's steps for one point, without its
    bookkeeping for many: the same checks and messages, and the value
    equal to `vm_cdf_sweep(params, (x,), tol)[0]` bit for bit.
    """
    _require_tol(tol)
    t = _window_offset(x, params.mu)
    if t == 0.0:
        return 0.5
    a = abs(t)
    reach = min(math.pi, 20.0 * params.sigma)
    inv_norm = 1.0 / (2.0 * math.pi * params.i0e)
    # the sweep's cuts: [0, a], or [0, reach] and the tail [reach, a]
    seg_tol = tol / inv_norm / (2 if a > reach else 1)
    mass = inv_norm * backend.vm_scaled_mass(params.kappa, 0.0, min(a, reach), seg_tol)[0]
    return 0.5 - mass if t < 0.0 else 0.5 + mass


def _plain_sum(values):
    # left to right in double precision, as sum() adds floats before
    # Python 3.12 (later ones compensate), so that the slope prints the
    # same digits on every version
    total = 0.0
    for v in values:
        total += v
    return total


def slope_fit(points) -> float:
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
    mx = _plain_sum(lx) / n
    my = _plain_sum(ly) / n
    sxx = _plain_sum((v - mx) ** 2 for v in lx)
    sxy = _plain_sum((u - mx) * (v - my) for u, v in zip(lx, ly))
    return sxy / sxx


def table_rows(params: VonMisesParams, spec: BulkSpec, size: int, tol: float = 1e-12) -> list[tuple]:
    """Rows of TABLE_COLUMNS on the bulk grid `spec.grid(params, size)`.

    Each row holds, bit for bit, what the point functions give at its x,
    with F(x) from `vm_cdf_sweep` at tol.  Both laws are even about mu, so
    rows j and size - 1 - j whose offsets t = x - mu are exact negatives
    are computed once, at t > 0: the lower row holds the upper row's float
    objects in the columns even in t, the deviates negated, and 1 - v for
    its cdf expansion v, as the cores give at -t.  Raises ValueError before
    any quadrature where the log_ratio or cdf remainder scale is not finite
    at the grid's outer deviate, as `eval` does at one point.
    """
    dts, xs = spec.grid(params, size)
    kappa = params.kappa
    u, uu = _inverse_powers(kappa)
    _remainder_scale("log_ratio", dts[-1], u, uu)
    _remainder_scale("cdf", dts[-1], u, uu)
    cdf_quad = vm_cdf_sweep(params, xs, tol)
    mu = params.mu
    sigma = params.sigma
    width = SQRT2 * sigma
    i0e = params.i0e
    log_i0e, half_log_var = _log_ratio_constants(params)
    # the sweep has rejected every offset t outside (-pi, pi]; on that
    # window wrap_angle(t) is t itself, -0.0 included
    rows = [None] * size
    # the upper half from mu, each row with its exact mirror, then the
    # lower rows left
    for j in (*range(size // 2, size), *range(size // 2)):
        if rows[j] is not None:
            continue
        x, cq = xs[j], cdf_quad[j]
        t = x - mu
        delta = t / sigma
        dt = delta / SQRT2
        f = _vm_density_value(kappa, i0e, t)
        g = _reference_density_value(dt, width)
        lre = _log_ratio_exact_value(kappa, log_i0e, half_log_var, t, delta)
        lr1 = _first_order_term(dt, u)
        lr2 = lr1 + _log_ratio_second_term(dt, uu)
        ca = _cdf_expansion_value(dt, u, uu)
        rl = abs(lre - lr2)
        rows[j] = (x, delta, dt, f, g, lre, lr1, lr2, cq, ca, rl, abs(cq - ca))
        m = size - 1 - j
        if m < j and 0.0 < t == mu - xs[m]:
            x, cq, ca = xs[m], cdf_quad[m], 1.0 - ca
            rows[m] = (x, -delta, -dt, f, g, lre, lr1, lr2, cq, ca, rl, abs(cq - ca))
    return rows


def _scan_residuals(target, params, powers, xs, cdf_quad):
    """Residual |exact - expansion| of the target at each of xs.

    powers is `_inverse_powers(params.kappa)`; cdf_quad holds F(x) by
    quadrature for each x, read only for the cdf target.  The values are
    those of log_ratio_exact(params, x) and of the order-2
    log_ratio_expansion, ratio_expansion and cdf_expansion at the deviate
    of x, from the same cores with the per-kappa numbers read once.  For
    cdf, xs[j] and xs[-1 - j] must mirror about mu for j < len(xs) // 2,
    as a bulk grid at mu = 0 or a single point does: the expansion
    reflects as 1 - v, so each pair shares the value v at its upper point.
    """
    u, uu = powers
    mu = params.mu
    sigma = params.sigma
    if target == "cdf":
        h = len(xs) // 2
        vs = [_cdf_expansion_value(((x - mu) / sigma) / SQRT2, u, uu) for x in xs[h:]]
        lower = [abs(cq - (1.0 - v)) for cq, v in zip(cdf_quad[:h], reversed(vs))]
        return lower + [abs(cq - v) for cq, v in zip(cdf_quad[h:], vs)]
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
            continue
        try:
            ratio = math.exp(exact)
        except OverflowError:
            # the edge check passed, so exact is not kappa t^4 / 24 here
            # but the rounding noise of its two cancelling terms of order
            # delta^2 / 4
            raise ValueError(
                "the exact ratio overflows inside the bulk at kappa=%r, delta_tilde=%r:"
                " the exact log-ratio there reads %.6g, rounding noise of its cancelling"
                " terms at this kappa; use a smaller kappa" % (kappa, dt, exact)
            ) from None
        out.append(abs(ratio - (1.0 + first + _ratio_second_term(dt, uu))))
    return out


def _require_finite_edge_ratio(regime, params, powers, kappa_cubed, xs):
    # the exact log-ratio grows like kappa t^4 / 24, so on the mirror grid
    # xs its largest value, and the ratio's largest residual, are at the
    # edge xs[0]
    if regime.regime == "fixed":
        name, hint = "eta", "use the shrunken regime"
    else:
        name, hint = "eta_tilde", "use a smaller eta_tilde"
    where = "at kappa=%r (%s regime, %s=%r)" % (params.kappa, regime.regime, name, regime.eta)
    edge = log_ratio_exact(params, xs[0])
    if edge > _LOG_FLOAT_MAX:
        raise ValueError(
            "the exact ratio overflows at the bulk edge %s: its log is %.6g,"
            " above log(max float) = %.6g; %s" % (where, edge, _LOG_FLOAT_MAX, hint)
        )
    # the residual as _scan_residuals takes it, from the exact value above
    u, uu = powers
    dt = (xs[0] - params.mu) / params.sigma / SQRT2
    residual = abs(math.exp(edge) - (1.0 + _first_order_term(dt, u) + _ratio_second_term(dt, uu)))
    if not math.isfinite(residual * kappa_cubed):
        raise ValueError(
            "the normalized ratio residual overflows at the bulk edge %s: the residual"
            " %.6g times kappa^3 is not finite; %s" % (where, residual, hint)
        )


def residual_scan(
    regime: BulkSpec,
    kappa_values,
    grid_size: int,
    target: str,
    quad_tol: float = 1e-13,
) -> ScanReport:
    """Exact-versus-expansion residuals over the bulk for each concentration.

    The laws are centred at mu = 0 (the residuals depend on x - mu only).
    For every kappa the target's residual is evaluated on an odd
    equispaced delta_tilde grid over the bulk, or its half up to mu for
    log_ratio and ratio, which mirror bit for bit; the report records the
    maximum residual, the maximum normalized by the envelope
    (1 + |dt|^p)/kappa^3, and the log-log slope across kappa of the
    residual at delta_tilde = 1 (residuals below RESIDUAL_FLOOR not fitted).
    """
    if target not in SCAN_TARGETS:
        raise ValueError("target must be one of %s, got %r" % (SCAN_TARGETS, target))
    if len(kappa_values) < 3:
        raise ValueError(
            "a slope fit needs at least 3 kappa values, got %d" % len(kappa_values)
        )
    seen = set()
    for kappa in kappa_values:
        if kappa in seen:
            raise ValueError(
                "a slope fit needs distinct kappa values, got %r more than once" % (kappa,)
            )
        seen.add(kappa)
    if not grid_size_ok(grid_size, SCAN_MIN_GRID):
        raise ValueError("grid_size must be odd and >= 11, got %r" % (grid_size,))
    power = ENVELOPE_POWER[target]
    max_res = []
    max_norm = []
    slope_points = []
    # every grid is built, and so checked against the circle, and every
    # kappa checked (range, kappa^3, the ratio's bulk edge), then every
    # remainder scale (1 + |dt|^p) / kappa^3 at the bulk edge, before any is
    # evaluated; at mu = 0 the grid mirrors exactly and the log_ratio and
    # ratio residuals are even bit for bit, so the half up to mu has the
    # grid's maxima (max() keeps a NaN only as its first item: the edge)
    evaluated = grid_size if target == "cdf" else grid_size // 2 + 1
    grids = []
    for kappa in kappa_values:
        params = VonMisesParams(0.0, kappa)
        dts, xs = regime.grid(params, grid_size)
        try:
            kappa_cubed = kappa ** 3
        except OverflowError:
            raise ValueError(
                "kappa=%r is too large for the normalized residuals: kappa^3 overflows" % (kappa,)
            ) from None
        powers = _inverse_powers(kappa)
        if target == "ratio":
            _require_finite_edge_ratio(regime, params, powers, kappa_cubed, xs)
        grids.append((params, dts[:evaluated], xs[:evaluated], powers, kappa_cubed))
    for _params, dts, _xs, powers, _kappa_cubed in grids:
        _remainder_scale(target, -dts[0], *powers)  # at the upper bulk edge
    for params, dts, xs, powers, kappa_cubed in grids:
        cdf_quad = vm_cdf_sweep(params, xs, quad_tol) if target == "cdf" else None
        res = _scan_residuals(target, params, powers, xs, cdf_quad)
        max_res.append(max(res))
        max_norm.append(max(r * kappa_cubed / (1.0 + abs(dt) ** power) for dt, r in zip(dts, res)))
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
