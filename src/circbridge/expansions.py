"""Local approximations bridging the circular and linear normal laws.

For large concentration the circular normal density, rescaled by the
matched linear width sqrt(2) sigma, approaches the standard normal
density evaluated at the standardized deviate.  This module provides the
standardized deviates, the bulk region where the approximation is
uniform, the exact log-ratio of the two densities, its polynomial
expansions through second order in 1/kappa, the corresponding corrected
distribution function, and the normalization-constant expansion.

All residual claims are of order (1 + |dt|^p) / kappa^3 with an envelope
power p specific to each expansion, listed in ENVELOPE_POWER.
"""

import math
from collections import namedtuple

from .backend import HALF_LOG_TWO_PI
from .distributions import (
    SQRT2,
    VonMisesParams,
    _Frozen,
    _inverse_powers,
    _require_finite,
    _require_positive_kappa,
    normal_cdf,
    normal_pdf,
)

_HALF_LOG_TWO = 0.5 * math.log(2.0)

# Envelope power p of each expansion's remainder (1 + |dt|^p) / kappa^3:
# the log form, the ratio form and the distribution function.
ENVELOPE_POWER = {"log_ratio": 8, "ratio": 12, "cdf": 11}

# Bulk grids have an odd size, so delta_tilde = 0 is a grid point; a
# `table` needs at least 3 points and a residual scan at least 11.
TABLE_MIN_GRID = 3
SCAN_MIN_GRID = 11


def grid_size_ok(size: int, minimum: int) -> bool:
    """Whether size is an odd int of at least minimum (TABLE_MIN_GRID or SCAN_MIN_GRID)."""
    return type(size) is int and size >= minimum and size % 2 == 1


StandardizedDeviate = namedtuple("StandardizedDeviate", "delta delta_tilde")
StandardizedDeviate.__doc__ = "Deviate delta = (x - mu)/sigma and its rescaled form delta/sqrt(2)."


class BulkSpec(_Frozen):
    """Region of deviates where the expansions hold uniformly.

    Fixed regime: |delta| <= eta * sqrt(kappa) with 0 < eta < 1.
    Shrunken regime: |delta| <= eta_tilde * kappa^(1/4), any finite
    eta_tilde > 0; this is the fixed regime with eta replaced by
    eta_tilde * kappa^(-1/4).
    `eta` holds the regime's parameter: eta, or eta_tilde when shrunken.
    """

    __slots__ = ("regime", "eta")
    _fields = ("regime", "eta")

    def __init__(self, regime: str, eta: float):
        if regime == "fixed":
            if not (0.0 < eta < 1.0):
                raise ValueError("fixed regime needs 0 < eta < 1, got %r" % (eta,))
        elif regime == "shrunken":
            if not (eta > 0.0):
                raise ValueError("shrunken regime needs eta_tilde > 0, got %r" % (eta,))
            _require_finite("eta_tilde", eta)
        else:
            raise ValueError("regime must be 'fixed' or 'shrunken', got %r" % (regime,))
        _set_bulk_regime(self, regime)
        _set_bulk_eta(self, eta)

    @classmethod
    def fixed(cls, eta: float) -> "BulkSpec":
        return cls(regime="fixed", eta=eta)

    @classmethod
    def shrunken(cls, eta_tilde: float) -> "BulkSpec":
        return cls(regime="shrunken", eta=eta_tilde)

    def delta_halfwidth(self, kappa: float) -> float:
        """Half-width of the bulk in delta units at the given concentration."""
        if self.regime == "fixed":
            return self.eta * math.sqrt(kappa)
        return self.eta * kappa ** 0.25

    def grid(self, params: VonMisesParams, size: int) -> tuple[list[float], list[float]]:
        """Equispaced bulk grid of `size` points at params, size odd and >= 3.

        Returns (dts, xs): the deviates delta_tilde = j * step for
        j = -half..half, half = (size - 1) / 2, with the outermost on the
        bulk edge, and the points x = mu + sqrt(2) sigma delta_tilde.
        Raises ValueError unless size is odd and >= TABLE_MIN_GRID and
        kappa > 0, and when the bulk edge, sigma times the half-width,
        reaches pi, where the grid would leave the circle.  Only the
        shrunken regime can reach it: the fixed edge eta sigma sqrt(kappa),
        eta < 1, stays below 0.78.
        """
        if not grid_size_ok(size, TABLE_MIN_GRID):
            raise ValueError("grid size must be odd and >= %d, got %r" % (TABLE_MIN_GRID, size))
        _require_positive_kappa(params.kappa)
        half = (size - 1) // 2
        step = self.delta_halfwidth(params.kappa) / SQRT2 / half
        dts = [j * step for j in range(-half, half + 1)]
        width = SQRT2 * params.sigma
        edge = width * dts[-1]
        if not (edge < math.pi):
            raise ValueError(
                "the bulk edge, %.3g rad from mu, reaches pi at kappa=%r with eta_tilde=%r;"
                " use a smaller eta_tilde" % (edge, params.kappa, self.eta)
            )
        return dts, [params.mu + width * dt for dt in dts]


# slot stores, bound once as in `distributions`
_set_bulk_regime = BulkSpec.regime.__set__
_set_bulk_eta = BulkSpec.eta.__set__


ExpansionValue = namedtuple("ExpansionValue", "value order remainder_scale")
ExpansionValue.__doc__ = "An expansion value plus the scale of its truncation remainder."

# _tuple_new(cls, (...)) is all that a named tuple's generated __new__
# does; the functions below call it directly and skip that Python frame.
_tuple_new = tuple.__new__


def standardized_deviate(params: VonMisesParams, x: float) -> StandardizedDeviate:
    """Deviate of a point x on the line near mu, in units of sigma; x must be finite."""
    _require_finite("x", x)
    delta = (x - params.mu) / params.sigma
    return _tuple_new(StandardizedDeviate, (delta, delta / SQRT2))


# Value-only cores: each formula is written once, here (the circular
# density's is `distributions._vm_density_value`).  The public point
# functions wrap them; the grid loops (`oracle.table_rows` and
# `oracle.residual_scan`) call them directly, with the per-kappa numbers
# read once per kappa.  No core checks its arguments.


def _log_ratio_constants(params: VonMisesParams) -> tuple[float, float]:
    """log(e^-kappa I0) and log(sigma^2)/2: `_log_ratio_exact_value`'s per-kappa numbers."""
    return math.log(params.i0e), 0.5 * math.log(params.variance)


def _log_ratio_exact_value(kappa, log_i0e, half_log_var, t, delta):
    # exact log-ratio at offset t = x - mu with deviate delta = t / sigma;
    # the large kappa terms are paired off analytically:
    #   kappa cos t - log I0 = -2 kappa sin^2(t/2) - log(e^-kappa I0)
    s = math.sin(0.5 * t)
    return (
        -2.0 * kappa * (s * s)
        - HALF_LOG_TWO_PI
        - log_i0e
        + _HALF_LOG_TWO
        + half_log_var
        + 0.25 * (delta * delta)
    )


def _first_order_term(dt, u):
    # the 1/kappa term of the log-ratio expansion, which is also the
    # 1/kappa term of the ratio expansion
    d2 = dt * dt
    d4 = d2 * d2
    return (d4 / 24.0 - d2 / 8.0) * u


def _log_ratio_second_term(dt, uu):
    d2 = dt * dt
    d4 = d2 * d2
    d6 = d4 * d2
    return (-d6 / 720.0 + d4 / 48.0 - d2 / 8.0 + 3.0 / 64.0) * uu


def _ratio_second_term(dt, uu):
    d2 = dt * dt
    d4 = d2 * d2
    d6 = d4 * d2
    d8 = d4 * d4
    return (d8 / 1152.0 - 19.0 * d6 / 2880.0 + 11.0 * d4 / 384.0 - d2 / 8.0 + 3.0 / 64.0) * uu


def _cdf_expansion_value(dt, u, uu):
    # evaluated at |dt| and reflected for dt < 0, which makes
    # F(dt) + F(-dt) = 1 hold exactly
    a = -dt if dt < 0.0 else dt
    d2 = a * a
    d3 = d2 * a
    d5 = d3 * d2
    d7 = d5 * d2
    correction = (d3 / 24.0) * u + (
        d7 / 1152.0 - d5 / 1920.0 + 5.0 * d3 / 192.0 - 3.0 * a / 64.0
    ) * uu
    v = normal_cdf(a) - normal_pdf(a) * correction
    return 1.0 - v if dt < 0.0 else v


def _reference_density_value(dt, width):
    # density of Normal(mu, width^2) at x, given dt = (x - mu) / width
    return normal_pdf(dt) / width


def _remainder_scale(target, dt, u, uu):
    # (1 + |dt|^p) / kappa^3, which must be finite, as must |dt|^p itself
    p = ENVELOPE_POWER[target]
    try:
        power = abs(dt) ** p
    except OverflowError:  # float ** raises where * would give inf
        reason = "|delta_tilde|^%d in its remainder scale (1 + |delta_tilde|^%d) / kappa^3 overflows"
        reason %= (p, p)
    else:
        scale = (1.0 + power) * (uu * u)
        if scale < math.inf:
            return scale
        reason = "its remainder scale (1 + |delta_tilde|^%d) / kappa^3 is not finite" % (p,)
    raise ValueError(
        "delta_tilde=%r is outside the %s expansion's range at this kappa: %s" % (dt, target, reason)
    )


def _check_order(order):
    # type, not isinstance: True == 1 and 2.0 == 2 would pass `in`
    if type(order) is not int or order not in (1, 2):
        raise ValueError("order must be 1 or 2, got %r" % (order,))


def log_ratio_exact(params: VonMisesParams, x: float) -> float:
    """Exact log of the density ratio sqrt(2) sigma f(x) / phi(delta_tilde).

    Evaluated entirely in log space; finite well beyond kappa = 5000.
    Raises ValueError unless x is finite.
    """
    _require_finite("x", x)
    log_i0e, half_log_var = _log_ratio_constants(params)
    t = x - params.mu
    delta = t / params.sigma
    return _log_ratio_exact_value(params.kappa, log_i0e, half_log_var, t, delta)


def log_ratio_expansion(delta_tilde: float, kappa: float, order: int) -> ExpansionValue:
    """Polynomial expansion of the log density ratio in powers of 1/kappa.

    Order 1 keeps (dt^4/24 - dt^2/8)/kappa; order 2 adds
    (-dt^6/720 + dt^4/48 - dt^2/8 + 3/64)/kappa^2.  The remainder is of
    order (1 + |dt|^8)/kappa^3.  Raises ValueError where that scale is not
    finite: for kappa below about 1.8e-103, or dt huge or not finite.
    """
    u, uu = _inverse_powers(kappa)
    _check_order(order)
    v = _first_order_term(delta_tilde, u)
    if order == 2:
        v += _log_ratio_second_term(delta_tilde, uu)
    scale = _remainder_scale("log_ratio", delta_tilde, u, uu)
    return _tuple_new(ExpansionValue, (v, order, scale))


def ratio_expansion(delta_tilde: float, kappa: float, order: int) -> ExpansionValue:
    """Expansion of the density ratio itself (not its log).

    Order 2 carries the extra cross terms from exponentiating the log
    form; the remainder envelope power rises to 12.  Raises ValueError
    where the remainder scale is not finite, as `log_ratio_expansion` does.
    """
    u, uu = _inverse_powers(kappa)
    _check_order(order)
    v = 1.0 + _first_order_term(delta_tilde, u)
    if order == 2:
        v += _ratio_second_term(delta_tilde, uu)
    scale = _remainder_scale("ratio", delta_tilde, u, uu)
    return _tuple_new(ExpansionValue, (v, order, scale))


def cdf_expansion(delta_tilde: float, kappa: float) -> ExpansionValue:
    """Corrected normal approximation of the circular distribution function.

    Phi(dt) minus phi(dt) times the two-term odd correction polynomial
    {dt^3/(24 kappa) + (dt^7/1152 - dt^5/1920 + 5 dt^3/192 - 3 dt/64)/kappa^2}.
    Negative deviates are evaluated by reflection, which makes
    value(dt) + value(-dt) = 1 hold exactly in floating point.  No
    clamping to [0, 1] is applied.  Raises ValueError where the remainder
    scale is not finite, as `log_ratio_expansion` does.
    """
    u, uu = _inverse_powers(kappa)
    scale = _remainder_scale("cdf", delta_tilde, u, uu)
    return _tuple_new(ExpansionValue, (_cdf_expansion_value(delta_tilde, u, uu), 2, scale))


def reference_normal_density(params: VonMisesParams, x: float) -> float:
    """Density of the matched linear law Normal(mu, 2 sigma^2) at x; x must be finite."""
    _require_finite("x", x)
    sigma = params.sigma
    return _reference_density_value((x - params.mu) / sigma / SQRT2, SQRT2 * sigma)


def normalization_log_constant(kappa: float, mode: str = "exact", centered: bool = False) -> float:
    """Log normalization constant -log(2 pi)/2 - log I0 + log(2)/2 + log(sigma^2)/2.

    Exact mode computes the left side from the per-kappa values of a
    `VonMisesParams`, one call of the kernel `backend.i0e_sigma2`;
    expansion mode returns -kappa + 3/(64 kappa^2) + 13/(128 kappa^3).  With
    centered=True the leading -kappa is dropped, which keeps the two
    modes comparable to full precision at large kappa (the full values
    round to ulp(kappa) once stored).
    """
    _require_positive_kappa(kappa)
    if mode == "exact":
        params = VonMisesParams(0.0, kappa)
        brk = math.sqrt(2.0 * math.pi * kappa) * params.i0e
        c = 0.5 * math.log(2.0 * kappa * params.variance) - math.log(brk)
    elif mode == "expansion":
        u, uu = _inverse_powers(kappa)
        c = (3.0 / 64.0) * uu + (13.0 / 128.0) * (uu * u)
    else:
        raise ValueError("mode must be 'exact' or 'expansion', got %r" % (mode,))
    if centered:
        return c
    return c - kappa
