"""circbridge: numerics connecting the circular and linear normal laws.

Exact circular normal and wrapped normal densities, the matched-scale
relation between their dispersions, high-accuracy modified Bessel
functions, local density/CDF approximations for large concentration with
controlled error order, and brute-force oracles plus scan machinery to
validate every claimed order empirically.
"""

from .backend import backend_name
from .bessel import (
    SERIES_CUTOFF,
    bessel_i0_series,
    bessel_i0e_asymptotic,
    bessel_i1e_asymptotic,
    log_i0,
)
from .distributions import (
    CircularVariance,
    VonMisesParams,
    WrappedNormalParams,
    circular_variance_exact,
    circular_variance_expansion,
    matched_sup_gap,
    matched_wn_scale,
    normal_cdf,
    normal_pdf,
    normalize_angle,
    upper_incomplete_moment,
    vm_density,
    vm_log_density,
    wn_circular_variance,
    wn_density,
    wrap_angle,
)
from .expansions import (
    BulkSpec,
    ExpansionValue,
    StandardizedDeviate,
    cdf_expansion,
    in_bulk,
    log_ratio_exact,
    log_ratio_expansion,
    normalization_log_constant,
    ratio_expansion,
    reference_normal_density,
    standardized_deviate,
)
from .oracle import (
    QuadratureError,
    QuadratureResult,
    ScanReport,
    adaptive_quadrature,
    bessel_i0_integral,
    residual_scan,
    slope_fit,
    vm_cdf_quadrature,
    vm_cdf_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BulkSpec",
    "CircularVariance",
    "ExpansionValue",
    "QuadratureError",
    "QuadratureResult",
    "ScanReport",
    "SERIES_CUTOFF",
    "StandardizedDeviate",
    "VonMisesParams",
    "WrappedNormalParams",
    "adaptive_quadrature",
    "backend_name",
    "bessel_i0_integral",
    "bessel_i0_series",
    "bessel_i0e_asymptotic",
    "bessel_i1e_asymptotic",
    "cdf_expansion",
    "circular_variance_exact",
    "circular_variance_expansion",
    "in_bulk",
    "log_i0",
    "log_ratio_exact",
    "log_ratio_expansion",
    "matched_sup_gap",
    "matched_wn_scale",
    "normal_cdf",
    "normal_pdf",
    "normalization_log_constant",
    "normalize_angle",
    "ratio_expansion",
    "reference_normal_density",
    "residual_scan",
    "slope_fit",
    "standardized_deviate",
    "upper_incomplete_moment",
    "vm_cdf_quadrature",
    "vm_cdf_sweep",
    "vm_density",
    "vm_log_density",
    "wn_circular_variance",
    "wn_density",
    "wrap_angle",
]
