"""circbridge: numerics connecting the circular and linear normal laws.

Exact circular normal and wrapped normal densities, the matched-scale
relation between their dispersions, the asymptotic brackets of the
modified Bessel functions I0 and I1, local density/CDF approximations
for large concentration with controlled error order, and brute-force
oracles plus scan machinery to validate every claimed order empirically.
"""

from .backend import backend_name
from .bessel import bessel_i0e_asymptotic, bessel_i1e_asymptotic
from .distributions import (
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
    wn_density,
    wrap_angle,
)
from .expansions import (
    BulkSpec,
    ExpansionValue,
    StandardizedDeviate,
    cdf_expansion,
    log_ratio_exact,
    log_ratio_expansion,
    normalization_log_constant,
    ratio_expansion,
    reference_normal_density,
    standardized_deviate,
)
from .oracle import (
    QuadratureError,
    ScanReport,
    residual_scan,
    slope_fit,
    vm_cdf_quadrature,
    vm_cdf_sweep,
)

__version__ = "0.1.0"

__all__ = [
    "BulkSpec",
    "ExpansionValue",
    "QuadratureError",
    "ScanReport",
    "StandardizedDeviate",
    "VonMisesParams",
    "WrappedNormalParams",
    "backend_name",
    "bessel_i0e_asymptotic",
    "bessel_i1e_asymptotic",
    "cdf_expansion",
    "circular_variance_exact",
    "circular_variance_expansion",
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
    "wn_density",
    "wrap_angle",
]
