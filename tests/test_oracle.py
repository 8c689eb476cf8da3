import math

import pytest

from circbridge import backend, bessel, oracle
from circbridge.distributions import VonMisesParams, WrappedNormalParams, vm_density, wn_density
from circbridge.expansions import BulkSpec
from circbridge.oracle import (
    QuadratureError,
    adaptive_quadrature,
    bessel_i0_integral,
    residual_scan,
    slope_fit,
    vm_cdf_quadrature,
)


# ----------------------------------------------------------- quadrature


def test_integrates_constant_exactly():
    r = adaptive_quadrature(lambda t: 1.0, 0.0, 1.0, 1e-12)
    assert r.value == 1.0
    assert r.evaluations == 15


def test_vm_normalization():
    p = VonMisesParams(0.0, 5.0)
    r = adaptive_quadrature(lambda th: vm_density(p, th), -math.pi, math.pi, 1e-11)
    assert abs(r.value - 1.0) <= 1e-10
    assert r.abs_error_estimate <= 1e-11
    # full period starting at the mode: peak sits on both endpoints
    r2 = adaptive_quadrature(lambda th: vm_density(p, th), 0.0, 2.0 * math.pi, 1e-11)
    assert abs(r2.value - 1.0) <= 1e-10


def test_cosine_cancels_over_half_period():
    r = adaptive_quadrature(math.cos, 0.0, math.pi, 1e-12)
    assert abs(r.value) <= 1e-12


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1e-12])
@pytest.mark.parametrize(
    "call",
    [
        lambda tol: adaptive_quadrature(math.cos, 0.0, 1.0, tol),
        lambda tol: vm_cdf_quadrature(VonMisesParams(0.0, 100.0), 0.1, tol),
        lambda tol: bessel_i0_integral(2.0, tol),
        lambda tol: wn_density(WrappedNormalParams(0.0, 1.0), 0.0, tol),
    ],
    ids=["adaptive_quadrature", "vm_cdf_quadrature", "bessel_i0_integral", "wn_density"],
)
def test_tol_must_be_finite_and_positive(call, tol):
    with pytest.raises(ValueError, match="^tol must be finite and > 0"):
        call(tol)


def test_quadrature_validates_input():
    with pytest.raises(ValueError):
        adaptive_quadrature(math.sin, 1.0, 0.0, 1e-10)
    with pytest.raises(ValueError):
        adaptive_quadrature(math.sin, 0.0, 1.0, 0.0)


def test_quadrature_nonconvergence_raises():
    # no panel meets tol=1e-300, so bisection fails at its fixed depth
    p = VonMisesParams(0.0, 500.0)
    with pytest.raises(QuadratureError):
        adaptive_quadrature(lambda th: vm_density(p, th), -math.pi, math.pi, 1e-300)
    with pytest.raises(QuadratureError):
        adaptive_quadrature(lambda t: 1.0 if t > 0.3 else 0.0, 0.0, 1.0, 1e-300)


def test_quadrature_halving_tolerance_never_hurts():
    p = VonMisesParams(0.0, 5.0)
    tol = 1e-3
    errors = []
    for _ in range(12):
        r = adaptive_quadrature(lambda th: vm_density(p, th), -math.pi, math.pi, tol)
        errors.append(abs(r.value - 1.0))
        tol *= 0.5
    assert all(b <= a for a, b in zip(errors, errors[1:]))


# ---------------------------------------------------------------- kernels


def test_backend_name_is_python():
    assert backend.backend_name() == "python"


def test_vm_scaled_mass_empty_interval():
    assert backend.vm_scaled_mass(5.0, 1.0, 1.0, 1e-10) == (0.0, 0.0, 0)


@pytest.mark.parametrize("kappa", [0.5, 5.0, 100.0, 2048.0, 1e5])
@pytest.mark.parametrize("hi", [-3.0, -0.01, 0.02, 0.5, math.pi])
def test_vm_scaled_mass_matches_generic_engine_bitwise(kappa, hi):
    # the in-line vm panel must be the generic panel applied to the
    # scaled density, operation for operation
    def f(t):
        u = math.sin(0.5 * t)
        return math.exp(-2.0 * kappa * (u * u))

    got = backend.vm_scaled_mass(kappa, -math.pi, hi, 1e-13)
    ref = backend.adaptive_gk15(backend.gk15_panel, f, -math.pi, hi, 1e-13)
    assert got == ref


# --------------------------------------------------- integral representation


def test_i0_integral_at_zero():
    assert abs(bessel_i0_integral(0.0, 1e-13) - 1.0) <= 1e-14


def test_i0_integral_matches_series():
    got = bessel_i0_integral(2.0, 1e-13)
    ref = bessel.bessel_i0_series(2.0).value
    assert abs(got - ref) / ref <= 1e-12


def test_i0_integral_vs_asymptotic_scaled():
    # the order-3 bracket truncates at ~0.11/kappa^4, which sets the
    # attainable agreement at each concentration
    scaled30 = bessel_i0_integral(30.0, 1e-13) * math.exp(-30.0)
    asym30 = bessel.bessel_i0e_asymptotic(30.0, 3) / math.sqrt(2.0 * math.pi * 30.0)
    assert abs(scaled30 - asym30) / asym30 <= 3e-7
    scaled150 = bessel_i0_integral(150.0, 1e-13) * math.exp(-150.0)
    asym150 = bessel.bessel_i0e_asymptotic(150.0, 3) / math.sqrt(2.0 * math.pi * 150.0)
    assert abs(scaled150 - asym150) / asym150 <= 1e-9


def test_i0_integral_guards():
    with pytest.raises(ValueError):
        bessel_i0_integral(701.0, 1e-10)
    with pytest.raises(ValueError):
        bessel_i0_integral(-1.0, 1e-10)


def test_i0_integral_independent_of_series(monkeypatch):
    # structural independence: the integral route must not touch the
    # series code paths
    def boom(*a, **k):
        raise AssertionError("series code path used by the integral oracle")

    monkeypatch.setattr(bessel, "bessel_i0_series", boom)
    monkeypatch.setattr(backend, "i0_series_sum", boom)
    got = bessel_i0_integral(2.0, 1e-13)
    monkeypatch.undo()
    ref = bessel.bessel_i0_series(2.0).value
    assert abs(got - ref) / ref <= 1e-12


# ------------------------------------------------------------- vm cdf


def test_vm_cdf_half_at_mu():
    p = VonMisesParams(0.0, 20.0)
    assert abs(vm_cdf_quadrature(p, 0.0, 1e-13) - 0.5) <= 1e-12


def test_vm_cdf_one_at_window_end():
    p = VonMisesParams(0.0, 20.0)
    assert abs(vm_cdf_quadrature(p, math.pi, 1e-11) - 1.0) <= 1e-10


def test_vm_cdf_tiny_near_window_start():
    p = VonMisesParams(0.0, 20.0)
    assert vm_cdf_quadrature(p, -math.pi + 1e-9, 1e-13) <= 1e-12


def test_vm_cdf_monotone():
    p = VonMisesParams(0.0, 20.0)
    xs = [-math.pi + (j + 1) * (2.0 * math.pi / 52.0) for j in range(51)]
    vals = [vm_cdf_quadrature(p, x, 1e-12) for x in xs]
    # adjacent quadratures round independently, so the saturated end can
    # wobble by an ulp of 1.0
    assert all(b >= a - 5e-16 for a, b in zip(vals, vals[1:]))


def test_vm_cdf_nonconvergence_raises():
    for kappa in (0.5, 100.0, 500.0, 3000.0):
        with pytest.raises(QuadratureError, match="at depth 40"):
            vm_cdf_quadrature(VonMisesParams(0.0, kappa), 0.0, 1e-300)


def test_vm_cdf_window_domain():
    p = VonMisesParams(0.0, 5.0)
    with pytest.raises(ValueError):
        vm_cdf_quadrature(p, -math.pi, 1e-10)
    with pytest.raises(ValueError):
        vm_cdf_quadrature(p, math.pi + 0.1, 1e-10)
    with pytest.raises(ValueError):
        vm_cdf_quadrature(VonMisesParams(0.0, 0.0), 0.5, 1e-10)


def test_vm_cdf_may_exceed_one_by_at_most_tol():
    # the result is within tol of F and is not clamped
    tol = 1e-12
    got = vm_cdf_quadrature(VonMisesParams(0.0, 3000.0), math.pi, tol)
    assert 1.0 < got <= 1.0 + tol


def test_vm_cdf_very_large_kappa_clipped_domain():
    p = VonMisesParams(0.0, 1e5)
    assert abs(vm_cdf_quadrature(p, 0.0, 1e-12) - 0.5) <= 1e-11
    assert abs(vm_cdf_quadrature(p, math.pi, 1e-11) - 1.0) <= 1e-10


# ------------------------------------------------------------- slope fit


def test_slope_fit_exact_decays():
    assert abs(slope_fit([(1.0, 1.0), (2.0, 0.125), (4.0, 1.0 / 64.0)]) + 3.0) <= 1e-12
    assert abs(slope_fit([(1.0, 2.0), (10.0, 2.0), (100.0, 2.0)])) <= 1e-12
    assert abs(slope_fit([(1.0, 1.0), (2.0, 0.25), (4.0, 0.0625)]) + 2.0) <= 1e-12


def test_slope_fit_synthetic_cubic_power_law():
    c = 0.37
    pts = [(k, c / k ** 3) for k in [1.0, 2.0, 4.0, 8.0, 16.0]]
    assert abs(slope_fit(pts) + 3.0) <= 1e-9


def test_slope_fit_usage_errors():
    with pytest.raises(ValueError):
        slope_fit([(1.0, 1.0), (2.0, 0.5)])
    with pytest.raises(ValueError):
        slope_fit([(1.0, 1.0), (1.0, 0.5), (2.0, 0.25)])
    with pytest.raises(ValueError):
        slope_fit([(1.0, 1.0), (2.0, 0.0), (3.0, 0.5)])
    with pytest.raises(ValueError):
        slope_fit([(1.0, 1.0), (-2.0, 0.5), (3.0, 0.5)])


# ------------------------------------------------------------ residual scan


def test_residual_scan_validation():
    spec = BulkSpec.fixed(0.5)
    with pytest.raises(ValueError):
        residual_scan(spec, [], 21, "log_ratio")
    with pytest.raises(ValueError):
        residual_scan(spec, [32.0, 64.0, 128.0], 20, "log_ratio")
    with pytest.raises(ValueError):
        residual_scan(spec, [32.0, 64.0, 128.0], 9, "log_ratio")
    with pytest.raises(ValueError):
        residual_scan(spec, [32.0, 64.0, 128.0], 21, "bogus")
    with pytest.raises(ValueError):
        residual_scan(spec, [32.0, -1.0, 128.0], 21, "log_ratio")


def test_residual_scan_log_ratio_structure():
    spec = BulkSpec.fixed(0.5)
    kappas = [32.0, 64.0, 128.0, 256.0]
    rep = residual_scan(spec, kappas, 21, "log_ratio")
    assert rep.kappa_values == tuple(kappas)
    assert len(rep.max_residual) == len(kappas)
    assert len(rep.max_normalized_residual) == len(kappas)
    assert rep.grid_size == 21
    assert all(r > 0.0 for r in rep.max_residual)
    assert -3.5 < rep.fitted_slope < -2.5


def test_residual_scan_cdf_max_residual_non_increasing():
    spec = BulkSpec.fixed(0.5)
    rep = residual_scan(spec, [32.0, 64.0, 128.0, 256.0], 21, "cdf")
    mr = rep.max_residual
    assert all(b <= a for a, b in zip(mr, mr[1:]))


def test_residual_scan_shrunken_regime():
    rep = residual_scan(BulkSpec.shrunken(1.0), [64.0, 128.0, 256.0], 11, "ratio")
    assert -3.5 < rep.fitted_slope < -2.5
