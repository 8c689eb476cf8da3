import math
import random
import re

import pytest
from references import adaptive_quadrature, i0e_series_reference, i1e_series_reference

from circbridge import backend, oracle
from circbridge.distributions import SQRT2, VonMisesParams
from circbridge.expansions import (
    BulkSpec,
    cdf_expansion,
    log_ratio_exact,
    log_ratio_expansion,
    normalization_log_constant,
    ratio_expansion,
    reference_normal_density,
    standardized_deviate,
)


def sigma_reference(kappa):
    return math.sqrt(
        1.0 - i1e_series_reference(kappa) / i0e_series_reference(kappa)
    )


# ------------------------------------------------------------- deviates


def test_deviate_at_mu_is_zero():
    p = VonMisesParams(0.7, 12.0)
    sd = standardized_deviate(p, p.mu)
    assert sd.delta == 0.0
    assert sd.delta_tilde == 0.0


def test_deviate_linearity():
    # dyadic offsets keep the differences exact, so doubling is exact too
    p = VonMisesParams(0.5, 12.0)
    d1 = standardized_deviate(p, 0.75).delta
    d2 = standardized_deviate(p, 1.0).delta
    assert d2 == 2.0 * d1


def test_deviate_scaling_against_reference():
    p = VonMisesParams(0.0, 50.0)
    sd = standardized_deviate(p, 0.1)
    ref = 0.1 / sigma_reference(50.0)
    assert abs(sd.delta - ref) / ref <= 1e-12
    assert sd.delta_tilde == sd.delta / SQRT2


def test_deviate_at_zero_kappa_is_the_offset():
    # sigma = 1 for the uniform law, so delta = x - mu; the expansions
    # in 1/kappa still need kappa > 0
    p = VonMisesParams(0.5, 0.0)
    assert standardized_deviate(p, 1.25).delta == 1.25 - 0.5
    with pytest.raises(ValueError, match="^kappa must be > 0, got 0.0$"):
        log_ratio_expansion(0.1, 0.0, 2)


# ------------------------------------------------------------- bulk region


def test_bulk_spec_validation():
    with pytest.raises(ValueError):
        BulkSpec.fixed(0.0)
    with pytest.raises(ValueError):
        BulkSpec.fixed(1.0)
    with pytest.raises(ValueError):
        BulkSpec.shrunken(0.0)
    # an infinite eta_tilde fails here, not at the grid
    with pytest.raises(ValueError, match="^eta_tilde must be finite, got inf$"):
        BulkSpec.shrunken(math.inf)
    with pytest.raises(ValueError, match=r"^shrunken regime needs eta_tilde > 0, got nan$"):
        BulkSpec.shrunken(math.nan)
    with pytest.raises(ValueError, match="^fixed regime needs 0 < eta < 1, got inf$"):
        BulkSpec.fixed(math.inf)
    with pytest.raises(ValueError):
        BulkSpec(regime="other", eta=0.5)
    assert BulkSpec.fixed(0.5).delta_halfwidth(100.0) == 5.0
    assert BulkSpec.shrunken(1.0).delta_halfwidth(16.0) == 2.0
    # one parameter field: eta holds eta_tilde in the shrunken regime
    assert BulkSpec.shrunken(1.0).eta == 1.0
    with pytest.raises(TypeError):
        BulkSpec(regime="shrunken", eta_tilde=1.0)


def test_bulk_grid_must_stay_on_the_circle():
    # shrunken, eta_tilde = 10 at kappa = 1: sigma * 10 is about 7.44 rad
    p = VonMisesParams(0.0, 1.0)
    # the hint names the regime's parameter
    with pytest.raises(ValueError, match="kappa=1.0 with eta_tilde=10.0; use a smaller eta_tilde$"):
        BulkSpec.shrunken(10.0).grid(p, 11)
    # the same law with a bulk just inside pi keeps its grid
    sigma = p.sigma
    _dts, xs = BulkSpec.shrunken(0.99 * math.pi / sigma).grid(p, 11)
    assert -math.pi < xs[0] and xs[-1] < math.pi


@pytest.mark.parametrize("size", [1, 2, 4])
def test_bulk_grid_rejects_sizes_that_are_not_odd_and_at_least_3(size):
    # 4 used to give a 3-point grid, and 1 or 2 a ZeroDivisionError
    with pytest.raises(ValueError, match="odd and >= 3, got %d" % size):
        BulkSpec.fixed(0.5).grid(VonMisesParams(0.0, 100.0), size)


def test_bulk_grid_rejects_a_size_that_is_not_int():
    # 5.0 used to raise a bare TypeError from range()
    with pytest.raises(ValueError, match=r"odd and >= 3, got 5\.0$"):
        BulkSpec.fixed(0.5).grid(VonMisesParams(0.0, 100.0), 5.0)


def test_bulk_grid_rejects_kappa_zero():
    # the bulk |delta| <= eta sqrt(kappa) collapses to mu at kappa = 0
    with pytest.raises(ValueError, match="kappa must be > 0"):
        BulkSpec.fixed(0.5).grid(VonMisesParams(0.2, 0.0), 5)


def test_mu_always_in_bulk():
    # the middle point of every bulk grid is mu itself
    p = VonMisesParams(1.0, 37.0)
    for spec in (BulkSpec.fixed(0.1), BulkSpec.shrunken(0.1)):
        dts, xs = spec.grid(p, 11)
        assert dts[5] == 0.0
        assert xs[5] == p.mu


def test_bulk_membership_boundary():
    # the outermost grid points sit on the bulk edge |delta| = 5
    p = VonMisesParams(0.0, 100.0)
    spec = BulkSpec.fixed(0.5)  # |delta| <= 5
    sigma = sigma_reference(100.0)
    _dts, xs = spec.grid(p, 201)
    assert math.isclose(xs[-1], p.mu + 5.0 * sigma, rel_tol=1e-12)
    assert math.isclose(xs[0], p.mu - 5.0 * sigma, rel_tol=1e-12)
    for x in xs:
        assert abs(standardized_deviate(p, x).delta) <= 5.0 * (1.0 + 1e-14)


# --------------------------------------------------------- exact log ratio


def test_log_ratio_exact_small_at_mode():
    p = VonMisesParams(0.0, 1e4)
    v = log_ratio_exact(p, 0.0)
    assert abs(v) <= 1e-3
    # leading behavior at the mode is 3/(64 kappa^2)
    assert math.isclose(v, 3.0 / (64.0 * 1e8), rel_tol=0.0, abs_tol=5e-13)


@pytest.mark.parametrize("t", [0.05, 0.1, 0.2])
def test_log_ratio_exact_even_in_offset(t):
    p = VonMisesParams(1.0, 60.0)
    a = log_ratio_exact(p, 1.0 + t)
    b = log_ratio_exact(p, 1.0 - t)
    assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_log_ratio_exact_agrees_with_expansion():
    kappa = 100.0
    p = VonMisesParams(0.0, kappa)
    sigma = p.sigma
    x = SQRT2 * sigma  # delta_tilde = 1
    exact = log_ratio_exact(p, x)
    approx = log_ratio_expansion(1.0, kappa, 2)
    assert abs(exact - approx.value) <= 10.0 * approx.remainder_scale


def test_log_ratio_exact_matches_mpmath_at_large_kappa():
    # 50 seeded kappa log-uniform on [1e3, 1e6], four points each at 0.1 to
    # 100 sigma: within 2e-15 of 60-digit mpmath, relative to max(1, |value|)
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261022)
    worst = 0.0
    for _ in range(50):
        kappa = 10.0 ** rng.uniform(3.0, 6.0)
        p = VonMisesParams(0.0, kappa)
        with mpmath.workdps(60):
            k = mpmath.mpf(kappa)
            i0 = mpmath.besseli(0, k)
            sigma2 = 1 - mpmath.besseli(1, k) / i0
            mode = mpmath.log(2 * sigma2 / (2 * mpmath.pi)) / 2 - mpmath.log(i0 * mpmath.exp(-k))
            for _ in range(4):
                x = rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-1.0, 2.0) * p.sigma
                t = mpmath.mpf(x)
                ref = mode + k * (mpmath.cos(t) - 1) + t * t / (4 * sigma2)
                worst = max(worst, float(abs(log_ratio_exact(p, x) - ref) / max(1, abs(ref))))
    assert worst <= 2e-15


def test_log_ratio_exact_is_a_number_at_the_largest_kappa():
    # sigma^2 is subnormal there; the value is finite to 30 sigma from mu
    # and inf where it overflows, never nan
    p = VonMisesParams(0.0, backend._KAPPA_MAX)
    near = [log_ratio_exact(p, t * p.sigma) for t in (0.0, 1e-3, 1.0, 30.0)]
    assert all(math.isfinite(v) and abs(v) < 1e-12 for v in near)
    far = [log_ratio_exact(p, x) for x in (-math.pi, -1e-3, 1e-3, 1.0, math.pi)]
    assert not any(math.isnan(v) for v in far)
    assert far[1] > 1e290 and far[-1] == math.inf


# ------------------------------------------------------------- expansions


def test_log_ratio_expansion_constant_term():
    out = log_ratio_expansion(0.0, 8.0, 2)
    assert out.value == 0.000732421875  # 3/64 / 64
    assert out.order == 2


def test_log_ratio_expansion_first_order_root():
    v = log_ratio_expansion(math.sqrt(3.0), 123.0, 1).value
    assert abs(v) <= 1e-16


def test_log_ratio_expansion_order_two_value():
    got = log_ratio_expansion(2.0, 10.0, 2).value
    want = (16.0 / 24.0 - 4.0 / 8.0) / 10.0 + (
        -64.0 / 720.0 + 16.0 / 48.0 - 4.0 / 8.0 + 3.0 / 64.0
    ) / 100.0
    assert math.isclose(got, want, rel_tol=1e-14)


def test_log_ratio_expansion_remainder_scale():
    out = log_ratio_expansion(2.0, 10.0, 2)
    assert math.isclose(out.remainder_scale, (1.0 + 2.0 ** 8) / 1000.0, rel_tol=1e-15)
    with pytest.raises(ValueError):
        log_ratio_expansion(1.0, 10.0, 3)
    with pytest.raises(ValueError):
        log_ratio_expansion(1.0, 0.0, 2)


def test_ratio_expansion_constant_term():
    out = ratio_expansion(0.0, 8.0, 2)
    assert out.value == 1.0 + 3.0 / 4096.0


def test_ratio_expansion_first_order_root():
    assert abs(ratio_expansion(math.sqrt(3.0), 55.0, 1).value - 1.0) <= 1e-16


def test_ratio_expansion_remainder_scale():
    out = ratio_expansion(2.0, 10.0, 2)
    assert math.isclose(out.remainder_scale, (1.0 + 2.0 ** 12) / 1000.0, rel_tol=1e-15)


@pytest.mark.parametrize("kappa", [50.0, 200.0])
def test_exp_of_log_expansion_close_to_ratio_expansion(kappa):
    # the gap is exactly the third-order cross terms dropped when
    # exponentiating, so it sits inside the ratio-form envelope
    for j in range(-10, 11):
        dt = 0.2 * j
        a = math.exp(log_ratio_expansion(dt, kappa, 2).value)
        b = ratio_expansion(dt, kappa, 2).value
        bound = 20.0 * (1.0 + abs(dt) ** 12) / kappa ** 3
        assert abs(a - b) <= bound


@pytest.mark.parametrize("order", [True, False, 2.0, 1.0, 0, 3, "1"])
@pytest.mark.parametrize("expansion", [log_ratio_expansion, ratio_expansion])
def test_expansion_order_must_be_the_int_1_or_2(expansion, order):
    # True == 1 and 2.0 == 2, so a test by membership alone would take them
    with pytest.raises(ValueError, match=r"^order must be 1 or 2, got %s$" % re.escape(repr(order))):
        expansion(0.5, 10.0, order)


def test_order_two_beats_order_one():
    # grid spaced to stay clear of the second-order coefficient root near
    # |dt| ~ 0.63, where both orders share the same kappa^-3 remainder
    for kappa in [64.0, 256.0, 1024.0]:
        p = VonMisesParams(0.0, kappa)
        for j in range(-4, 5):
            dt = 0.5 * j
            x = SQRT2 * p.sigma * dt
            exact = log_ratio_exact(p, x)
            r1 = abs(exact - log_ratio_expansion(dt, kappa, 1).value)
            r2 = abs(exact - log_ratio_expansion(dt, kappa, 2).value)
            assert r2 < r1


# ----------------------------------------------------------- cdf expansion


def test_cdf_expansion_center():
    for kappa in [8.0, 100.0, 4096.0]:
        assert cdf_expansion(0.0, kappa).value == 0.5


def test_cdf_expansion_antisymmetric_exactly():
    for kappa in [10.0, 100.0]:
        for dt in [0.25, 0.5, 1.0, 2.0, 3.0]:
            s = cdf_expansion(dt, kappa).value + cdf_expansion(-dt, kappa).value
            assert s == 1.0


def test_cdf_expansion_matches_quadrature():
    kappa = 100.0
    p = VonMisesParams(0.0, kappa)
    sigma = p.sigma
    x = SQRT2 * sigma
    ref = oracle.vm_cdf_quadrature(p, x, 1e-13)
    got = cdf_expansion(1.0, kappa).value
    assert abs(got - ref) <= 10.0 * 2.0 / kappa ** 3


def test_cdf_expansion_stays_in_unit_interval():
    for kappa in [10.0, 30.0, 1000.0]:
        for j in range(-30, 31):
            dt = 0.1 * j
            v = cdf_expansion(dt, kappa).value
            assert 0.0 <= v <= 1.0


def test_cdf_expansion_remainder_scale():
    out = cdf_expansion(-2.0, 10.0)
    assert math.isclose(out.remainder_scale, (1.0 + 2.0 ** 11) / 1000.0, rel_tol=1e-15)
    with pytest.raises(ValueError):
        cdf_expansion(1.0, -3.0)


@pytest.mark.parametrize("kappa", [1e-120, 1e-200, 5e-324])
def test_expansions_reject_kappa_where_inverse_cube_overflows(kappa):
    message = "kappa=%r is too small" % kappa
    for call in (
        lambda: log_ratio_expansion(0.5, kappa, 1),
        lambda: log_ratio_expansion(0.5, kappa, 2),
        lambda: ratio_expansion(0.5, kappa, 2),
        lambda: cdf_expansion(0.5, kappa),
        lambda: normalization_log_constant(kappa, "expansion"),
    ):
        with pytest.raises(ValueError, match=message):
            call()


@pytest.mark.parametrize("dt", [math.nan, math.inf, -math.inf, 1e40])
def test_expansions_reject_deviate_where_remainder_scale_is_not_finite(dt):
    for target, call in (
        ("log_ratio", lambda: log_ratio_expansion(dt, 100.0, 2)),
        ("ratio", lambda: ratio_expansion(dt, 100.0, 2)),
        ("cdf", lambda: cdf_expansion(dt, 100.0)),
    ):
        with pytest.raises(ValueError, match="delta_tilde=.* the %s expansion's range" % target):
            call()


@pytest.mark.parametrize(
    "dt, kappa, reason",
    [
        # |dt|^11 = 1e22 is finite, but not its product with 1/kappa^3 = 1e300
        (100.0, 1e-100, "its remainder scale (1 + |delta_tilde|^11) / kappa^3 is not finite"),
        # |dt|^11 overflows, though the scale 1e440 / 1e171 would be finite
        (1e40, 1e57, "|delta_tilde|^11 in its remainder scale (1 + |delta_tilde|^11) / kappa^3"
         " overflows"),
    ],
    ids=["product", "power"],
)
def test_cdf_remainder_scale_message_names_what_overflows(dt, kappa, reason):
    with pytest.raises(ValueError) as info:
        cdf_expansion(dt, kappa)
    assert str(info.value) == (
        "delta_tilde=%r is outside the cdf expansion's range at this kappa: %s" % (dt, reason)
    )


def test_expansions_finite_at_kappa_1e_minus_100():
    kappa = 1e-100
    for dt in (-2.0, 0.0, 1e-3, 2.0):
        for out in (
            log_ratio_expansion(dt, kappa, 1),
            log_ratio_expansion(dt, kappa, 2),
            ratio_expansion(dt, kappa, 2),
            cdf_expansion(dt, kappa),
        ):
            assert math.isfinite(out.value) and math.isfinite(out.remainder_scale)
    assert math.isfinite(normalization_log_constant(kappa, "expansion"))


# ------------------------------------------------- reference normal density


def test_reference_density_at_mu():
    kappa = 25.0
    p = VonMisesParams(0.0, kappa)
    sigma = p.sigma
    got = reference_normal_density(p, 0.0)
    assert math.isclose(got, 1.0 / (2.0 * sigma * math.sqrt(math.pi)), rel_tol=1e-14)


def test_reference_density_normalizes():
    kappa = 25.0
    p = VonMisesParams(0.0, kappa)
    sigma = p.sigma
    halfwidth = 12.0 * SQRT2 * sigma
    r = adaptive_quadrature(
        lambda x: reference_normal_density(p, x), -halfwidth, halfwidth, 1e-11
    )
    assert abs(r.value - 1.0) <= 1e-10


def test_reference_density_close_to_vm_at_high_concentration():
    from circbridge.distributions import vm_density

    p = VonMisesParams(0.0, 400.0)
    ref = reference_normal_density(p, 0.0)
    vm = vm_density(p, 0.0)
    assert abs(ref - vm) / vm <= 0.02


# --------------------------------------------------- normalization constant


def test_normalization_constant_modes_agree():
    kappa = 100.0
    gap = abs(
        normalization_log_constant(kappa, "exact", centered=True)
        - normalization_log_constant(kappa, "expansion", centered=True)
    )
    assert gap <= 50.0 / kappa ** 4


def test_normalization_constant_expansion_value():
    # closed form at kappa = 2: -2 + 3/256 + 13/1024
    got = normalization_log_constant(2.0, "expansion")
    assert got == -2.0 + 3.0 / 256.0 + 13.0 / 1024.0


def test_normalization_constant_centered_shrinks():
    vals = [
        abs(normalization_log_constant(k, "exact", centered=True))
        for k in [64.0, 256.0, 1024.0]
    ]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_normalization_constant_full_vs_centered():
    k = 37.0
    full = normalization_log_constant(k, "exact")
    centered = normalization_log_constant(k, "exact", centered=True)
    assert math.isclose(full, centered - k, rel_tol=1e-15)
    with pytest.raises(ValueError):
        normalization_log_constant(10.0, "bogus")
    with pytest.raises(ValueError):
        normalization_log_constant(0.0)
