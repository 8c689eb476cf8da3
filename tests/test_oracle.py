import contextlib
import math
import random

import pytest
from references import bessel_i0_integral

from circbridge import backend, bessel, cli, oracle
from circbridge.distributions import VonMisesParams, WrappedNormalParams, vm_density, wn_density
from circbridge.expansions import BulkSpec
from circbridge.oracle import (
    QuadratureError,
    adaptive_quadrature,
    residual_scan,
    slope_fit,
    vm_cdf_quadrature,
    vm_cdf_sweep,
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
    ref = bessel.i0e(2.0) * math.exp(2.0)
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
    # structural independence: the integral reference must not touch the
    # per-kappa kernel it checks
    def boom(*a, **k):
        raise AssertionError("per-kappa kernel used by the integral reference")

    monkeypatch.setattr(backend, "i0e_sigma2", boom)
    got = bessel_i0_integral(2.0, 1e-13)
    monkeypatch.undo()
    ref = bessel.i0e(2.0) * math.exp(2.0)
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


def test_vm_cdf_at_zero_kappa_is_uniform():
    # kappa = 0 is the uniform law: F(x) = 1/2 + (x - mu) / (2 pi)
    p = VonMisesParams(1.0, 0.0)
    tol = 1e-12
    xs = [p.mu - math.pi + 2.0 * math.pi * j / 200.0 for j in range(1, 201)]
    got = vm_cdf_sweep(p, xs, tol)
    assert max(abs(g - (0.5 + (x - p.mu) / (2.0 * math.pi))) for g, x in zip(got, xs)) <= tol


def test_vm_cdf_monotone():
    p = VonMisesParams(0.0, 20.0)
    xs = [-math.pi + (j + 1) * (2.0 * math.pi / 52.0) for j in range(51)]
    vals = [vm_cdf_quadrature(p, x, 1e-12) for x in xs]
    # adjacent quadratures round independently, so the saturated end can
    # wobble by an ulp of 1.0
    assert all(b >= a - 5e-16 for a, b in zip(vals, vals[1:]))


def test_vm_cdf_nonconvergence_raises():
    # x = mu needs no quadrature, so the failing points lie off the mode;
    # at kappa = 0.5 shorter segments (x = 1.0, -2.0, 3.0) still converge
    cases = [(0.5, math.pi)] + [(k, x) for k in (100.0, 500.0, 3000.0) for x in (1.0, -2.0)]
    for kappa, x in cases:
        with pytest.raises(QuadratureError, match="at depth 40"):
            vm_cdf_quadrature(VonMisesParams(0.0, kappa), x, 1e-300)


def test_vm_cdf_window_domain():
    p = VonMisesParams(0.0, 5.0)
    with pytest.raises(ValueError):
        vm_cdf_quadrature(p, -math.pi, 1e-10)
    with pytest.raises(ValueError):
        vm_cdf_quadrature(p, math.pi + 0.1, 1e-10)
    # kappa = 0, the uniform law, is in the domain
    uniform = vm_cdf_quadrature(VonMisesParams(0.0, 0.0), 0.5, 1e-10)
    assert abs(uniform - (0.5 + 0.5 / (2.0 * math.pi))) <= 1e-10


def test_vm_cdf_may_exceed_one_by_at_most_tol():
    # the result is within tol of F and is not clamped, so at either end of
    # the window it may leave [0, 1] by up to tol
    tol = 1e-12
    p = VonMisesParams(0.0, 3000.0)
    top = vm_cdf_quadrature(p, math.pi, tol)
    bottom = vm_cdf_quadrature(p, -math.pi + 1e-15, tol)
    assert -tol <= bottom <= tol
    assert 1.0 - tol <= top <= 1.0 + tol


def test_vm_cdf_very_large_kappa_clipped_domain():
    p = VonMisesParams(0.0, 1e5)
    assert abs(vm_cdf_quadrature(p, 0.0, 1e-12) - 0.5) <= 1e-11
    assert abs(vm_cdf_quadrature(p, math.pi, 1e-11) - 1.0) <= 1e-10


def test_vm_cdf_pinned_value():
    # one point through the sweep: 1/2 plus the mass on [mu, x], one
    # segment at tol / inv_norm, so reruns give these bits
    got = vm_cdf_quadrature(VonMisesParams(0.0, 100.0), 0.1)
    assert got == 0.8409395426154801
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        kappa = mpmath.mpf(100)
        mass = mpmath.quad(
            lambda t: mpmath.exp(-2 * kappa * mpmath.sin(t / 2) ** 2),
            [-mpmath.pi, -1, -0.3, 0, 0.1],
        )
        ref = mass / (2 * mpmath.pi * mpmath.besseli(0, kappa) * mpmath.exp(-kappa))
        assert abs(got - ref) <= 2e-16


def _sweep_grid(kappa, mu):
    # points out to 30 sigma (so the 20-sigma anchor lies inside), clipped
    # to the window, plus points in both tails
    sigma = VonMisesParams(mu, kappa).sigma
    ts = [j * 1.5 * sigma for j in range(-20, 21)] + [-3.0, -1.0, 1.0, 3.0, math.pi]
    return [mu + t for t in sorted(set(ts)) if -math.pi < t <= math.pi]


@pytest.mark.parametrize("tol", [1e-12, 1e-10])
@pytest.mark.parametrize("kappa", [1e-3, 2.0, 299.5, 600.75, 4096.0, 1e5])
def test_vm_cdf_sweep_matches_per_point_within_tol(kappa, tol):
    p = VonMisesParams(1.0, kappa)
    xs = _sweep_grid(kappa, 1.0)
    swept = vm_cdf_sweep(p, xs, tol)
    assert len(swept) == len(xs)
    for x, f in zip(xs, swept):
        assert abs(f - vm_cdf_quadrature(p, x, tol)) <= tol


@pytest.mark.parametrize("lo", [-25.0, -19.0])
def test_vm_cdf_sweep_very_large_kappa_across_20_sigma(lo):
    # the farthest point lies 25 sigma out, below the mode or only above
    # it; either way the +20 sigma cut is made once and each value is
    # within tol of the per-point one
    p = VonMisesParams(0.0, 3e5)
    sigma = p.sigma
    xs = [(lo + 0.5 * j) * sigma for j in range(int(2 * (25.0 - lo)) + 1)]
    tol = 1e-12
    swept = vm_cdf_sweep(p, xs, tol)
    for x, f in zip(xs, swept):
        assert abs(f - vm_cdf_quadrature(p, x, tol)) <= tol
    assert abs(swept[-1] - 1.0) <= tol


def test_vm_cdf_sweep_is_monotone_and_repeats_equal_points():
    # every value is a running sum of non-negative segment masses
    p = VonMisesParams(0.0, 20.0)
    xs = [-math.pi + (j + 1) * (2.0 * math.pi / 52.0) for j in range(51)]
    xs[10:10] = [xs[10]]
    vals = vm_cdf_sweep(p, xs, 1e-12)
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[10] == vals[11]


@pytest.mark.parametrize("mu", [0.0, 1.0, -2.5])
def test_vm_cdf_point_integrates_only_from_mu(count_calls, mu):
    # F(mu) is exactly 1/2 with no quadrature; a point within 20 sigma is
    # one segment, and one beyond it two (the cut at 20 sigma)
    calls = count_calls(backend, "vm_scaled_mass")
    for kappa in (1e-3, 2.0, 1e6):
        p = VonMisesParams(mu, kappa)
        assert vm_cdf_quadrature(p, p.mu) == 0.5
        assert vm_cdf_sweep(p, [p.mu, p.mu]) == [0.5, 0.5]
    assert calls == []
    p = VonMisesParams(mu, 1e6)
    for t, segments in ((-3.0, 1), (19.0, 1), (-25.0, 2), (1000.0, 2)):
        del calls[:]
        vm_cdf_quadrature(p, p.mu + t * p.sigma)
        assert len(calls) == segments


@pytest.mark.parametrize("kappa", [1e-3, 2.0, 100.0, 1e4, 1e6])
def test_vm_cdf_is_symmetric_about_mu(kappa):
    # F(mu - t) and F(mu + t) are 1/2 minus and plus the same mass
    p = VonMisesParams(0.0, kappa)
    sigma = p.sigma
    ts = sorted(t for t in (0.3 * sigma, 2.0 * sigma, 30.0 * sigma, 1.0, 3.14) if t < math.pi)
    swept = vm_cdf_sweep(p, [-t for t in reversed(ts)] + ts)
    below = swept[len(ts) - 1 :: -1]
    above = swept[len(ts) :]
    for t, lo, hi in zip(ts, below, above):
        assert abs(lo + hi - 1.0) <= 4 * math.ulp(1.0)
        assert abs(vm_cdf_quadrature(p, -t) + vm_cdf_quadrature(p, t) - 1.0) <= 4 * math.ulp(1.0)


def _mpmath_cdf(mpmath, kappa, t):
    # mass from -pi to t, integrated forwards (not from the mode), split at
    # a few widths 1/sqrt(kappa) so the quadrature resolves the peak
    k = mpmath.mpf(kappa)
    width = min(mpmath.pi, 1 / mpmath.sqrt(k))
    cuts = [c * width for c in (-40, -8, -2, 0, 2, 8, 40)]
    pts = [-mpmath.pi] + [c for c in cuts if -mpmath.pi < c < t] + [t]
    mass = mpmath.quad(lambda u: mpmath.exp(-2 * k * mpmath.sin(u / 2) ** 2), pts)
    return mass / (2 * mpmath.pi * mpmath.besseli(0, k) * mpmath.exp(-k))


@pytest.mark.parametrize("kappa", [1e-3, 0.5, 2.0, 100.0, 1e4, 1e6])
def test_vm_cdf_matches_mpmath_on_both_sides(kappa):
    mpmath = pytest.importorskip("mpmath")
    tol = 1e-12
    mu = 0.75
    p = VonMisesParams(mu, kappa)
    sigma = p.sigma
    ts = [0.3 * sigma, 2.0 * sigma, 7.0 * sigma, 1.0, math.pi - 1e-6]
    ts = sorted(s * t for t in ts for s in (-1.0, 1.0) if t < math.pi) + [math.pi]
    xs = [mu + t for t in ts]
    swept = vm_cdf_sweep(p, xs, tol)
    with mpmath.workdps(30):
        for x, f in zip(xs, swept):
            ref = _mpmath_cdf(mpmath, kappa, mpmath.mpf(x) - mpmath.mpf(mu))
            assert abs(f - ref) <= tol
            assert abs(vm_cdf_quadrature(p, x, tol) - ref) <= tol


@pytest.mark.parametrize(
    "xs, message",
    [
        ([], "must not be empty"),
        ([0.0, 4.0, 0.5], "principal window"),
        ([0.0, math.nan, 0.5], "principal window"),
        ([-math.pi, 0.0], "principal window"),
        ([0.0, math.pi + 0.1], "principal window"),
        ([math.nan], "principal window"),
    ],
)
def test_vm_cdf_sweep_rejects_bad_points(xs, message):
    with pytest.raises(ValueError, match=message):
        vm_cdf_sweep(VonMisesParams(0.0, 5.0), xs)


@pytest.mark.parametrize("kappa", [1e-3, 2.0, 4096.0, 1e5])
def test_sweep_takes_points_in_any_order(kappa, count_calls):
    # the cuts are a sorted set, so shuffled points get the sorted
    # points' values, permuted, from as many segments
    p = VonMisesParams(0.7, kappa)
    rng = random.Random(14)
    grid = BulkSpec.fixed(0.5).grid(p, 201)[1]
    scattered = [p.mu + rng.uniform(-math.pi, math.pi) for _ in range(60)]
    scattered = [x for x in scattered if -math.pi < x - p.mu <= math.pi]
    scattered += scattered[:5] + [p.mu]  # repeats and the mode
    calls = count_calls(backend, "vm_scaled_mass")
    for xs in (grid, scattered):
        ordered = sorted(xs)
        shuffled = list(xs)
        rng.shuffle(shuffled)
        assert shuffled != ordered
        start = len(calls)
        by_x = dict(zip(ordered, vm_cdf_sweep(p, ordered)))
        middle = len(calls)
        assert vm_cdf_sweep(p, shuffled) == [by_x[x] for x in shuffled]
        assert len(calls) - middle == middle - start > 0


def test_table_integrates_each_segment_once(count_calls, capsys):
    # one sweep outwards from the mode: at mu = 0 the grid's offsets pair
    # up, so one segment per distinct |x - mu| > 0 (100 of them) plus the
    # +20 sigma cut (the grid reaches 32 sigma)
    calls = count_calls(backend, "vm_scaled_mass")
    assert cli.run(["table", "--mu", "0", "--kappa", "4096", "--grid", "201"]) == 0
    capsys.readouterr()
    assert 0 < len(calls) <= (201 + 1) // 2 + 1


def test_sweep_cuts_at_each_distinct_offset_once(count_calls):
    # the cuts are 0, 0.5r, r, 2r and 3r: the 20 sigma reach r is also a
    # point's offset, so it adds no zero-length segment
    p = VonMisesParams(0.0, 1e4)
    r = 20.0 * p.sigma
    calls = count_calls(backend, "vm_scaled_mass")
    vm_cdf_sweep(p, [-2.0 * r, -r, 0.5 * r, r, 3.0 * r])
    assert len(calls) == 4


def test_table_sweep_cuts_at_each_distinct_offset(count_calls, capsys):
    # off mu = 0 rounding splits some of the grid's paired offsets; one
    # segment ends at each distinct |x - mu| > 0 and one at the 20 sigma
    # reach (the grid reaches 32 sigma)
    calls = count_calls(backend, "vm_scaled_mass")
    assert cli.run(["table", "--mu", "1.3", "--kappa", "4096", "--grid", "201"]) == 0
    capsys.readouterr()
    p = VonMisesParams(1.3, 4096.0)
    _dts, xs = BulkSpec.fixed(0.5).grid(p, 201)
    offsets = {abs(x - p.mu) for x in xs} - {0.0}
    assert len(calls) == len(offsets) + 1 == 105


@pytest.mark.parametrize(
    "kappas, outcome",
    [
        pytest.param([1024.0, 1280.0, 1536.0], contextlib.nullcontext(), id="1024.0"),
        # the residuals sink below the floating-point floor at these
        # kappas, so the scan fails after its work
        pytest.param(
            [16384.0, 32768.0, 65536.0],
            pytest.raises(ValueError, match="too few residuals"),
            id="16384.0",
        ),
    ],
)
def test_cdf_residual_scan_integrates_each_segment_once(count_calls, kappas, outcome):
    # per kappa, one sweep over the paired offsets of the grid (plus the
    # +20 sigma cut) and the slope point's own quadrature
    calls = count_calls(backend, "vm_scaled_mass")
    with outcome:
        residual_scan(BulkSpec.fixed(0.5), kappas, 201, "cdf")
    assert sorted(set(calls)) == kappas
    assert max(calls.count(k) for k in kappas) <= (201 + 1) // 2 + 2


@pytest.mark.parametrize("kappas", [[1024.0], [1024.0, 2048.0]])
def test_residual_scan_rejects_too_few_kappas_before_any_work(count_calls, kappas):
    calls = count_calls(backend, "vm_scaled_mass")
    with pytest.raises(ValueError, match="at least 3 kappa values, got %d" % len(kappas)):
        residual_scan(BulkSpec.fixed(0.5), kappas, 201, "cdf")
    assert calls == []


@pytest.mark.parametrize(
    "kappas, message",
    [
        ([32.0, -1.0, 128.0], r"kappa must be finite and >= 0, got -1\.0"),
        ([32.0, 0.0, 128.0], r"kappa must be > 0, got 0\.0"),
        # the residuals are normalized by kappa^3, which overflows above ~5.6e102
        ([1e100, 1e102, 1e104], r"kappa=1e\+104 is too large .*kappa\^3 overflows"),
    ],
)
def test_residual_scan_rejects_bad_kappa_before_any_work(count_calls, kappas, message):
    calls = count_calls(backend, "vm_scaled_mass")
    with pytest.raises(ValueError, match=message):
        residual_scan(BulkSpec.fixed(0.5), kappas, 11, "cdf")
    assert calls == []


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
    for bad in ((math.inf, 3.0), (math.nan, 3.0), (3.0, math.inf), (3.0, math.nan)):
        with pytest.raises(ValueError, match="finite positive coordinates"):
            slope_fit([(1.0, 1.0), (2.0, 2.0), bad])


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
