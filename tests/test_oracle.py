import contextlib
import math
import random
import re
import sys
import time

import pytest
from references import (
    adaptive_gk15_stack_only,
    adaptive_quadrature,
    bessel_i0_integral,
    gk15_panel,
    kronrod_ellipse_bound,
    vm_panel_index_loop,
    vm_scaled_mass_stack_only,
)

from circbridge import backend, bessel, cli, expansions, oracle
from circbridge.distributions import VonMisesParams, WrappedNormalParams, vm_density, wn_density
from circbridge.expansions import BulkSpec, _inverse_powers, log_ratio_exact
from circbridge.oracle import (
    QuadratureError,
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
    ref = adaptive_gk15_stack_only(gk15_panel, f, -math.pi, hi, 1e-13, kronrod_ellipse_bound(kappa))
    assert got == ref


def test_vm_scaled_mass_raises_once_its_panel_budget_is_spent():
    # tol at the panels' rounding noise: some panels pass and others fail,
    # so without the budget the depth-first walk could visit ~2^40 panels
    # before one reaches MAX_DEPTH
    a, b = -0.009194654792658241, -0.009194542863874989
    start = time.perf_counter()
    with pytest.raises(QuadratureError, match="within %d panels" % backend.MAX_PANELS) as info:
        backend.vm_scaled_mass(5813591.037352941, a, b, 2.380096336369539e-129)
    assert time.perf_counter() - start < 1.0
    # the message names the failing panel by ends that round-trip, so a
    # panel narrower than 6 significant digits still prints two ends
    lo, hi = map(float, re.search(r"on \[(\S+), (\S+)\]", str(info.value)).groups())
    assert a <= lo < hi <= b


def _mass_or_error(mass, kappa, a, b, tol):
    try:
        return mass(kappa, a, b, tol)
    except QuadratureError as exc:
        return str(exc)


def test_vm_scaled_mass_and_panel_equal_the_stack_only_references():
    # the kernel's one stack loop, its node-table panel and its ellipse
    # bound match the references in every bit of a value, error estimate,
    # count or error message, whether the first panel passes on its
    # Gauss/Kronrod estimate or on the ellipse bound, the interval is
    # bisected or the call raises.  Three cases in ten are panels a few
    # sigma wide about the mode, at the tols where a first panel fails
    # |K - G| and the bound can certify it
    rng = random.Random(20261019)
    outcomes = {"first panel": 0, "certified": 0, "bisected": 0, "error": 0}
    for _ in range(2000):
        kappa = 10.0 ** rng.uniform(-3.0, 8.0)
        if rng.random() < 0.3:
            sigma = 1.0 / math.sqrt(kappa)
            width = min(rng.uniform(1.5, 4.5) * sigma, 3.0)
            a = -width * rng.random()
            tol = sigma * 10.0 ** rng.uniform(-14.0, -7.0)
        else:
            width = 10.0 ** rng.uniform(-15.0, math.log10(3.0))
            a = rng.uniform(-math.pi, math.pi - width)
            tol = 10.0 ** rng.uniform(-300.0, -6.0)
        b = a + width
        panel = backend._vm_panel(-2.0 * kappa, a, b)
        assert panel == vm_panel_index_loop(-2.0 * kappa, a, b)
        got = _mass_or_error(backend.vm_scaled_mass, kappa, a, b, tol)
        assert got == _mass_or_error(vm_scaled_mass_stack_only, kappa, a, b, tol)
        if isinstance(got, str):
            outcomes["error"] += 1
        elif got[2] > 15:
            outcomes["bisected"] += 1
        else:
            outcomes["first panel" if panel[1] <= tol else "certified"] += 1
    assert min(outcomes.values()) >= 200, outcomes


@pytest.mark.parametrize("kappa", [5e-324, 1e-310, 1e-300, 1e-3, 1.0, 1e8, 1e300, backend._KAPPA_MAX])
def test_vm_kronrod_bound_neither_overflows_nor_divides_by_zero(kappa):
    # from the smallest float to the kernel's largest kappa, and at any
    # half-width, the bound is a number no smaller than its rounding
    # allowance, or inf; never nan and never an exception
    for h in (5e-324, 1e-300, 1e-20, 1e-5, 0.1, math.pi):
        assert backend._vm_kronrod_bound(kappa, h, 1.0) >= 50.0 * sys.float_info.epsilon


def _mpmath_mass(mpmath, kappa, a, b):
    # the scaled mass on [a, b], split at the mode when it lies inside;
    # Gauss-Legendre suits the entire integrand and is the faster rule here
    k = mpmath.mpf(kappa)
    pts = [mpmath.mpf(a)] + ([0] if a < 0.0 < b else []) + [mpmath.mpf(b)]
    return mpmath.quad(
        lambda u: mpmath.exp(-2 * k * mpmath.sin(u / 2) ** 2), pts, method="gauss-legendre"
    )


def test_vm_scaled_mass_certified_panels_are_within_their_estimate():
    # a panel that fails tol = |K - G| / 2 and comes back as one panel was
    # certified by the ellipse bound; its value must then lie within the
    # returned error estimate of the integral at 40 digits
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261020)
    certified = 0
    with mpmath.workdps(40):
        for _ in range(300):
            kappa = 10.0 ** rng.uniform(-3.0, 8.0)
            sigma = 1.0 / math.sqrt(kappa)
            width = min(10.0 ** rng.uniform(-1.0, 0.8) * sigma, 2.0)
            a = max(rng.uniform(-4.0, 4.0) * sigma - 0.5 * width, -math.pi)
            b = min(a + width, math.pi)
            err = backend._vm_panel(-2.0 * kappa, a, b)[1]
            try:
                value, estimate, evaluations = backend.vm_scaled_mass(kappa, a, b, 0.5 * err)
            except QuadratureError:  # bisected, and the halves fail too
                continue
            if err > 0.0 and evaluations == 15:
                certified += 1
                assert abs(value - _mpmath_mass(mpmath, kappa, a, b)) <= estimate, (kappa, a, b)
    assert certified >= 100


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
    # one segment, and so is one beyond it: the cut at 20 sigma ends the
    # only segment integrated
    calls = count_calls(backend, "vm_scaled_mass")
    for kappa in (1e-3, 2.0, 1e6):
        p = VonMisesParams(mu, kappa)
        assert vm_cdf_quadrature(p, p.mu) == 0.5
        assert vm_cdf_sweep(p, [p.mu, p.mu]) == [0.5, 0.5]
    assert calls == []
    p = VonMisesParams(mu, 1e6)
    for t in (-3.0, 19.0, -25.0, 1000.0):
        del calls[:]
        vm_cdf_quadrature(p, p.mu + t * p.sigma)
        assert len(calls) == 1


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


def test_point_cdfs_match_mpmath_to_half_an_ulp_of_one():
    # seeded points within 6 sigma of mu or anywhere in the window, at the
    # default tol: the first panel's Gauss/Kronrod estimate or its ellipse
    # bound settles each one, and none is off by more than 5e-16 from the
    # CDF at 20 digits (Gauss-Legendre in mpmath, to keep the test short)
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(20261021)
    with mpmath.workdps(20):
        for i in range(200):
            kappa = 10.0 ** rng.uniform(-3.0, 6.0)
            p = VonMisesParams(0.0, kappa)
            t = rng.uniform(-6.0, 6.0) * p.sigma if i % 2 else rng.uniform(-math.pi, math.pi)
            if not -math.pi < t <= math.pi:
                continue
            k = mpmath.mpf(kappa)
            width = min(mpmath.pi, 1 / mpmath.sqrt(k))
            cuts = [c * width for c in (2, 8, 40) if c * width < abs(t)]
            mass = mpmath.quad(
                lambda u: mpmath.exp(-2 * k * mpmath.sin(u / 2) ** 2),
                [0] + cuts + [abs(t)],
                method="gauss-legendre",
            )
            half = mass / (2 * mpmath.pi * mpmath.besseli(0, k) * mpmath.exp(-k))
            ref = 0.5 + half if t > 0.0 else 0.5 - half
            assert abs(vm_cdf_quadrature(p, t) - ref) <= 5e-16, (kappa, t)


def test_point_cdfs_within_three_sigma_take_one_panel(monkeypatch):
    # every point CDF within 3 sigma is one vm_scaled_mass call over
    # [0, |t|] that the first panel settles; before the ellipse bound about
    # a third of these bisected that panel and evaluated 45 nodes
    mass = backend.vm_scaled_mass
    evaluations = []

    def recorded(*args):
        result = mass(*args)
        evaluations.append(result[2])
        return result

    monkeypatch.setattr(backend, "vm_scaled_mass", recorded)
    rng = random.Random(20261022)
    lo, hi = math.log(0.5), math.log(1e5)
    for _ in range(1000):
        p = VonMisesParams(0.0, math.exp(rng.uniform(lo, hi)))
        vm_cdf_quadrature(p, rng.uniform(-3.0, 3.0) * p.sigma, 1e-12)
    assert len(evaluations) == 1000
    assert set(evaluations) == {15}


@pytest.mark.parametrize("kappa", [21.0, 30.0, 100.0, 4096.0, 1e5, 1e8])
def test_vm_cdf_sweep_tail_past_reach_is_below_half_an_ulp(kappa):
    # the sweep integrates no segment past its reach r = 20 sigma; that
    # changes no bit while the exact mass on [r, pi] is below 2^-54 of the
    # mass on [0, r], under half an ulp of the running sum at r
    mpmath = pytest.importorskip("mpmath")
    p = VonMisesParams(0.0, kappa)
    r = 20.0 * p.sigma
    assert r < math.pi
    with mpmath.workdps(30):
        k = mpmath.mpf(kappa)
        sigma = mpmath.mpf(p.sigma)
        rr = mpmath.mpf(r)

        def f(u):
            return mpmath.exp(-2 * k * mpmath.sin(u / 2) ** 2)

        inner = mpmath.quad(f, [0, sigma, 3 * sigma, 10 * sigma, rr])
        # the tail falls off from r over a width 1 / (kappa sin r)
        width = 1 / (k * mpmath.sin(rr))
        steps = [rr + width * 10 ** j for j in range(-1, 8)]
        tail = mpmath.quad(f, [rr] + [c for c in steps if c < mpmath.pi] + [mpmath.pi])
        assert 0 < tail < mpmath.mpf(2) ** -54 * inner


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
    # up, so one segment ends at each distinct |x - mu| > 0 within the 20
    # sigma reach and one at the reach; the grid reaches 32 sigma at
    # kappa = 4096 (62 of its 100 offsets lie within 20 sigma) and 158
    # sigma at kappa = 1e5 (12 of 100)
    calls = count_calls(backend, "vm_scaled_mass")
    for kappa, segments in (("4096", 63), ("1e5", 13)):
        del calls[:]
        assert cli.run(["table", "--mu", "0", "--kappa", kappa, "--grid", "201"]) == 0
        capsys.readouterr()
        assert len(calls) == segments


def test_sweep_cuts_at_each_distinct_offset_once(count_calls):
    # the cuts are 0, 0.5r, r, 2r and 3r: the 20 sigma reach r is also a
    # point's offset, so it adds no zero-length segment, and the two
    # segments past it are not integrated
    p = VonMisesParams(0.0, 1e4)
    r = 20.0 * p.sigma
    calls = count_calls(backend, "vm_scaled_mass")
    vm_cdf_sweep(p, [-2.0 * r, -r, 0.5 * r, r, 3.0 * r])
    assert len(calls) == 2


def test_table_sweep_cuts_at_each_distinct_offset(count_calls, capsys):
    # off mu = 0 rounding splits some of the grid's paired offsets; one
    # segment ends at each distinct |x - mu| > 0 within the 20 sigma reach
    # and one at the reach (the grid reaches 32 sigma)
    calls = count_calls(backend, "vm_scaled_mass")
    assert cli.run(["table", "--mu", "1.3", "--kappa", "4096", "--grid", "201"]) == 0
    capsys.readouterr()
    p = VonMisesParams(1.3, 4096.0)
    _dts, xs = BulkSpec.fixed(0.5).grid(p, 201)
    offsets = {abs(x - p.mu) for x in xs} - {0.0}
    within = {t for t in offsets if t < 20.0 * p.sigma}
    assert len(calls) == len(within) + 1 == 63


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
        # kappa's domain is the kernel's, checked by VonMisesParams
        ([32.0, -1.0, 128.0], r"kappa must be finite, >= 0 and <= 8\.988465674311579e\+307, got -1\.0$"),
        ([32.0, 0.0, 128.0], r"kappa must be > 0, got 0\.0"),
        # the residuals are normalized by kappa^3, which overflows above ~5.6e102
        ([1e100, 1e102, 1e104], r"kappa=1e\+104 is too large .*kappa\^3 overflows"),
        # a repeated kappa, rejected before the slope fit would find it
        ([10.0, 10.0, 1000.0], r"^a slope fit needs distinct kappa values, got 10\.0 more than once$"),
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


def test_slope_fit_sums_left_to_right_on_every_version():
    # sum() compensates floats from Python 3.12 on and gives 2.0 here,
    # which moved the last digits of error-scan's slope between versions
    assert oracle._plain_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert oracle._plain_sum(iter([0.5, 0.25])) == 0.75


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


def test_log_ratio_and_ratio_residuals_are_even_on_the_mirror_grid():
    # residual_scan evaluates these two targets on half the grid; at
    # mu = 0 BulkSpec.grid mirrors exactly and each residual list is its
    # own reverse, bit for bit
    rng = random.Random(20261019)
    for _ in range(400):
        kappa = 10.0 ** rng.uniform(-0.3, 6.0)
        if rng.random() < 0.5:
            spec = BulkSpec.fixed(rng.uniform(0.05, 0.95))
        else:
            spec = BulkSpec.shrunken(rng.uniform(0.1, 3.0))
        params = VonMisesParams(0.0, kappa)
        _dts, xs = spec.grid(params, rng.randrange(11, 1002, 2))
        powers = _inverse_powers(kappa)
        targets = ["log_ratio"]
        # math.exp of the exact log-ratio overflows above ~709.78
        if log_ratio_exact(params, xs[0]) < 700.0:
            targets.append("ratio")
        for target in targets:
            res = [r.hex() for r in oracle._scan_residuals(target, params, powers, xs, None)]
            assert res == res[::-1]


@pytest.mark.parametrize("target, edge_checks", [("log_ratio", 0), ("ratio", 1)])
def test_residual_scan_evaluates_half_the_grid(target, edge_checks, count_calls):
    # per kappa: the grid from its edge to mu, then the slope point; the
    # ratio checks each kappa's edge first, before any grid is evaluated
    exact = count_calls(expansions, "_log_ratio_exact_value")
    kappas = [64.0, 128.0, 256.0]
    residual_scan(BulkSpec.fixed(0.5), kappas, 31, target)
    per_kappa = 31 // 2 + 1 + 1
    assert exact == kappas * edge_checks + [k for k in kappas for _ in range(per_kappa)]


def test_cdf_residual_scan_evaluates_one_expansion_per_mirror_pair(count_calls):
    # per kappa: the grid's upper half with mu, whose values the lower half
    # reflects, then the slope point
    values = count_calls(expansions, "_cdf_expansion_value")
    residual_scan(BulkSpec.fixed(0.5), [64.0, 128.0, 256.0], 31, "cdf")
    assert len(values) == 3 * (31 // 2 + 1 + 1)
    assert min(values) == 0.0
