"""Acceptance suite.

Each test checks one headline claim at its stated tolerance, prints a
single PASS/FAIL line, and enforces its runtime budget.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import subprocess
import sys
import time
from fractions import Fraction

from references import (
    adaptive_quadrature,
    bessel_i0_integral,
    i0e_series_reference,
    i1e_series_reference,
)

from circbridge import backend, bessel
from circbridge.distributions import (
    SQRT2,
    VonMisesParams,
    WrappedNormalParams,
    circular_variance_exact,
    circular_variance_expansion,
    matched_sup_gap,
    normal_pdf,
    upper_incomplete_moment,
    vm_density,
    wn_density,
)
from circbridge.expansions import (
    BulkSpec,
    cdf_expansion,
    log_ratio_exact,
    log_ratio_expansion,
    ratio_expansion,
)
from circbridge.oracle import RESIDUAL_FLOOR, residual_scan, slope_fit, vm_cdf_quadrature

# tolerance on "no growth" of normalized residuals across concentrations:
# successive maxima may wobble by envelope discretization and rounding but
# must not trend upward
NO_GROWTH_FACTOR = 1.2


def _report(num, label, ok, detail):
    print("ACCEPTANCE %d %-24s %s  (%s)" % (num, label, "PASS" if ok else "FAIL", detail))
    assert ok, "criterion %d (%s): %s" % (num, label, detail)


def _filtered_slope(points):
    kept = [(k, r) for k, r in points if r >= RESIDUAL_FLOOR]
    return slope_fit(kept)


def test_criterion_1_variance_expansion_order():
    t0 = time.perf_counter()
    kappas = [16.0 * 2 ** i for i in range(9)]  # 16 .. 4096
    pts = [
        (k, abs(circular_variance_exact(k) - circular_variance_expansion(k)))
        for k in kappas
    ]
    slope = _filtered_slope(pts)
    elapsed = time.perf_counter() - t0
    ok = abs(slope + 4.0) <= 0.3 and elapsed < 1.0
    _report(1, "variance expansion", ok, "slope=%.3f runtime=%.2fs" % (slope, elapsed))


def test_criterion_2_bessel_asymptotics():
    t0 = time.perf_counter()
    kappas = [32.0, 64.0, 128.0, 256.0, 512.0]
    pts0, pts1 = [], []
    for k in kappas:
        scale = math.sqrt(2.0 * math.pi * k)
        pts0.append((k, abs(i0e_series_reference(k) * scale - bessel.bessel_i0e_asymptotic(k, 3))))
        pts1.append((k, abs(i1e_series_reference(k) * scale - bessel.bessel_i1e_asymptotic(k, 3))))
    s0 = _filtered_slope(pts0)
    s1 = _filtered_slope(pts1)
    worst = 0.0
    for k in [0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 30.0]:
        kernel = bessel.i0e(k) * math.exp(k)
        integral = bessel_i0_integral(k, 1e-13)
        worst = max(worst, abs(kernel - integral) / integral)
    elapsed = time.perf_counter() - t0
    ok = abs(s0 + 4.0) <= 0.4 and abs(s1 + 4.0) <= 0.4 and worst <= 1e-12 and elapsed < 1.0
    _report(
        2,
        "bessel asymptotics",
        ok,
        "i0e slope=%.3f i1e slope=%.3f i0-vs-integral=%.2e runtime=%.2fs"
        % (s0, s1, worst, elapsed),
    )


def _fixed_deviate_residuals(kappas, deviates, residual_fn):
    out = {}
    for dt in deviates:
        pts = []
        for k in kappas:
            cv = circular_variance_exact(k)
            x = SQRT2 * math.sqrt(cv) * dt
            pts.append((k, residual_fn(k, cv, x, dt)))
        out[dt] = pts
    return out


def test_criterion_3_log_ratio_order():
    t0 = time.perf_counter()
    kappas = [32.0 * 2 ** i for i in range(7)]  # 32 .. 2048

    def residual(k, cv, x, dt):
        return abs(log_ratio_exact(VonMisesParams(0.0, k), x) - log_ratio_expansion(dt, k, 2).value)

    slopes = {
        dt: _filtered_slope(pts)
        for dt, pts in _fixed_deviate_residuals(kappas, [0.0, 0.5, 1.0, 2.0], residual).items()
    }
    rep = residual_scan(BulkSpec.fixed(0.5), [64.0, 256.0, 1024.0], 201, "log_ratio")
    mn = rep.max_normalized_residual
    no_growth = all(b <= NO_GROWTH_FACTOR * a for a, b in zip(mn, mn[1:]))
    elapsed = time.perf_counter() - t0
    ok = all(abs(s + 3.0) <= 0.3 for s in slopes.values()) and no_growth and elapsed < 5.0
    _report(
        3,
        "log-ratio order",
        ok,
        "slopes=%s max_norm=%s runtime=%.2fs"
        % (
            {dt: round(s, 3) for dt, s in slopes.items()},
            [round(v, 4) for v in mn],
            elapsed,
        ),
    )


def test_criterion_4_ratio_order():
    t0 = time.perf_counter()
    kappas = [32.0 * 2 ** i for i in range(7)]

    def residual(k, cv, x, dt):
        return abs(math.exp(log_ratio_exact(VonMisesParams(0.0, k), x)) - ratio_expansion(dt, k, 2).value)

    slopes = {
        dt: _filtered_slope(pts)
        for dt, pts in _fixed_deviate_residuals(kappas, [0.0, 0.5, 1.0, 2.0], residual).items()
    }
    rep = residual_scan(BulkSpec.shrunken(1.0), [64.0, 256.0, 1024.0], 201, "ratio")
    mn = rep.max_normalized_residual
    no_growth = all(b <= NO_GROWTH_FACTOR * a for a, b in zip(mn, mn[1:]))
    elapsed = time.perf_counter() - t0
    ok = all(abs(s + 3.0) <= 0.3 for s in slopes.values()) and no_growth and elapsed < 5.0
    _report(
        4,
        "ratio order",
        ok,
        "slopes=%s max_norm=%s runtime=%.2fs"
        % (
            {dt: round(s, 3) for dt, s in slopes.items()},
            [round(v, 4) for v in mn],
            elapsed,
        ),
    )


def test_criterion_5_cdf_order():
    t0 = time.perf_counter()
    kappas = [32.0 * 2 ** i for i in range(7)]
    slopes = {}
    for dt in [0.5, 1.0, 2.0]:
        pts = []
        for k in kappas:
            p = VonMisesParams(0.0, k)
            x = SQRT2 * p.sigma * dt
            q = vm_cdf_quadrature(p, x, 1e-13)
            pts.append((k, abs(q - cdf_expansion(dt, k).value)))
        slopes[dt] = _filtered_slope(pts)
    center_ok = True
    for k in [32.0, 100.0, 2048.0]:
        p = VonMisesParams(0.0, k)
        center_ok = center_ok and abs(vm_cdf_quadrature(p, 0.0, 1e-11) - 0.5) <= 1e-10
        center_ok = center_ok and cdf_expansion(0.0, k).value == 0.5
    elapsed = time.perf_counter() - t0
    ok = all(abs(s + 3.0) <= 0.3 for s in slopes.values()) and center_ok and elapsed < 10.0
    _report(
        5,
        "cdf order",
        ok,
        "slopes=%s center_ok=%s runtime=%.2fs"
        % ({dt: round(s, 3) for dt, s in slopes.items()}, center_ok, elapsed),
    )


def test_criterion_6_normalization_constant_order():
    t0 = time.perf_counter()
    from circbridge.expansions import normalization_log_constant

    kappas = [64.0 * 2 ** i for i in range(7)]  # 64 .. 4096
    pts = []
    for k in kappas:
        exact = normalization_log_constant(k, "exact", centered=True)
        expansion = normalization_log_constant(k, "expansion", centered=True)
        pts.append((k, abs(exact - expansion)))
    slope = _filtered_slope(pts)
    elapsed = time.perf_counter() - t0
    ok = abs(slope + 4.0) <= 0.4
    _report(6, "normalization constant", ok, "slope=%.3f runtime=%.2fs" % (slope, elapsed))


def test_criterion_7_wrapped_normal_limit():
    t0 = time.perf_counter()
    gaps = [matched_sup_gap(VonMisesParams(0.0, k), grid_size=1001) for k in [4.0, 16.0, 64.0, 256.0]]
    strict = all(b < a for a, b in zip(gaps, gaps[1:]))
    elapsed = time.perf_counter() - t0
    _report(
        7,
        "wrapped-normal limit",
        strict,
        "sup gaps=%s runtime=%.2fs" % (["%.3e" % g for g in gaps], elapsed),
    )


def _sup_density_gap(vm, wn, half_width):
    # sup over t of |f(t) - g(t)| for laws centred at 0: the best of a
    # 4,001-point grid on [0, half_width], refined by golden section on the
    # bracket around that point
    def gap(t):
        return abs(vm_density(vm, t) - wn_density(wn, t))

    h = half_width / 4000
    best = max(range(4001), key=lambda i: gap(i * h))
    a, b = max(best - 1, 0) * h, (best + 1) * h
    r = 0.5 * (math.sqrt(5.0) - 1.0)
    c, d = b - r * (b - a), a + r * (b - a)
    gc, gd = gap(c), gap(d)
    while b - a > 1e-9 * half_width:
        if gc >= gd:
            b, d, gd = d, c, gc
            c = b - r * (b - a)
            gc = gap(c)
        else:
            a, c, gc = c, d, gd
            d = a + r * (b - a)
            gd = gap(d)
    return max(gc, gd, gap(best * h))


def test_criterion_7_matching_the_variance_shrinks_the_gap():
    # sqrt(kappa) * sup|f - g| tends to phi(1)/12 with the matched scale
    # sqrt(2) sigma, and to phi(0)/8 with the textbook scale 1/sqrt(kappa),
    # so matching the variance divides the gap by 1.5 sqrt(e)
    t0 = time.perf_counter()
    matched_limit, textbook_limit = normal_pdf(1.0) / 12.0, normal_pdf(0.0) / 8.0
    worst = 0.0  # the largest kappa * miss, which must stay <= 1
    for k in [256.0, 1024.0, 4096.0]:
        vm = VonMisesParams(0.0, k)
        half_width = 12.0 / math.sqrt(k)
        matched = _sup_density_gap(vm, WrappedNormalParams(0.0, SQRT2 * vm.sigma), half_width)
        textbook = _sup_density_gap(vm, WrappedNormalParams(0.0, 1.0 / math.sqrt(k)), half_width)
        misses = (
            abs(math.sqrt(k) * matched / matched_limit - 1.0),
            abs(math.sqrt(k) * textbook / textbook_limit - 1.0),
            abs(textbook / matched - 1.5 * math.sqrt(math.e)),
        )
        worst = max(worst, k * max(misses))
    elapsed = time.perf_counter() - t0
    _report(
        7,
        "matched-scale gain",
        worst <= 1.0 and elapsed < 0.3,
        "worst kappa*miss=%.3f runtime=%.2fs" % (worst, elapsed),
    )


def _kl_limit(c):
    # write the normal's variance as v^2 = (1 + c/kappa)/kappa; then f/g =
    # 1 + r_c(z)/kappa + O(kappa^-2), z = t sqrt(kappa), with r_c = z^4/24 -
    # 1/8 - c (z^2 - 1)/2, and as E_g[r_c] = 0, kappa^2 KL(f || g) tends to
    # E[r_c(z)^2] / 2 for z standard normal, whose moments are E z^n = (n - 1)!!
    r = {4: Fraction(1, 24), 2: -c / 2, 0: Fraction(-1, 8) + c / 2}
    square = {}
    for i, a in r.items():
        for j, b in r.items():
            square[i + j] = square.get(i + j, 0) + a * b
    return sum(coef * math.prod(range(n - 1, 0, -2)) for n, coef in square.items()) / 2


def _kappa2_kl(vm, v, tol):
    # kappa^2 KL(f || g), g the normal density of scale v about mu = 0.
    # Both laws hold all but e^-90 of their mass on |t| <= 14/sqrt(kappa),
    # so KL = int f (rho - 1 + e^-rho) there, rho = log(f/g): an integrand
    # >= 0 with no cancellation.  rho is the exact log-ratio against the
    # package's scale s = sqrt(2) sigma plus the log of the ratio of the
    # two normal densities
    s = SQRT2 * vm.sigma
    shift = math.log(v / s)
    curvature = 0.5 * (1.0 / (v * v) - 1.0 / (s * s))

    def integrand(t):
        rho = log_ratio_exact(vm, t) + shift + curvature * (t * t)
        return vm_density(vm, t) * (rho + math.expm1(-rho))

    half = adaptive_quadrature(integrand, 0.0, 14.0 / math.sqrt(vm.kappa), 0.5 * tol).value
    return vm.kappa ** 2 * 2.0 * half


def test_criterion_7_resultant_length_minimises_kl():
    # kappa^2 KL(f || g) -> (1/6 - c/2 + c^2/2)/2 for v^2 = (1 + c/kappa)/kappa:
    # 1/12 with the textbook scale 1/sqrt(kappa) (c = 0), 7/192 with the
    # package's sqrt(2) sigma (c = 1/4, the sup-optimal scale of the test
    # above) and 1/48 with the resultant-length scale v^2 = -2 log(1 -
    # sigma^2) (c = 1/2), which is the minimum over c.  That scale's
    # sqrt(kappa) sup|f - g| tends to the textbook's phi(0)/8, not to
    # phi(1)/12: each variance is optimal for one distance only
    t0 = time.perf_counter()
    limits = {c: _kl_limit(c) for c in (Fraction(0), Fraction(1, 4), Fraction(1, 2))}
    derived = all(limit == (Fraction(1, 6) - c / 2 + c * c / 2) / 2 for c, limit in limits.items())
    derived = derived and list(limits.values()) == [Fraction(1, 12), Fraction(7, 192), Fraction(1, 48)]
    derived = derived and _kl_limit(Fraction(49, 100)) > limits[Fraction(1, 2)] < _kl_limit(Fraction(51, 100))
    worst = 0.0  # the largest kappa * |kappa^2 KL / limit - 1|, which must stay <= 4
    worst_sup = 0.0  # the largest kappa * |sqrt(kappa) sup gap / (phi(0)/8) - 1|, <= 1
    for k in [256.0, 1024.0, 4096.0]:
        vm = VonMisesParams(0.0, k)
        resultant = math.sqrt(-2.0 * math.log1p(-vm.variance))
        for v, limit in zip((1.0 / math.sqrt(k), SQRT2 * vm.sigma, resultant), limits.values()):
            got = _kappa2_kl(vm, v, 1e-6 / k ** 2)
            worst = max(worst, k * abs(got / float(limit) - 1.0))
        gap = _sup_density_gap(vm, WrappedNormalParams(0.0, resultant), 12.0 / math.sqrt(k))
        worst_sup = max(worst_sup, k * abs(math.sqrt(k) * gap / (normal_pdf(0.0) / 8.0) - 1.0))
    elapsed = time.perf_counter() - t0
    _report(
        7,
        "KL-optimal scale",
        derived and worst <= 4.0 and worst_sup <= 1.0 and elapsed < 0.3,
        "limits derived=%s worst kappa*miss KL=%.3f sup=%.3f runtime=%.2fs"
        % (derived, worst, worst_sup, elapsed),
    )


def test_criterion_8_incomplete_moment_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for j in [0, 2, 4, 6, 8]:
        for z in [-2.0, 0.0, 1.0, 3.0]:
            ref = adaptive_quadrature(
                lambda y: y ** j * normal_pdf(y), z, z + 42.0, 1e-12
            ).value
            worst = max(worst, abs(upper_incomplete_moment(j, z) - ref))
    exact_ok = (
        upper_incomplete_moment(2, 0.0) == 0.5
        and upper_incomplete_moment(4, 0.0) == 1.5
        and upper_incomplete_moment(6, 0.0) == 7.5
        and upper_incomplete_moment(8, 0.0) == 52.5
    )
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-10 and exact_ok
    _report(
        8,
        "incomplete moments",
        ok,
        "worst quadrature gap=%.2e exact-at-zero=%s runtime=%.2fs" % (worst, exact_ok, elapsed),
    )


def test_criterion_9_cli_determinism(cli_env):
    t0 = time.perf_counter()
    argv = [
        sys.executable,
        "-m",
        "circbridge",
        "error-scan",
        "--target",
        "log_ratio",
        "--kappa-min",
        "32",
        "--kappa-max",
        "2048",
        "--steps",
        "7",
        "--eta",
        "0.5",
        "--grid",
        "201",
    ]
    first = subprocess.run(argv, capture_output=True, env=cli_env)
    second = subprocess.run(argv, capture_output=True, env=cli_env)
    identical = first.stdout == second.stdout and len(first.stdout) > 0
    codes_ok = first.returncode == 0 and second.returncode == 0
    slope_line = first.stdout.decode().strip().split("\n")[-1]
    slope = float(slope_line.split(",")[-1])
    slope_ok = -3.3 <= slope <= -2.7
    elapsed = time.perf_counter() - t0
    ok = identical and codes_ok and slope_ok
    _report(
        9,
        "cli determinism",
        ok,
        "identical=%s exit0=%s slope=%.3f runtime=%.2fs" % (identical, codes_ok, slope, elapsed),
    )
