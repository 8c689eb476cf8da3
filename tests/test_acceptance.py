"""Acceptance suite.

Each test checks one headline claim at its stated tolerance, prints a
single PASS/FAIL line, and enforces its runtime budget.  Run with
`pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import math
import subprocess
import sys
import time

from references import i0e_series_reference, i1e_series_reference

from circbridge import backend, bessel, oracle
from circbridge.distributions import (
    SQRT2,
    VonMisesParams,
    circular_variance_exact,
    circular_variance_expansion,
    matched_sup_gap,
    normal_pdf,
    upper_incomplete_moment,
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
        (k, abs(circular_variance_exact(k).value - circular_variance_expansion(k)))
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
        series = bessel.bessel_i0_series(k)
        integral = oracle.bessel_i0_integral(k, 1e-13)
        worst = max(worst, abs(series - integral) / integral)
    elapsed = time.perf_counter() - t0
    ok = abs(s0 + 4.0) <= 0.4 and abs(s1 + 4.0) <= 0.4 and worst <= 1e-12 and elapsed < 1.0
    _report(
        2,
        "bessel asymptotics",
        ok,
        "i0e slope=%.3f i1e slope=%.3f series-vs-integral=%.2e runtime=%.2fs"
        % (s0, s1, worst, elapsed),
    )


def _fixed_deviate_residuals(kappas, deviates, residual_fn):
    out = {}
    for dt in deviates:
        pts = []
        for k in kappas:
            cv = circular_variance_exact(k)
            x = SQRT2 * cv.sigma * dt
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
            x = SQRT2 * circular_variance_exact(k).sigma * dt
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


def test_criterion_8_incomplete_moment_identities():
    t0 = time.perf_counter()
    worst = 0.0
    for j in [0, 2, 4, 6, 8]:
        for z in [-2.0, 0.0, 1.0, 3.0]:
            ref = oracle.adaptive_quadrature(
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
