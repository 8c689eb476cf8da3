"""The grid loops (`table` rows, `residual_scan`, `matched_sup_gap`), the
CDF sweep, the one-point CDF, the per-kappa kernel's node table and the
CSV writer give, bit for bit, what the public point functions, the
references and the per-value formatter give."""

import json
import math
import random
import re
import sys

import pytest
from references import (
    KRONROD_CLASS_WIDTH2,
    NARROW_WIDTH2,
    i0e_sigma2_sin_per_node,
    matched_sup_gap_full_grid,
    rule_width,
    sin_per_node_stop,
    smallest_kappa_of_nodes,
    vm_cdf_sweep_every_segment,
    vm_scaled_mass_k_panels,
)

from circbridge import backend, cli, oracle
from circbridge.distributions import (
    LOG_TWO,
    LOG_TWO_PI,
    SQRT2,
    VonMisesParams,
    WrappedNormalParams,
    _vm_density_value,
    _wn_tail_reach,
    _wn_wraps,
    matched_sup_gap,
    vm_density,
    wn_density,
    wrap_angle,
)
from circbridge.expansions import (
    ENVELOPE_POWER,
    BulkSpec,
    cdf_expansion,
    log_ratio_exact,
    log_ratio_expansion,
    ratio_expansion,
    reference_normal_density,
    standardized_deviate,
)

TWO_PI = 2.0 * math.pi


def _table_rows(kappa, mu, grid, capsys):
    argv = ["table", "--mu", repr(mu), "--kappa", repr(kappa), "--grid", str(grid)]
    assert cli.run(argv) == 0
    lines = capsys.readouterr().out.strip().split("\n")
    assert lines[0] == ",".join(cli.TABLE_COLUMNS)
    return [[float(f) for f in line.split(",")] for line in lines[1:]]


# at mu = 0.3, 42 of the 100 mirror pairs of a 201-point grid at kappa 4096
# have offsets that are not exact negatives, and are computed row by row
@pytest.mark.parametrize("kappa, mu", [(8.0, 0.0), (4096.0, 1.3), (600.75, 5.5), (4096.0, 0.3)])
def test_table_columns_equal_point_functions_bitwise(kappa, mu, capsys):
    params = VonMisesParams(mu, kappa)
    rows = oracle.table_rows(params, BulkSpec.fixed(0.5), 201, 1e-12)
    _dts, xs = BulkSpec.fixed(0.5).grid(params, 201)
    assert [row[0] for row in rows] == xs
    cdf_quad = oracle.vm_cdf_sweep(params, xs, 1e-12)
    for row, x, cq in zip(rows, xs, cdf_quad):
        sd = standardized_deviate(params, x)
        lre = log_ratio_exact(params, x)
        lr2 = log_ratio_expansion(sd.delta_tilde, kappa, 2).value
        ca = cdf_expansion(sd.delta_tilde, kappa).value
        want = (
            x,
            sd.delta,
            sd.delta_tilde,
            vm_density(params, x),
            reference_normal_density(params, x),
            lre,
            log_ratio_expansion(sd.delta_tilde, kappa, 1).value,
            lr2,
            cq,
            ca,
            abs(lre - lr2),
            abs(cq - ca),
        )
        assert row == want
    # the CLI prints these rows, every float round-tripped by its repr
    assert _table_rows(kappa, mu, 201, capsys) == [list(row) for row in rows]


@pytest.mark.parametrize("mu, inexact", [(0.0, 0), (0.3, 42)])
def test_table_computes_each_exact_mirror_pair_once(mu, inexact, count_calls, capsys):
    # the cores run on the middle row, once for each mirror pair whose
    # offsets are exact negatives, and on both rows of every other pair
    log_ratio = count_calls(oracle, "_log_ratio_exact_value")
    cdf = count_calls(oracle, "_cdf_expansion_value")
    assert cli.run(["table", "--mu", repr(mu), "--kappa", "4096", "--grid", "201"]) == 0
    capsys.readouterr()
    assert len(log_ratio) == len(cdf) == 101 + inexact


@pytest.mark.parametrize(
    "kappa, message",
    [(1e-320, "1/kappa^3 overflows"), (1e57, "outside the cdf expansion's range")],
)
def test_table_rows_check_the_edge_before_any_quadrature(kappa, message, count_calls):
    # below kappa ~ 1.8e-103 no remainder scale is finite; at 1e57 the
    # edge's |delta_tilde|^11 overflows while its |delta_tilde|^8 does not
    sweeps = count_calls(oracle, "vm_cdf_sweep")
    with pytest.raises(ValueError, match=re.escape(message)):
        oracle.table_rows(VonMisesParams(0.0, kappa), BulkSpec.fixed(0.5), 11)
    assert sweeps == []


def _public_residual(target, params, x, cdf_quad):
    # the residual of one point from the public point functions
    dt = standardized_deviate(params, x).delta_tilde
    if target == "log_ratio":
        return abs(log_ratio_exact(params, x) - log_ratio_expansion(dt, params.kappa, 2).value)
    if target == "ratio":
        exact = math.exp(log_ratio_exact(params, x))
        return abs(exact - ratio_expansion(dt, params.kappa, 2).value)
    return abs(cdf_quad - cdf_expansion(dt, params.kappa).value)


@pytest.mark.parametrize("target", ["log_ratio", "ratio", "cdf"])
@pytest.mark.parametrize("spec", [BulkSpec.fixed(0.5), BulkSpec.shrunken(1.0)], ids=str)
def test_residual_scan_equals_point_function_loop(target, spec):
    kappas = [64.0, 181.0, 512.0, 1448.0]
    report = oracle.residual_scan(spec, kappas, 31, target, quad_tol=1e-13)
    power = ENVELOPE_POWER[target]
    for i, kappa in enumerate(kappas):
        params = VonMisesParams(0.0, kappa)
        dts, xs = spec.grid(params, 31)
        if target == "cdf":
            cdf_quad = oracle.vm_cdf_sweep(params, xs, 1e-13)
        else:
            cdf_quad = [None] * len(xs)
        mr = mn = 0.0
        for dt, x, cq in zip(dts, xs, cdf_quad):
            r = _public_residual(target, params, x, cq)
            mr = max(mr, r)
            mn = max(mn, r * kappa ** 3 / (1.0 + abs(dt) ** power))
        assert report.max_residual[i] == mr
        assert report.max_normalized_residual[i] == mn


@pytest.mark.parametrize("kappa", [1e-3, 0.5, 2.0, 50.0, 5000.0])
@pytest.mark.parametrize("mu", [0.0, 4.0])
def test_matched_sup_gap_equals_density_loop(kappa, mu):
    # the gap is sampled at offsets from mu, so the mu = 0 laws give the
    # reference for every mu; both laws are even, so the offsets on [0, pi]
    # are sampled, and on the even grid the last lands on pi
    params = VonMisesParams(mu, kappa)
    vm = VonMisesParams(0.0, kappa)
    wn = WrappedNormalParams(0.0, SQRT2 * vm.sigma)
    for grid, tol in [(257, 1e-12), (256, 1e-12), (257, 1e-3), (256, 1e-3)]:
        sup = 0.0
        for j in range(grid // 2 + 1):
            theta = j * (TWO_PI / grid)
            sup = max(sup, abs(vm_density(vm, theta) - wn_density(wn, theta, tol)))
        assert matched_sup_gap(params, grid, tol) == sup


def test_matched_sup_gap_outward_walk_equals_full_grid():
    # kappa log-uniform on [1e-3, 1e12]: from flat densities, where no
    # point is cut, to a peak narrower than the grid spacing; the sup stays
    # below 0.13 here, so at tol = 0.5 the wrapped-normal side of the
    # stopping test never holds
    rng = random.Random(20231016)
    for _ in range(600):
        params = VonMisesParams(rng.uniform(-10.0, 10.0), 10.0 ** rng.uniform(-3.0, 12.0))
        grid = rng.choice([1, 2, 3, 4, 256, 257, 1000, 1001, 2001])
        tol = rng.choice([1e-300, 1e-12, 1e-3, 0.5])
        assert matched_sup_gap(params, grid, tol) == matched_sup_gap_full_grid(params, grid, tol)


def test_matched_sup_gap_half_grid_stays_within_ulps_of_the_two_sided_max():
    # t_(n-j) is not exactly -t_j, so the offsets on (pi, 2 pi) can give
    # gaps a few rounding errors of the peak density away from their
    # mirrors on [0, pi]
    rng = random.Random(20261019)
    for _ in range(300):
        params = VonMisesParams(rng.uniform(-10.0, 10.0), 10.0 ** rng.uniform(-3.0, 8.0))
        grid = rng.choice([3, 4, 256, 257, 1000, 1001, 2001])
        tol = rng.choice([1e-300, 1e-12, 1e-3])
        v = SQRT2 * params.sigma
        reach = _wn_tail_reach(v, tol)
        two_sided = 0.0
        for j in range(grid):
            t = wrap_angle(j * (TWO_PI / grid))
            f = _vm_density_value(params.kappa, params.i0e, t)
            g = backend.wn_density_at(t, v, _wn_wraps(t, reach))
            two_sided = max(two_sided, abs(f - g))
        f0 = _vm_density_value(params.kappa, params.i0e, 0.0)
        peak = max(f0, backend.wn_density_at(0.0, v, _wn_wraps(0.0, reach)))
        bound = 4.0 * sys.float_info.epsilon * peak
        assert abs(matched_sup_gap(params, grid, tol) - two_sided) <= bound


def _sweep_outcome(sweep, params, xs, tol):
    try:
        return sweep(params, xs, tol)
    except oracle.QuadratureError as exc:
        return type(exc), str(exc)


def test_vm_cdf_sweep_stops_at_reach_equals_every_segment():
    # kappa log-uniform on [1e-3, 1e12], with one case in ten up to 1e300;
    # most offsets are drawn within 40 sigma, so that most point sets cross
    # the 20 sigma reach; tol down to 1e-300, where no segment can meet it
    # and the first one integrated raises
    rng = random.Random(20231017)
    crossed = failed = 0
    for _ in range(600):
        log_kappa = rng.uniform(-3.0, 12.0) if rng.random() < 0.9 else rng.uniform(12.0, 300.0)
        params = VonMisesParams(rng.uniform(-10.0, 10.0), 10.0 ** log_kappa)
        tol = 10.0 ** rng.uniform(rng.choice([-300.0, -16.0]), math.log10(0.5))
        xs = []
        for _ in range(rng.choice([1, 2, 5, 201])):
            if rng.random() < 0.7:
                t = params.sigma * rng.uniform(-40.0, 40.0)
            else:
                t = rng.uniform(-math.pi, math.pi)
            x = params.mu + t
            if -math.pi < x - params.mu <= math.pi:
                xs.append(x)
        xs = xs or [params.mu]
        crossed += any(abs(x - params.mu) > 20.0 * params.sigma for x in xs)
        got = _sweep_outcome(oracle.vm_cdf_sweep, params, xs, tol)
        failed += isinstance(got, tuple)
        assert got == _sweep_outcome(vm_cdf_sweep_every_segment, params, xs, tol)
    assert crossed > 300 and 100 < failed < 500


# the smallest kappa of every panel count n of the trapezoid, which runs
# below kappa = 64, where n <= 44: the worst case for where the kernel's
# sum stops within one n
NODE_KAPPAS = [smallest_kappa_of_nodes(n) for n in range(4, 45)]
BELOW_HANKEL = math.nextafter(64.0, 0.0)  # the largest kappa the trapezoid takes


def test_kernel_node_table_equals_sin_per_node_log_uniform():
    # kappa log-uniform over the trapezoid's range
    rng = random.Random(20231018)
    kappas = [10.0 ** rng.uniform(-12.0, math.log10(64.0)) for _ in range(100000)]
    kernel = backend.i0e_sigma2
    kappas = [k for k in kappas if k < 64.0]
    assert [k for k in kappas if kernel(k) != i0e_sigma2_sin_per_node(k)] == []


def test_kernel_node_table_equals_sin_per_node_at_each_n():
    # the trapezoid's range's ends, the smallest subnormal and the
    # smallest kappa of every n <= 44
    kappas = [0.0, 5e-324, BELOW_HANKEL] + NODE_KAPPAS
    kernel = backend.i0e_sigma2
    assert [k for k in kappas if kernel(k) != i0e_sigma2_sin_per_node(k)] == []


def test_kernel_sum_stops_within_its_node_table():
    # `_sin2_nodes` holds j <= 23 for n >= 29: the sum must stop before it
    # runs out, and within one n it stops soonest at the largest kappa
    stops = [sin_per_node_stop(k) for k in NODE_KAPPAS[25:]]  # n = 29 .. 44
    assert max(stops) == stops[0] == 22
    assert min(stops) == stops[-1] == sin_per_node_stop(BELOW_HANKEL) == 17
    assert {len(backend._sin2_nodes.__wrapped__(n)) for n in range(29, 45)} == {23}


def _point_cdf_outcome(f, *args):
    try:
        return f(*args)
    except (ValueError, oracle.QuadratureError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize(
    "mu, kappa, t, tol, kind",
    [
        (0.3, 0.0, 1.0, 1e-12, float),
        (0.3, 0.0, -2.5, 1e-12, float),
        (0.3, 50.0, 0.0, 1e-12, float),
        (0.3, 50.0, -0.0, 1e-12, float),
        (0.0, 50.0, math.pi, 1e-12, float),
        (0.0, 50.0, -math.pi, 1e-12, ValueError),
        (1.0, 1000.0, 0.9, 1e-12, float),
        (1.0, 1000.0, -0.9, 1e-12, float),
        (1.0, 1e9, 1e-3, 1e-12, float),
        (1.0, 50.0, math.nan, 1e-12, ValueError),
        (1.0, 50.0, 0.2, 0.0, ValueError),
        (1.0, 50.0, 0.2, math.nan, ValueError),
        (1.0, 50.0, 0.2, 1e-300, oracle.QuadratureError),
        (1.0, 50.0, -0.5, 1e-300, oracle.QuadratureError),
        (1.0, 1000.0, 1.0, 1e-300, oracle.QuadratureError),
    ],
)
def test_point_cdf_equals_one_point_sweep_cases(mu, kappa, t, tol, kind):
    # x = mu + pi, mu - pi (outside the window), beyond 20 sigma (0.45 at
    # kappa 1000), NaN x, bad tols, and tol 1e-300, below every
    # segment's rounding allowance 50 eps K
    p = VonMisesParams(mu, kappa)
    x = mu + t
    got = _point_cdf_outcome(oracle.vm_cdf_quadrature, p, x, tol)
    assert got == _point_cdf_outcome(lambda *a: oracle.vm_cdf_sweep(*a)[0], p, (x,), tol)
    assert type(got) is kind if kind is float else got[0] is kind
    if t == 0.0:
        assert got == 0.5


def test_point_cdf_equals_one_point_sweep_seeded():
    # x may leave the window (ValueError); a QuadratureError comes only at
    # a tol below 2e-14, under which a point CDF is not always certified
    rng = random.Random(20231019)
    outcomes = {float: 0, ValueError: 0, oracle.QuadratureError: 0}
    for _ in range(3000):
        p = VonMisesParams(rng.uniform(-10.0, 10.0), 10.0 ** rng.uniform(-3.0, 9.0))
        tol = 10.0 ** rng.uniform(-16.0 if rng.random() < 0.9 else -300.0, -6.0)
        if rng.random() < 0.7:
            x = p.mu + p.sigma * rng.uniform(-40.0, 40.0)
        else:
            x = p.mu + rng.uniform(-math.pi, math.pi)
        got = _point_cdf_outcome(oracle.vm_cdf_quadrature, p, x, tol)
        kind = got[0] if isinstance(got, tuple) else type(got)
        outcomes[kind] += 1
        assert kind is not oracle.QuadratureError or tol < 2e-14, (p, x, tol)
        assert got == _point_cdf_outcome(lambda *a: oracle.vm_cdf_sweep(*a)[0], p, (x,), tol)
    assert min(outcomes.values()) >= 50, outcomes


@pytest.mark.parametrize("tol", [1e-12, 1e-13])
def test_point_cdf_equals_one_point_sweep_at_the_rule_edges(tol, monkeypatch):
    # |x - mu| one ulp inside and one ulp outside w^2 max(2 kappa, 1) = 0.49
    # (the narrow Gauss-7 rule) and = 9 (the Kronrod class), on seeded
    # sides of mu: the point CDF is the one-point sweep bit for bit, both
    # integrate [0, |x - mu|] with the same call, and that call takes the
    # k-panel reference's route: 7 evaluations, then 15, then 15 or more
    # (past the class the ellipse bound still accepts one panel)
    mass = backend.vm_scaled_mass
    calls = []

    def recorded(*args):
        calls.append((args, mass(*args)))
        return calls[-1][1]

    monkeypatch.setattr(backend, "vm_scaled_mass", recorded)
    rng = random.Random(20261104)
    for kappa in [0.5] + [10.0 ** (-3.0 + 11.0 * i / 44) for i in range(45)]:
        p = VonMisesParams(0.0, kappa)
        counts = []
        for width2 in (NARROW_WIDTH2, KRONROD_CLASS_WIDTH2):
            inside = rule_width(kappa, width2)
            for t in (inside, math.nextafter(inside, math.inf)):
                x = rng.choice((-t, t))
                calls.clear()
                assert oracle.vm_cdf_quadrature(p, x, tol) == oracle.vm_cdf_sweep(p, (x,), tol)[0]
                (args, result), (sweep_args, _sweep_result) = calls
                assert args == sweep_args and args[1:3] == (0.0, t)
                assert result == vm_scaled_mass_k_panels(*args)
                counts.append(result[2])
        assert counts[:2] == [7, 15] and 15 <= counts[2] <= counts[3], (kappa, counts)


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--mu", "1.3", "--kappa", "1e5", "--grid", "201"],
        ["error-scan", "--target", "cdf", "--kappa-min", "1024", "--kappa-max", "16384",
         "--steps", "7", "--grid", "201"],
    ],
    ids=lambda a: a[0],
)
def test_cli_output_equals_every_segment_sweep(argv, monkeypatch, capsys):
    assert cli.run(argv) == 0
    out = capsys.readouterr().out
    monkeypatch.setattr(oracle, "vm_cdf_sweep", vm_cdf_sweep_every_segment)
    assert cli.run(argv) == 0
    assert capsys.readouterr().out == out


def _wn_per_point(t, v, tol):
    # wn_density with the wrap count worked out anew at every point, the
    # reference for the per-scale tail reach
    log_arg = LOG_TWO - math.log(tol) - math.log(v) - 0.5 * LOG_TWO_PI
    if log_arg <= 0.0:
        return backend.wn_density_at(t, v, 1)
    reach = abs(t) + v * math.sqrt(2.0 * log_arg)
    return backend.wn_density_at(t, v, int(math.ceil(reach / TWO_PI)) + 1)


@pytest.mark.parametrize("v", [1e-3, 0.3, 1.4, 2.5, 2.5066, 2.5067, 3.0, 10.0])
@pytest.mark.parametrize("tol", [1e-12, 1e-3, 0.5])
def test_wn_density_per_scale_counts_match_per_point_counts(v, tol):
    # the lattice sum is the only series: from sqrt(2 pi) up, where the
    # Fourier series would need fewer terms, the scale is rejected
    if v >= math.sqrt(TWO_PI):
        with pytest.raises(ValueError, match=r"^v must be finite, > 0 and < sqrt\(2 pi\)"):
            WrappedNormalParams(0.7, v)
        return
    p = WrappedNormalParams(0.7, v)
    for j in range(64):
        theta = j * (TWO_PI / 64)
        assert wn_density(p, theta, tol) == _wn_per_point(wrap_angle(theta - 0.7), v, tol)


ARGVS = [
    ["table", "--mu", "1.3", "--kappa", "4096", "--grid", "41"],
    ["table", "--mu", "0", "--kappa", "8", "--grid", "11"],
    ["error-scan", "--target", "ratio", "--kappa-min", "32", "--kappa-max", "512",
     "--steps", "4", "--grid", "21"],
    ["convergence", "--kappas", "0.5,4,64", "--grid", "31"],
    ["eval", "--mu", "0", "--kappa", "64", "--x", "0.1", "--quantity", "cdf-approx"],
    # 9 of its 20 mirror pairs have offsets that are not exact negatives
    ["table", "--mu", "2", "--kappa", "50", "--grid", "41"],
    ["table", "--mu", "1", "--kappa", "8", "--grid", "3"],
]


def _run_recording_rows(argv, monkeypatch, capsys):
    # run argv and return its stdout with the rows and header it emitted
    seen = []
    emit = cli._emit

    def recording(rows, header, meta, args):
        seen.append((rows, header))
        emit(rows, header, meta, args)

    monkeypatch.setattr(cli, "_emit", recording)
    assert cli.run(argv) == 0
    [(rows, header)] = seen
    return capsys.readouterr().out, rows, header


@pytest.mark.parametrize("precision", [17, 6])
@pytest.mark.parametrize("argv", ARGVS, ids=lambda a: a[0])
def test_csv_equals_per_value_formatting(argv, precision, monkeypatch, capsys):
    out, rows, header = _run_recording_rows(
        argv + ["--precision", str(precision)], monkeypatch, capsys
    )
    lines = [",".join(header)]
    lines += [",".join(cli._fmt(v, precision) for v in row) for row in rows]
    assert out == "\n".join(lines) + "\n"


@pytest.mark.parametrize("precision", [17, 6])
@pytest.mark.parametrize("argv", ARGVS, ids=lambda a: a[0])
def test_json_equals_per_value_formatting(argv, precision, monkeypatch, capsys):
    out, rows, header = _run_recording_rows(
        argv + ["--format", "json", "--precision", str(precision)], monkeypatch, capsys
    )
    got = json.loads(out)["rows"]
    want = [{k: cli._json_value(v, precision) for k, v in zip(header, row)} for row in rows]
    assert got == want


def test_csv_equals_per_value_formatting_on_seeded_tables(monkeypatch, capsys):
    # kappa log-uniform on [0.5, 1e5], mu uniform on [0, 2 pi): 275 of these
    # 2,000 mirror pairs have offsets that are not exact negatives, so the
    # writer prints pairs both from shared strings and row by row
    seen = []
    emit = cli._emit

    def recording(rows, header, meta, args):
        seen.append(rows)
        emit(rows, header, meta, args)

    monkeypatch.setattr(cli, "_emit", recording)
    rng = random.Random(20261021)
    lo_kappa, hi_kappa = math.log(0.5), math.log(1e5)
    exact = inexact = 0
    for _ in range(100):
        kappa = math.exp(rng.uniform(lo_kappa, hi_kappa))
        mu = rng.uniform(0.0, TWO_PI)
        assert cli.run(["table", "--mu", repr(mu), "--kappa", repr(kappa), "--grid", "41"]) == 0
        rows = seen.pop()
        lines = [",".join(cli.TABLE_COLUMNS)]
        lines += [",".join(cli._fmt(v, 17) for v in row) for row in rows]
        assert capsys.readouterr().out == "\n".join(lines) + "\n"
        # an exact mirror pair shares one object in each even column and
        # negates the odd ones; no other pair shares any value object
        for lo, hi in zip(rows[:20], rows[:20:-1]):
            shared = {c for c, a, b in zip(cli.TABLE_COLUMNS, lo, hi) if a is b}
            if 0.0 < hi[0] - mu == mu - lo[0]:
                exact += 1
                assert shared == set(cli._EVEN)
                assert all(-lo[k] == hi[k] > 0.0 for k in map(cli.TABLE_COLUMNS.index, cli._ODD))
            else:
                inexact += 1
                assert shared == set()
    assert exact >= 1500 and inexact >= 100
