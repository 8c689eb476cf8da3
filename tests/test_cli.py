import json
import math
import random
import subprocess
import sys

import pytest

import circbridge
from circbridge import backend, cli, oracle
from circbridge.cli import QUANTITIES, build_parser, run
from circbridge.distributions import matched_wn_scale

SCAN_ARGS = [
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


def run_cli(args, env):
    return subprocess.run(
        [sys.executable, "-m", "circbridge"] + args,
        capture_output=True,
        env=env,
    )


def test_eval_uniform_density(capsys):
    code = run(["eval", "--mu", "0", "--kappa", "0", "--x", "1", "--quantity", "density"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "quantity,mu,kappa,x,value"
    value = float(lines[1].split(",")[-1])
    assert math.isclose(value, 1.0 / (2.0 * math.pi), rel_tol=1e-15)


def test_eval_cdf_approx_at_mode(capsys):
    code = run(["eval", "--mu", "0", "--kappa", "100", "--x", "0", "--quantity", "cdf-approx"])
    out = capsys.readouterr().out
    assert code == 0
    assert float(out.strip().split("\n")[1].split(",")[-1]) == 0.5


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_eval_all_quantities_run(quantity, capsys):
    code = run(["eval", "--mu", "0.5", "--kappa", "64", "--x", "0.6", "--quantity", quantity])
    out = capsys.readouterr().out
    assert code == 0
    assert len(out.strip().split("\n")) == 2


def test_eval_wraps_mu_with_warning(capsys):
    code = run(["eval", "--mu", "7.0", "--kappa", "2", "--x", "7.1", "--quantity", "density"])
    captured = capsys.readouterr()
    assert code == 0
    assert "wrapped" in captured.err


def test_eval_wraps_x_into_window(capsys):
    # x lands on the far side of the circle from mu and is pulled back
    code = run(["eval", "--mu", "0", "--kappa", "5", "--x", "6.0", "--quantity", "cdf-quad"])
    captured = capsys.readouterr()
    assert code == 0
    assert "wrapped" in captured.err
    value = float(captured.out.strip().split("\n")[1].split(",")[-1])
    assert 0.0 < value < 0.5  # 6.0 wraps to -0.283


def _eval_x_offset(argv, capsys):
    # the printed x's offset from the printed mu, after a run that exits 0
    assert run(argv) == 0, argv
    row = capsys.readouterr().out.strip().split("\n")[-1].split(",")
    return float(row[3]) - float(row[1])


def test_eval_cdf_quad_at_window_end_after_wrap(capsys):
    # mu + wrap_angle(x - mu) rounds to an offset of pi + 1 ulp here
    argv = ["eval", "--mu", "1.495175848572241", "--kappa", "5", "--x", "10.91995380934162",
            "--quantity", "cdf-quad"]
    assert -math.pi < _eval_x_offset(argv, capsys) <= math.pi


def test_eval_keeps_wrapped_x_on_the_window(capsys):
    # x = mu + k pi sits on the window's closed end; about one in nine of
    # these rounded off it before the wrapped x was stepped back on
    rng = random.Random(7)
    for _ in range(300):
        mu = rng.uniform(0.0, 2.0 * math.pi)
        x = mu + rng.choice((-1, 1, 3)) * math.pi
        argv = ["eval", "--mu", repr(mu), "--kappa", "5", "--x", repr(x), "--quantity", "cdf-quad"]
        assert -math.pi < _eval_x_offset(argv, capsys) <= math.pi


def test_usage_error_exit_code(capsys):
    assert run(["eval", "--mu", "0", "--kappa", "1"]) == 1  # missing --x/--quantity
    capsys.readouterr()
    assert run(["eval", "--mu", "0", "--kappa", "1", "--x", "0", "--quantity", "nope"]) == 1
    capsys.readouterr()
    assert run(["bogus-command"]) == 1
    capsys.readouterr()
    assert run(["table", "--mu", "0", "--kappa", "10", "--grid", "10"]) == 1
    capsys.readouterr()
    assert run(["eval", "--mu", "0", "--kappa", "1", "--x", "0", "--quantity", "density", "--precision", "3"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "option, value, field",
    [
        ("--mu", "nan", "mu"),
        ("--mu", "inf", "mu"),
        ("--x", "nan", "x"),
        ("--x", "-inf", "x"),
        ("--kappa", "inf", "kappa"),
        ("--kappa", "nan", "kappa"),
    ],
)
def test_eval_rejects_non_finite_input(option, value, field, capsys):
    args = {"--mu": "0", "--kappa": "5", "--x": "0.1"}
    args[option] = value
    # "--x=-inf" keeps argparse from reading the value as an option
    argv = ["eval", "--quantity", "density"] + ["%s=%s" % kv for kv in args.items()]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "%s must be finite" % field in err


def test_eval_rejects_infinite_tol(capsys):
    # one unrefined panel per segment would print a value 1.2e-6 off
    argv = ["eval", "--mu", "0", "--kappa", "100", "--x", "0.1", "--quantity", "cdf-quad"]
    assert run(argv + ["--tol", "inf"]) == 1
    assert "tol must be finite" in capsys.readouterr().err


# one run per subcommand; the eval and error-scan runs take paths that
# never read --tol, so only a check in cli.run can reject it there
SUBCOMMAND_RUNS = [
    ["eval", "--mu", "0", "--kappa", "5", "--x", "0.1", "--quantity", "density"],
    ["table", "--mu", "0", "--kappa", "100", "--grid", "11"],
    ["error-scan", "--target", "log_ratio", "--kappa-min", "32", "--kappa-max", "128",
     "--steps", "3", "--grid", "11"],
    ["convergence", "--kappas", "4,16", "--grid", "11"],
]


@pytest.mark.parametrize("tol", ["-1", "0", "nan", "inf"])
@pytest.mark.parametrize("argv", SUBCOMMAND_RUNS, ids=lambda argv: argv[0])
def test_every_subcommand_rejects_invalid_tol(argv, tol, capsys):
    assert run(argv + ["--tol=" + tol]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "tol must be finite and > 0" in captured.err


def test_eval_cdf_quad_at_zero_kappa_is_uniform(capsys):
    # kappa = 0 gives the uniform answer 1/2 + 1/(2 pi), as kappa = 1e-300 does
    lines = {}
    for kappa in ("0", "1e-300"):
        argv = ["eval", "--mu", "0", "--kappa", kappa, "--x", "1", "--quantity", "cdf-quad"]
        assert run(argv) == 0
        lines[kappa] = capsys.readouterr().out.strip().split("\n")[1].split(",")
    assert lines["0"][2] == "0.0"
    del lines["0"][2], lines["1e-300"][2]
    assert lines["0"] == lines["1e-300"] == ["cdf-quad", "0.0", "1.0", "0.6591549430918954"]


@pytest.mark.parametrize(
    "option, value", [("--kappa-min", "nan"), ("--kappa-max", "inf"), ("--kappa-max", "nan")]
)
def test_error_scan_rejects_non_finite_kappa_range(option, value, capsys):
    args = {"--kappa-min": "32", "--kappa-max": "2048"}
    args[option] = value
    argv = ["error-scan", "--target", "log_ratio"] + ["%s=%s" % kv for kv in args.items()]
    assert run(argv) == 1
    assert "%s must be finite" % option in capsys.readouterr().err


@pytest.mark.parametrize("steps", ["0", "1", "2", "-4"])
def test_error_scan_rejects_too_few_steps(steps, capsys):
    argv = ["error-scan", "--target", "log_ratio", "--kappa-min", "32", "--kappa-max", "2048"]
    assert run(argv + ["--steps=" + steps]) == 1
    err = capsys.readouterr().err
    assert "--steps must be >= 3" in err
    assert "too few residuals" not in err


@pytest.mark.parametrize("lo, hi", [("32", "32"), ("64", "32")])
def test_error_scan_needs_kappa_min_below_kappa_max(lo, hi, capsys):
    argv = ["error-scan", "--target", "log_ratio", "--kappa-min", lo, "--kappa-max", hi]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "--kappa-min < --kappa-max" in err
    assert "abscissae" not in err


CDF_QUAD_ARGS = ["eval", "--mu", "0", "--kappa", "100", "--x", "0.1", "--quantity", "cdf-quad"]
# the rounding allowance of the mass on [mu, x] alone exceeds this
# tolerance (x = mu would need no quadrature at all)
FAILING_CDF_QUAD_ARGS = ["eval", "--mu", "0", "--kappa", "100", "--x", "-2.0",
                         "--quantity", "cdf-quad", "--tol", "1e-300"]


def test_numerical_failure_exit_code(cli_env):
    r = run_cli(FAILING_CDF_QUAD_ARGS, cli_env)
    assert r.returncode == 2
    assert b"numerical failure" in r.stderr


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    out_path = tmp_path / "missing" / "table.csv"
    assert run(["table", "--mu", "0", "--kappa", "100", "--out", str(out_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert str(out_path) in captured.err


def test_environment_does_not_change_quadrature(cli_env):
    plain = run_cli(CDF_QUAD_ARGS, cli_env)
    with_env = run_cli(CDF_QUAD_ARGS, dict(cli_env, CIRC_BRIDGE_MAX_DEPTH="1"))
    assert plain.returncode == with_env.returncode == 0
    assert with_env.stdout == plain.stdout


def test_table_columns_and_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "table.csv"
    code = run(
        [
            "table",
            "--mu",
            "0",
            "--kappa",
            "64",
            "--eta",
            "0.5",
            "--grid",
            "11",
            "--out",
            str(out_path),
        ]
    )
    capsys.readouterr()
    assert code == 0
    lines = out_path.read_text().split("\n")
    assert lines[0] == (
        "x,delta,delta_tilde,vm_density,ref_normal_density,logratio_exact,"
        "logratio_order1,logratio_order2,cdf_quad,cdf_approx,residual_log,residual_cdf"
    )
    rows = [ln for ln in lines[1:] if ln]
    assert len(rows) == 11
    # the center row sits at delta_tilde = 0
    center = rows[5].split(",")
    assert float(center[2]) == 0.0
    # full-precision fields parse back to the same shortest repr
    for row in rows:
        for field in row.split(","):
            assert repr(float(field)) == field


def test_table_cdf_at_upper_edge_within_tol_of_one(capsys):
    # just above the Bessel branch point the upper edge reads 1 + 8.7e-13
    assert run(["table", "--mu", "0", "--kappa", "600.5", "--grid", "3"]) == 0
    upper = capsys.readouterr().out.strip().split("\n")[-1].split(",")
    assert float(upper[8]) <= 1.0 + 1e-12


def test_table_precision_roundtrip(capsys):
    code = run(
        ["table", "--mu", "0", "--kappa", "16", "--eta", "0.4", "--grid", "5", "--precision", "9"]
    )
    out = capsys.readouterr().out
    assert code == 0
    for line in out.strip().split("\n")[1:]:
        for field in line.split(","):
            assert format(float(field), ".9g") == field


def test_json_output_structure(capsys):
    code = run(
        [
            "eval",
            "--mu",
            "0",
            "--kappa",
            "4",
            "--x",
            "0.3",
            "--quantity",
            "density",
            "--format",
            "json",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["meta"]["command"] == "eval"
    assert payload["meta"]["kappa"] == 4.0
    assert payload["meta"]["tol"] == 1e-12
    assert payload["meta"]["version"] == circbridge.__version__
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["quantity"] == "density"


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--mu", "0", "--kappa", "16", "--grid", "3"],
        ["error-scan", "--target", "ratio", "--kappa-min", "64", "--kappa-max", "256", "--steps", "3", "--grid", "11"],
        ["convergence", "--kappas", "4,16", "--grid", "11"],
    ],
)
def test_json_meta_records_tol_and_version(argv, capsys):
    assert run(argv + ["--format", "json", "--tol", "1e-10"]) == 0
    meta = json.loads(capsys.readouterr().out)["meta"]
    assert meta["command"] == argv[0]
    assert meta["tol"] == 1e-10
    assert meta["version"] == circbridge.__version__


def test_error_scan_emits_slope_record(capsys):
    code = run(
        [
            "error-scan",
            "--target",
            "log_ratio",
            "--kappa-min",
            "32",
            "--kappa-max",
            "256",
            "--steps",
            "4",
            "--eta",
            "0.5",
            "--grid",
            "21",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "record,kappa,max_residual,max_normalized_residual,fitted_slope"
    assert len(lines) == 6  # header + 4 kappa rows + slope row
    assert lines[-1].startswith("slope,")
    slope = float(lines[-1].split(",")[-1])
    assert -3.5 < slope < -2.5


def test_error_scan_shrunken_regime(capsys):
    code = run(
        [
            "error-scan",
            "--target",
            "ratio",
            "--kappa-min",
            "64",
            "--kappa-max",
            "256",
            "--steps",
            "3",
            "--eta",
            "1.0",
            "--regime",
            "shrunken",
            "--grid",
            "11",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert out.strip().split("\n")[-1].startswith("slope,")


def test_convergence_gaps_decrease(capsys):
    code = run(["convergence", "--kappas", "4,16,64", "--grid", "301"])
    out = capsys.readouterr().out
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "kappa,matched_v,sup_density_gap"
    gaps = [float(ln.split(",")[-1]) for ln in lines[1:]]
    assert gaps[0] > gaps[1] > gaps[2]
    matched_v = [float(ln.split(",")[1]) for ln in lines[1:]]
    assert matched_v == [matched_wn_scale(k) for k in (4.0, 16.0, 64.0)]


def test_convergence_does_not_depend_on_mu(capsys):
    # both laws are centred at mu, so their gap is sampled at offsets from it
    outs = []
    for mu in ("0", "1", "5.5"):
        assert run(["convergence", "--mu", mu, "--kappas", "4,16384", "--grid", "1001"]) == 0
        outs.append(capsys.readouterr().out)
    assert outs == [outs[0]] * 3


@pytest.mark.parametrize("grid", ["0", "-5"])
def test_convergence_rejects_empty_grid(grid, capsys):
    assert run(["convergence", "--kappas", "4,16", "--grid=" + grid]) == 1
    assert "grid_size must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("bad", ["nan", "inf", "0", "1e308", "-1"])
def test_convergence_checks_every_kappa_before_any_work(bad, count_calls, capsys):
    # the kernel's domain, as eval and table print it, then convergence's own kappa > 0
    if bad == "0":
        rule = "--kappas entries must be > 0, "
    else:
        rule = "kappa must be finite, >= 0 and <= 8.988465674311579e+307, "
    lattice = count_calls(backend, "wn_density_at")
    assert run(["convergence", "--kappas", "4," + bad, "--grid", "11"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %sgot %r\n" % (rule, float(bad))
    assert lattice == []


def test_byte_identical_reruns(cli_env):
    first = run_cli(SCAN_ARGS, cli_env)
    second = run_cli(SCAN_ARGS, cli_env)
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0


@pytest.mark.parametrize("target", ["log_ratio", "ratio", "cdf"])
def test_error_scan_rejects_bulk_beyond_pi(target, count_calls, capsys):
    # the bulk at kappa = 1 would reach 7.44 rad from mu, off the circle
    quadratures = count_calls(backend, "vm_scaled_mass")
    argv = ["error-scan", "--target", target, "--regime", "shrunken", "--eta", "10",
            "--kappa-min", "1", "--kappa-max", "8", "--steps", "3", "--grid", "11"]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "reaches pi at kappa=1.0 with eta_tilde=10.0" in err
    assert quadratures == []


def test_error_scan_rejects_infinite_eta_tilde_before_any_work(count_calls, capsys):
    quadratures = count_calls(backend, "vm_scaled_mass")
    argv = ["error-scan", "--target", "log_ratio", "--regime", "shrunken", "--eta", "inf",
            "--kappa-min", "10", "--kappa-max", "100"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "eta_tilde must be finite, got inf" in captured.err
    assert quadratures == []


@pytest.mark.parametrize("kappa", ["5e-324", "1e300", "1e307"])
def test_eval_density_at_extreme_kappa(kappa, capsys):
    assert run(["eval", "--mu", "0", "--kappa", kappa, "--x", "0", "--quantity", "density"]) == 0
    value = float(capsys.readouterr().out.strip().split("\n")[1].split(",")[-1])
    # at the mode the density is 1 / (2 pi e^-kappa I0(kappa)) ~ sqrt(kappa / (2 pi))
    expected = max(1.0, math.sqrt(2.0 * math.pi * float(kappa))) / (2.0 * math.pi)
    assert math.isclose(value, expected, rel_tol=1e-15)


def test_eval_rejects_kappa_beyond_kernel_range(capsys):
    code = run(["eval", "--mu", "0", "--kappa", "1.7e308", "--x", "0", "--quantity", "density"])
    assert code == 1
    assert "kappa" in capsys.readouterr().err


APPROX_QUANTITIES = ["logratio-approx", "ratio-approx", "cdf-approx"]


@pytest.mark.parametrize("kappa", ["1e-200", "1e-120"])
@pytest.mark.parametrize("quantity", APPROX_QUANTITIES)
def test_eval_expansions_reject_kappa_where_inverse_cube_overflows(kappa, quantity, capsys):
    argv = ["eval", "--mu", "0", "--kappa", kappa, "--x", "0", "--quantity", quantity]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "kappa=%r is too small" % float(kappa) in captured.err


@pytest.mark.parametrize("quantity", APPROX_QUANTITIES)
def test_eval_expansions_reject_deviate_where_remainder_scale_is_not_finite(quantity, capsys):
    # at kappa = 1e300, x = 0.1 lies about 1e149 sigma from mu
    argv = ["eval", "--mu", "0", "--kappa", "1e300", "--x", "0.1", "--quantity", quantity]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: delta_tilde=")


@pytest.mark.parametrize("kappa", ["1e-200", "1e-120"])
def test_table_rejects_kappa_where_inverse_cube_overflows(kappa, count_calls, capsys):
    quadratures = count_calls(backend, "vm_scaled_mass")
    assert run(["table", "--mu", "0", "--kappa", kappa, "--grid", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "kappa=%r is too small" % float(kappa) in captured.err
    assert quadratures == []


@pytest.mark.parametrize(
    "kappa, eta, message",
    [
        ("1e300", "0.5", "delta_tilde=3.5355339059327374e+149 is outside the log_ratio"
         " expansion's range at this kappa: |delta_tilde|^8 in its remainder"
         " scale (1 + |delta_tilde|^8)"),
        ("1e80", "0.5", "delta_tilde=3.535533905932738e+39 is outside the log_ratio"
         " expansion's range at this kappa: |delta_tilde|^8 in its remainder"
         " scale (1 + |delta_tilde|^8)"),
        ("1e60", "0.5", "delta_tilde=3.5355339059327375e+29 is outside the cdf"
         " expansion's range at this kappa: |delta_tilde|^11 in its remainder"
         " scale (1 + |delta_tilde|^11)"),
        # just past the onset, about 2.2e56 / eta^2, where |delta_tilde|^11
        # overflows at the bulk edge
        ("8.91e58", "0.05", "delta_tilde=1.0553435459602716e+28 is outside the cdf"
         " expansion's range at this kappa: |delta_tilde|^11 in its remainder"
         " scale (1 + |delta_tilde|^11)"),
        ("8.91e56", "0.5", "delta_tilde=1.0553435459602716e+28 is outside the cdf"
         " expansion's range at this kappa: |delta_tilde|^11 in its remainder"
         " scale (1 + |delta_tilde|^11)"),
        ("2.47e56", "0.95", "delta_tilde=1.0557402616174112e+28 is outside the cdf"
         " expansion's range at this kappa: |delta_tilde|^11 in its remainder"
         " scale (1 + |delta_tilde|^11)"),
    ],
    ids=["1e300", "1e80", "1e60", "onset-eta-0.05", "onset-eta-0.5", "onset-eta-0.95"],
)
def test_table_rejects_bulk_edge_where_remainder_scale_is_not_finite(
    kappa, eta, message, count_calls, capsys
):
    # the rule `eval` applies to its point, applied at the outermost
    # deviate before the sweep
    quadratures = count_calls(backend, "vm_scaled_mass")
    assert run(["table", "--mu", "0", "--kappa", kappa, "--eta", eta, "--grid", "5"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s / kappa^3 overflows\n" % message
    assert quadratures == []


@pytest.mark.parametrize("kappa, eta", [("8.9e58", "0.05"), ("8.9e56", "0.5"), ("2.46e56", "0.95")])
def test_table_finite_just_below_the_bulk_edge_rule(kappa, eta, capsys):
    assert run(["table", "--mu", "0", "--kappa", kappa, "--eta", eta, "--grid", "5"]) == 0
    rows = capsys.readouterr().out.split()[1:]
    assert len(rows) == 5
    assert all(math.isfinite(float(v)) for row in rows for v in row.split(","))


def test_error_scan_rejects_kappa_where_inverse_cube_overflows(count_calls, capsys):
    quadratures = count_calls(backend, "vm_scaled_mass")
    argv = ["error-scan", "--target", "cdf", "--kappa-min", "1e-200", "--kappa-max", "1",
            "--steps", "3", "--grid", "11"]
    assert run(argv) == 1
    # the geometric kappa grid gives 9.99999999999978e-201 as its first kappa
    assert "kappa=9.99999999999978e-201 is too small" in capsys.readouterr().err
    assert quadratures == []


def _scan_sizes(monkeypatch):
    # the number of points of every `oracle._scan_residuals` call
    scan = oracle._scan_residuals
    sizes = []

    def recorded(target, params, powers, xs, cdf_quad):
        sizes.append(len(xs))
        return scan(target, params, powers, xs, cdf_quad)

    monkeypatch.setattr(oracle, "_scan_residuals", recorded)
    return sizes


@pytest.mark.parametrize(
    "regime, eta, kappa_min, kappa_max, edges, message",
    [
        # the geometric kappa grid gives 1999999.9999999993 as its last kappa
        ("fixed", "0.5", "1e5", "2e6", 2, "at kappa=1999999.9999999993 (fixed regime, eta=0.5)"
         ": its log is 1296.65, above log(max float) = 709.783; use the shrunken regime"),
        # the shrunken edge log-ratio tends to eta_tilde^4 / 96 as kappa grows
        ("shrunken", "20", "1e3", "8e3", 0, "at kappa=999.9999999999998 (shrunken regime,"
         " eta_tilde=20.0): its log is 1352.14, above log(max float) = 709.783;"
         " use a smaller eta_tilde"),
    ],
    ids=["fixed", "shrunken"],
)
def test_error_scan_rejects_ratio_that_overflows_at_the_bulk_edge(
    regime, eta, kappa_min, kappa_max, edges, message, monkeypatch, capsys
):
    # no grid is evaluated: each kappa before the failing one checks the
    # residual at its bulk edge alone
    evaluated = _scan_sizes(monkeypatch)
    argv = ["error-scan", "--target", "ratio", "--regime", regime, "--eta", eta,
            "--kappa-min", kappa_min, "--kappa-max", kappa_max, "--steps", "3", "--grid", "11"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: the exact ratio overflows at the bulk edge %s\n" % message
    assert evaluated == [1] * edges


@pytest.mark.parametrize(
    "kappa_max, message",
    [
        # the geometric kappa grid ends a few ulp from kappa_max
        ("1.07e6", "kappa=1070000.0000000014 (fixed regime, eta=0.5): the residual 1.86839e+301"),
        ("1.08e6", "kappa=1080000.0000000012 (fixed regime, eta=0.5): the residual 1.22223e+304"),
        ("1.085e6", "kappa=1085000.0 (fixed regime, eta=0.5): the residual 3.12603e+305"),
        ("1.0899e6", "kappa=1089900.0000000007 (fixed regime, eta=0.5): the residual 7.49338e+306"),
    ],
    ids=["1.07e6", "1.08e6", "1.085e6", "1.0899e6"],
)
def test_error_scan_rejects_ratio_whose_normalized_residual_overflows_at_the_bulk_edge(
    kappa_max, message, monkeypatch, capsys
):
    # below the exact ratio's own overflow (kappa ~ 1.09e6 at eta = 0.5)
    # the edge residual r is finite, but r kappa^3 is not; no grid is
    # evaluated, only the residual at each of the five kappas' bulk edge
    evaluated = _scan_sizes(monkeypatch)
    argv = ["error-scan", "--target", "ratio", "--kappa-min", "10", "--kappa-max", kappa_max,
            "--steps", "5", "--grid", "11"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: the normalized ratio residual overflows at the bulk edge at %s"
        " times kappa^3 is not finite; use the shrunken regime\n" % message
    )
    assert evaluated == [1] * 5


def test_error_scan_ratio_far_past_the_order_checks_has_too_few_residuals_to_fit(capsys):
    # the edge passes its check, and inside the grid the exact ratio is
    # finite too (the cancelling exact log-ratio once read rounding noise
    # of order 1e7 there, at kappa = 7.38e52, and overflowed); but every
    # slope residual is below the floating-point floor
    argv = ["error-scan", "--target", "ratio", "--kappa-min", "6.36e+27", "--kappa-max", "7.38e+52",
            "--steps", "5", "--grid", "25", "--regime", "shrunken", "--eta", "0.116"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: too few residuals above the floating-point floor for a slope fit\n"


def test_error_scan_rejects_colliding_kappas_before_any_work(count_calls, capsys):
    # every kappa of the geometric grid rounds to the same float
    evaluated = count_calls(oracle, "_scan_residuals")
    argv = ["error-scan", "--target", "log_ratio", "--kappa-min", "100",
            "--kappa-max", "100.00000000000003", "--steps", "7", "--grid", "11"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: a slope fit needs distinct kappa values, got 100.00000000000004 more than once\n"
    )
    assert evaluated == []


def test_error_scan_rejects_kappa_where_cube_overflows(capsys):
    argv = ["error-scan", "--target", "log_ratio", "--kappa-min", "1e100", "--kappa-max", "1e104",
            "--steps", "3", "--grid", "11"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "kappa=1.0000000000000013e+104 is too large" in captured.err
    assert "kappa^3 overflows" in captured.err


@pytest.mark.parametrize(
    "target, kappa_min, kappa_max, message",
    [
        ("log_ratio", "1e40", "1e80",
         "delta_tilde=3.535533905932743e+39 is outside the log_ratio expansion's range at this"
         " kappa: |delta_tilde|^8 in its remainder scale (1 + |delta_tilde|^8) / kappa^3"
         " overflows"),
        ("cdf", "1e57", "1e60",
         "delta_tilde=1.1180339887498924e+28 is outside the cdf expansion's range at this"
         " kappa: |delta_tilde|^11 in its remainder scale (1 + |delta_tilde|^11) / kappa^3"
         " overflows"),
    ],
    ids=["log_ratio", "cdf"],
)
def test_error_scan_rejects_bulk_edge_where_remainder_scale_overflows(
    target, kappa_min, kappa_max, message, count_calls, capsys
):
    # |delta_tilde|^p of the normalized maximum overflows at the bulk edge
    # (kappa = 1e80 and 1e57); the scan fails before any sweep or residual
    quadratures = count_calls(backend, "vm_scaled_mass")
    evaluated = count_calls(oracle, "_scan_residuals")
    argv = ["error-scan", "--target", target, "--kappa-min", kappa_min, "--kappa-max", kappa_max,
            "--steps", "3", "--grid", "11"]
    assert run(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message
    assert quadratures == []
    assert evaluated == []


@pytest.mark.parametrize("quantity", APPROX_QUANTITIES)
def test_eval_expansions_finite_at_kappa_1e_minus_100(quantity, capsys):
    for x in ("0", "0.1", "-3"):
        argv = ["eval", "--mu", "0", "--kappa", "1e-100", "--x", x, "--quantity", quantity]
        assert run(argv) == 0
        value = float(capsys.readouterr().out.strip().split("\n")[1].split(",")[-1])
        assert math.isfinite(value)


def test_table_finite_at_kappa_1e_minus_100(capsys):
    assert run(["table", "--mu", "0", "--kappa", "1e-100", "--grid", "11"]) == 0
    lines = capsys.readouterr().out.strip().split("\n")[1:]
    assert len(lines) == 11
    assert all(math.isfinite(float(f)) for line in lines for f in line.split(","))


@pytest.mark.parametrize("quantity", QUANTITIES)
def test_eval_tiny_negative_mu_reads_as_zero(quantity, capsys):
    # -1e-20 + 2*pi rounds to 2*pi; mu must wrap to 0, not to 2*pi, and
    # -0 to +0, not to -0
    argv = ["eval", "--kappa", "100", "--x", "0.05", "--quantity", quantity]
    assert run(argv + ["--mu=0"]) == 0
    at_zero = capsys.readouterr().out
    for mu in ("-1e-20", "-0"):
        assert run(argv + ["--mu=" + mu]) == 0
        assert capsys.readouterr().out == at_zero


# ------------------------------------------------------- one parser per process


@pytest.fixture
def fresh_parser():
    """Drop the process's parser before and after the test."""
    cli._parser.cache_clear()
    yield
    cli._parser.cache_clear()


def test_runs_build_the_parser_once(fresh_parser, monkeypatch, capsys):
    builds = []

    def counted():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counted)
    for kappa in ("4", "16", "64"):
        assert run(["eval", "--mu", "0", "--kappa", kappa, "--x", "0.1", "--quantity", "density"]) == 0
    assert run(["convergence", "--kappas", "4", "--grid", "11"]) == 0
    capsys.readouterr()
    assert len(builds) == 1


@pytest.mark.parametrize(
    "command, text",
    [
        ("eval", "quadrature tolerance, read only by cdf-quad; certified for any x from 2e-14"),
        ("table", "quadrature tolerance"),
        ("error-scan", "quadrature tolerance"),
        ("convergence", "wrapped-normal lattice truncation tolerance"),
    ],
)
def test_tol_help_says_what_each_subcommand_uses_it_for(command, text, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help text to the terminal
    assert run([command, "--help"]) == 0
    help_text = capsys.readouterr().out.split("\n  --tol TOL", 1)[1].split("\n  --", 1)[0]
    assert " ".join(help_text.split()) == text


def test_build_parser_returns_a_new_parser():
    assert build_parser() is not build_parser()
    assert cli._parser() is cli._parser()


MIXED_RUNS = [
    ["table", "--mu", "0.3", "--kappa", "64", "--grid", "5"],
    ["eval", "--mu", "0", "--kappa", "1"],  # usage error: exit 1
    ["error-scan", "--target", "cdf", "--kappa-min", "64", "--kappa-max", "256", "--steps", "3", "--grid", "11"],
    ["table", "--help"],  # exit 0
    FAILING_CDF_QUAD_ARGS,  # numerical failure: exit 2
    ["convergence", "--kappas", "4,16", "--grid", "21", "--format", "json"],
    ["eval", "--mu", "1", "--kappa", "8", "--x", "1.2", "--quantity", "logratio-exact"],
    ["--help"],
    ["table", "--mu", "0.3", "--kappa", "64", "--grid", "5", "--precision", "9"],
]


def test_shared_parser_matches_a_fresh_parser(fresh_parser, capsys):
    def outcome(argv):
        code = run(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    shared = [outcome(argv) for argv in MIXED_RUNS]
    fresh = []
    for argv in MIXED_RUNS:
        cli._parser.cache_clear()
        fresh.append(outcome(argv))
    assert [code for code, _out, _err in shared] == [0, 1, 0, 0, 2, 0, 0, 0, 0]
    assert shared == fresh
