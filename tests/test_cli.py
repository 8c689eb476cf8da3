import json
import math
import subprocess
import sys

import pytest

from circbridge.cli import run
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


@pytest.mark.parametrize(
    "quantity", ["density", "logratio-exact", "logratio-approx", "ratio-approx", "cdf-quad"]
)
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


CDF_QUAD_ARGS = ["eval", "--mu", "0", "--kappa", "100", "--x", "0.1", "--quantity", "cdf-quad"]


def test_numerical_failure_exit_code(cli_env):
    # no panel meets this tolerance before the fixed bisection depth
    r = run_cli(CDF_QUAD_ARGS + ["--tol", "1e-300"], cli_env)
    assert r.returncode == 2
    assert b"numerical failure" in r.stderr


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
    assert len(payload["rows"]) == 1
    assert payload["rows"][0]["quantity"] == "density"


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


@pytest.mark.parametrize("grid", ["0", "-5"])
def test_convergence_rejects_empty_grid(grid, capsys):
    assert run(["convergence", "--kappas", "4,16", "--grid=" + grid]) == 1
    assert "grid_size must be >= 1" in capsys.readouterr().err


def test_byte_identical_reruns(cli_env):
    first = run_cli(SCAN_ARGS, cli_env)
    second = run_cli(SCAN_ARGS, cli_env)
    assert first.returncode == 0
    assert second.returncode == 0
    assert first.stdout == second.stdout
    assert len(first.stdout) > 0
