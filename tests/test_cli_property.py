"""Property test of `cli.run` over generated argument vectors of all four
subcommands: it returns 0 or 1, or 2 only for a quadrature tolerance the
panels cannot meet; nothing escapes it; and what a run that exits 0
prints is finite and in bounds."""

import contextlib
import io
import json
import math

import pytest

hypothesis = pytest.importorskip("hypothesis")
st = hypothesis.strategies

from circbridge import cli  # noqa: E402

# tols the panels meet, tols below their rounding noise, and invalid ones
MEETABLE_TOLS = ("1e-12", "1e-9", "1e-6", "1e-3")
UNMEETABLE_TOLS = ("1e-17", "1e-300")
INVALID_TOLS = ("0", "-1e-12", "nan", "inf")
ODD_NUMBERS = ("nan", "inf", "-inf", "1e309", "-1")

# columns that hold densities (or the positive gap and scale of
# `convergence`); the CDF by quadrature is held within tol of [0, 1], the
# cdf expansion is not: an asymptotic series in 1/kappa, it reads -6.1 at
# kappa = 0.01
DENSITY_COLUMNS = ("vm_density", "ref_normal_density", "sup_density_gap", "matched_v")


def _rarely(common, odd):
    # common nine times in ten, otherwise one of the odd values
    return st.tuples(st.integers(0, 9), common, st.sampled_from(odd)).map(
        lambda c: c[2] if c[0] == 9 else c[1]
    )


def _number(lo, hi):
    # mostly in [lo, hi], sometimes a value a parser or a check must reject
    return _rarely(st.floats(lo, hi).map(repr), ODD_NUMBERS)


def _kappa(lo_exp=-3.0, hi_exp=9.0):
    # log-uniform, with kappa = 0 and the odd values now and then
    return _rarely(st.floats(lo_exp, hi_exp).map(lambda e: repr(10.0 ** e)), ("0", *ODD_NUMBERS))


OUTPUT = st.tuples(
    st.sampled_from(("csv", "json")),
    _rarely(st.integers(6, 17), (5, 18)),
    _rarely(st.sampled_from(MEETABLE_TOLS * 2 + UNMEETABLE_TOLS), INVALID_TOLS),
).map(
    lambda o: ["--format", o[0], "--precision", str(o[1]), "--tol=" + o[2]]
)

EVAL = st.builds(
    lambda mu, kappa, x, q: ["eval", "--mu=" + mu, "--kappa=" + kappa, "--x=" + x, "--quantity", q],
    _number(-10.0, 10.0),
    _kappa(),
    _number(-10.0, 10.0),
    st.sampled_from(cli.QUANTITIES),
)
TABLE = st.builds(
    lambda mu, kappa, eta, grid: ["table", "--mu=" + mu, "--kappa=" + kappa, "--eta=" + eta,
                                  "--grid", str(grid)],
    _number(-10.0, 10.0),
    _kappa(),
    _number(0.01, 1.2),
    _rarely(st.sampled_from((11, 21, 41)), (12, 1)),
)
ERROR_SCAN = st.builds(
    lambda target, lo, ratio, regime, eta: ["error-scan", "--target", target,
                                            "--kappa-min", repr(lo), "--kappa-max",
                                            repr(lo * ratio), "--steps", "3", "--grid", "11",
                                            "--regime", regime, "--eta=" + eta],
    st.sampled_from(("log_ratio", "ratio", "cdf")),
    st.floats(-1.0, 7.0).map(lambda e: 10.0 ** e),
    st.floats(1.5, 100.0),
    st.sampled_from(("fixed", "shrunken")),
    _number(0.05, 2.0),
)
CONVERGENCE = st.builds(
    lambda mu, k1, k2: ["convergence", "--mu=" + mu, "--kappas=%s,%s" % (k1, k2),
                        "--grid", "101"],
    _number(-10.0, 10.0),
    _kappa(-2.0, 6.0),
    _kappa(-2.0, 6.0),
)
ARGV = st.builds(
    lambda command, output: command + output,
    st.one_of(EVAL, TABLE, ERROR_SCAN, CONVERGENCE),
    OUTPUT,
)


def _option(argv, name):
    # the value of name, given as "name value" or "name=value"
    for i, arg in enumerate(argv):
        if arg == name:
            return argv[i + 1]
        if arg.startswith(name + "="):
            return arg[len(name) + 1:]
    raise KeyError(name)


def _rows(argv, out):
    # the header and the rows of a run's stdout, numbers as floats
    if _option(argv, "--format") == "json":
        rows = json.loads(out)["rows"]
        return list(rows[0]), [list(row.values()) for row in rows]
    lines = out.rstrip("\n").split("\n")

    def cell(field):
        try:
            return float(field)
        except ValueError:
            return field  # a label, or "" in error-scan's records

    return lines[0].split(","), [[cell(f) for f in line.split(",")] for line in lines[1:]]


@hypothesis.settings(max_examples=300, derandomize=True, deadline=None, database=None)
@hypothesis.given(ARGV)
def test_run_exits_cleanly_with_finite_in_bound_output(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    tol_text = _option(argv, "--tol")
    if code == 2:
        # only a quadrature (eval cdf-quad, table, a cdf error-scan) at a
        # tol below its panels' rounding noise fails this way
        assert tol_text in UNMEETABLE_TOLS, (argv, err.getvalue())
        last = err.getvalue().rstrip("\n").split("\n")[-1]  # after any wrap warning
        assert last.startswith("numerical failure: no convergence on ["), argv
        return
    assert code in (0, 1), argv
    if code == 1:
        return
    header, rows = _rows(argv, out.getvalue())
    assert rows, argv
    tol = float(tol_text)
    # the last printed digit may round a value by up to one unit
    slack = 10.0 ** (1 - int(_option(argv, "--precision")))
    for row in rows:
        for name, value in zip(header, row):
            if isinstance(value, str):
                continue
            assert math.isfinite(value), (argv, name, value)
            if name in DENSITY_COLUMNS or (name == "value" and row[0] == "density"):
                assert value >= 0.0, (argv, name, value)
            if name == "cdf_quad" or (name == "value" and row[0] == "cdf-quad"):
                assert -tol - slack <= value <= 1.0 + tol + slack, (argv, name, value)
