"""Command-line front end.

Subcommands:
  eval         print one evaluated quantity at a single point
  table        per-grid-point comparison columns over the bulk
  error-scan   residual maxima per concentration plus the fitted slope
  convergence  sup density gap between matched circular laws

Output is CSV (default) or JSON, to stdout or --out.  Identical argument
vectors produce byte-identical output.  A CSV table converts each number
that two exactly mirrored rows share to text once.  Every setting is a
command-line option.  Quadrature returns a value only under a certified
error: one rule per segment, or else k <= 64 equal Kronrod panels, k fixed
by an ellipse bound before any runs.  Every point CDF is certified at
--tol >= 2e-14; a --tol a segment cannot be certified to is a numerical
failure.

Exit codes: 0 success, 1 usage error, 2 numerical failure.
"""

import argparse
import functools
import math
import operator
import sys

from . import __version__, oracle
from .distributions import (
    SQRT2,
    VonMisesParams,
    _require_finite,
    _require_tol,
    matched_sup_gap,
    normalize_angle,
    vm_density,
    wrap_angle,
)
from .expansions import (
    BulkSpec,
    cdf_expansion,
    log_ratio_exact,
    log_ratio_expansion,
    ratio_expansion,
    standardized_deviate,
)
from .oracle import TABLE_COLUMNS

# Both laws are even about mu: on rows j and n - 1 - j of a table whose
# offsets t = x - mu are exact negatives, `oracle.table_rows` shares one float
# object per even column and negates the odd ones, positive in the upper row.
# So a lower line takes those cells from the upper line: repr(-v) is
# "-" + repr(v) for v with a clear sign bit.  The other four are each row's own.
_EVEN = ("vm_density", "ref_normal_density", "logratio_exact", "logratio_order1",
         "logratio_order2", "residual_log")
_ODD = ("delta", "delta_tilde")
_LOWER_LINE = ",".join("-%s" if c in _ODD else "%s" for c in TABLE_COLUMNS)
_LOWER_CELLS = operator.itemgetter(
    *(k if c in _EVEN + _ODD else len(TABLE_COLUMNS) + k for k, c in enumerate(TABLE_COLUMNS))
)

# each --quantity name and its public call on (params, x, tol); a call looks
# its function up as it runs, so a wrapper later set on the name sees it
_EVAL_CALLS = {
    "density": lambda p, x, tol: vm_density(p, x),
    "logratio-exact": lambda p, x, tol: log_ratio_exact(p, x),
    "logratio-approx": lambda p, x, tol: log_ratio_expansion(
        standardized_deviate(p, x).delta_tilde, p.kappa, 2
    ).value,
    "ratio-approx": lambda p, x, tol: ratio_expansion(
        standardized_deviate(p, x).delta_tilde, p.kappa, 2
    ).value,
    "cdf-approx": lambda p, x, tol: cdf_expansion(standardized_deviate(p, x).delta_tilde, p.kappa).value,
    "cdf-quad": lambda p, x, tol: oracle.vm_cdf_quadrature(p, x, tol),
}
QUANTITIES = tuple(_EVAL_CALLS)


def _fmt(x, precision):
    """Shortest round-trip decimal at the requested precision."""
    if isinstance(x, float) and precision < 17:
        return format(x, ".%dg" % precision)
    return str(x)


def _table_lines(rows, line):
    """CSV lines of table rows; a mirror pair's lower line reuses its upper line's strings."""
    h = len(rows) // 2
    upper = [line % row for row in rows[h:]]
    mark = TABLE_COLUMNS.index(_EVEN[0])  # one object there marks a mirror pair
    lower = [
        _LOWER_LINE % _LOWER_CELLS((*cells.split(","), *lo)) if lo[mark] is hi[mark] else line % lo
        for lo, hi, cells in zip(rows[:h], reversed(rows), reversed(upper))
    ]
    return lower + upper


def _json_value(x, precision):
    if isinstance(x, float):
        return float(_fmt(x, precision))
    return x


def _emit(rows, header, meta, args):
    precision = args.precision
    if args.format == "json":
        import json  # here, not at the top: only --format json reads it

        payload = {
            "meta": dict(meta, tol=args.tol, version=__version__),
            "rows": [
                {k: _json_value(v, precision) for k, v in zip(header, row)} for row in rows
            ],
        }
        text = json.dumps(payload, indent=2, sort_keys=False) + "\n"
    else:
        lines = [",".join(header)]
        if precision >= 17:
            # "%s" is str, so each value prints as _fmt(v, 17): a float as
            # its repr, a label as itself
            line = ",".join(["%s"] * len(header))
            table = header == TABLE_COLUMNS
            lines.extend(_table_lines(rows, line) if table else (line % row for row in rows))
        else:
            lines.extend(",".join(_fmt(v, precision) for v in row) for row in rows)
        text = "\n".join(lines) + "\n"
    if args.out:
        with open(args.out, "w", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _wrapped_mu(mu):
    _require_finite("--mu", mu)
    w = normalize_angle(mu)
    if w != mu:
        print("warning: mu=%r wrapped to %r" % (mu, w), file=sys.stderr)
    return w


def _wrapped_x(x, mu):
    # x is kept on the principal window (mu - pi, mu + pi] around the
    # wrapped mean direction.
    _require_finite("--x", x)
    xw = mu + wrap_angle(x - mu)
    # mu + w rounds, so xw - mu can land an ulp outside the window
    while not (-math.pi < xw - mu <= math.pi):
        xw = math.nextafter(xw, mu)
    if xw != x:
        print("warning: x=%r wrapped to %r (principal window around mu)" % (x, xw), file=sys.stderr)
    return xw


def _cmd_eval(args):
    mu = _wrapped_mu(args.mu)
    x = _wrapped_x(args.x, mu)
    params = VonMisesParams(mu, args.kappa)
    q = args.quantity
    value = _EVAL_CALLS[q](params, x, args.tol)
    meta = {"command": "eval", "quantity": q, "mu": mu, "kappa": args.kappa, "x": x}
    _emit([(q, mu, args.kappa, x, value)], ("quantity", "mu", "kappa", "x", "value"), meta, args)
    return 0


def _cmd_table(args):
    params = VonMisesParams(_wrapped_mu(args.mu), args.kappa)
    rows = oracle.table_rows(params, BulkSpec.fixed(args.eta), args.grid, args.tol)
    meta = {
        "command": "table",
        "mu": params.mu,
        "kappa": args.kappa,
        "eta": args.eta,
        "grid": args.grid,
    }
    _emit(rows, TABLE_COLUMNS, meta, args)
    return 0


def _geometric_kappas(lo, hi, steps):
    ratio = math.log(hi) - math.log(lo)
    return [math.exp(math.log(lo) + ratio * i / (steps - 1)) for i in range(steps)]


def _cmd_error_scan(args):
    _require_finite("--kappa-min", args.kappa_min)
    _require_finite("--kappa-max", args.kappa_max)
    if not (0 < args.kappa_min < args.kappa_max):
        raise ValueError("need 0 < --kappa-min < --kappa-max")
    if args.steps < 3:
        raise ValueError("--steps must be >= 3 (a slope fit needs three kappas), got %d" % args.steps)
    spec = BulkSpec(args.regime, args.eta)
    kappas = _geometric_kappas(args.kappa_min, args.kappa_max, args.steps)
    report = oracle.residual_scan(spec, kappas, args.grid, args.target, quad_tol=args.tol)
    header = ("record", "kappa", "max_residual", "max_normalized_residual", "fitted_slope")
    rows = [
        ("kappa", k, mr, mn, "")
        for k, mr, mn in zip(report.kappa_values, report.max_residual, report.max_normalized_residual)
    ]
    rows.append(("slope", "", "", "", report.fitted_slope))
    meta = {
        "command": "error-scan",
        "target": args.target,
        "kappa_min": args.kappa_min,
        "kappa_max": args.kappa_max,
        "steps": args.steps,
        "eta": args.eta,
        "regime": args.regime,
        "grid": args.grid,
    }
    _emit(rows, header, meta, args)
    return 0


def _cmd_convergence(args):
    mu = _wrapped_mu(args.mu)
    try:
        kappas = [float(s) for s in args.kappas.split(",") if s.strip()]
    except ValueError:
        raise ValueError("--kappas must be a comma-separated list of numbers")
    if not kappas:
        raise ValueError("--kappas must contain positive values")
    # every kappa passes both checks before any gap is computed
    laws = []
    for kappa in kappas:
        laws.append(VonMisesParams(mu, kappa))  # the kernel checks kappa's domain
        if not kappa > 0.0:
            raise ValueError("--kappas entries must be > 0, got %r" % kappa)
    rows = [(p.kappa, SQRT2 * p.sigma, matched_sup_gap(p, args.grid, args.tol)) for p in laws]
    meta = {"command": "convergence", "mu": mu, "kappas": args.kappas, "grid": args.grid}
    _emit(rows, ("kappa", "matched_v", "sup_density_gap"), meta, args)
    return 0


def _add_output_options(p, tol_help):
    p.add_argument("--format", choices=("csv", "json"), default="csv", help="output format")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.add_argument(
        "--precision",
        type=int,
        default=17,
        help="significant digits for emitted numbers (6..17)",
    )
    p.add_argument("--tol", type=float, default=1e-12, help=tol_help)


def build_parser():
    """A new parser on every call; `run` builds one per process."""
    parser = argparse.ArgumentParser(
        prog="circbridge",
        description="Circular-to-linear normal bridge: densities, local approximations, error-order scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate one quantity at a point")
    p.add_argument("--mu", type=float, required=True, help="mean direction (radians)")
    p.add_argument("--kappa", type=float, required=True, help="concentration")
    p.add_argument("--x", type=float, required=True, help="evaluation point (radians)")
    p.add_argument("--quantity", choices=QUANTITIES, required=True)
    _add_output_options(p, "quadrature tolerance, read only by cdf-quad; certified for any x from 2e-14")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("table", help="comparison table over the bulk")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--kappa", type=float, required=True)
    p.add_argument("--eta", type=float, default=0.5, help="bulk parameter (fixed regime)")
    p.add_argument("--grid", type=int, default=201, help="odd number of grid points")
    _add_output_options(p, "quadrature tolerance")
    p.set_defaults(func=_cmd_table)

    p = sub.add_parser("error-scan", help="residual scan across concentrations")
    p.add_argument("--target", choices=oracle.SCAN_TARGETS, required=True)
    p.add_argument("--kappa-min", type=float, required=True)
    p.add_argument("--kappa-max", type=float, required=True)
    p.add_argument("--steps", type=int, default=7, help="number of kappas (>= 3)")
    p.add_argument("--eta", type=float, default=0.5, help="bulk parameter for the chosen regime")
    p.add_argument("--regime", choices=("fixed", "shrunken"), default="fixed")
    p.add_argument("--grid", type=int, default=201)
    _add_output_options(p, "quadrature tolerance")
    p.set_defaults(func=_cmd_error_scan)

    p = sub.add_parser("convergence", help="sup gap between matched circular laws")
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--kappas", default="4,16,64,256", help="comma-separated concentrations")
    p.add_argument("--grid", type=int, default=1001, help="theta grid size")
    _add_output_options(p, "wrapped-normal lattice truncation tolerance")
    p.set_defaults(func=_cmd_convergence)

    return parser


@functools.cache
def _parser():
    # built on the first run, not at import; parse_args leaves a parser
    # unchanged, so every later run in the process reuses this one
    return build_parser()


def run(argv):
    """Dispatch one CLI invocation; returns the process exit code."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems and 0 for --help
        return 0 if exc.code == 0 else 1
    try:
        if not (6 <= args.precision <= 17):
            raise ValueError("--precision must be in [6, 17]")
        _require_tol(args.tol)
        return args.func(args)
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    except ArithmeticError as exc:
        print("numerical failure: %s" % exc, file=sys.stderr)
        return 2


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
