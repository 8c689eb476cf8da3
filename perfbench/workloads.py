"""Seeded input generation for the three benchmark workloads.

A workload is a sequence of passes.  Pass `i` of seed `s` is built from
its own random stream, so every pass of a run has fresh concentrations
and points, two seeds give different inputs, and every seed gives the
same work size: the same commands with the same grids, hence the same
number of evaluated points per pass.

An operation is one `circbridge.cli.run` command or one library call:

    CliOp(argv, points, kind, mu, kappa)   kind: table | scan | convergence
    LibOp(kind, mu, kappa, x)              one point query, one point
"""

import math
import random
from collections import namedtuple

CliOp = namedtuple("CliOp", "argv points kind mu kappa")
LibOp = namedtuple("LibOp", "kind mu kappa x")

# Variance series branch ends at 300, Bessel series branch at 600.  Each
# workload whose range reaches a branch point samples just beside it, so
# the accuracy at the branch points shows in max_err_ratio.
BAND_BELOW_300 = (295.0, 299.9)
BAND_ABOVE_600 = (600.5, 606.0)

JITTER = 0.03  # relative spread of each command's concentration
TABLE_GRID = 201
SCAN_STEPS = 7
SCAN_GRID = 201
CONVERGENCE_GRID = 1001
QUERIES_PER_PASS = 512

# Point-query kinds, called in rotation.  The three expansions are
# evaluated at the deviate returned by standardized_deviate.
QUERY_KINDS = (
    "vm_density",
    "log_ratio_exact",
    "log_ratio_expansion",
    "ratio_expansion",
    "cdf_expansion",
    "reference_normal_density",
    "vm_cdf_quadrature",
    "wn_density",
)
# Queries i with i % BAND_PERIOD in BAND_SLOTS sit just below 300 and just
# above 600; the period is odd so each band meets every kind in turn.
BAND_PERIOD = 33
BAND_SLOTS = {0: BAND_BELOW_300, 16: BAND_ABOVE_600}
QUERY_KAPPA_RANGE = (0.5, 1e5)
QUERY_MAX_DEVIATE = 3.0  # x lies within about this many sigma of mu


def _rng(seed, workload, pass_index):
    return random.Random("%s/%s/%d" % (seed, workload, pass_index))


def _jitter(rng, kappa):
    return kappa * math.exp(rng.uniform(-JITTER, JITTER))


def _mu(rng):
    return rng.uniform(0.0, 2.0 * math.pi)


def _table(mu, kappa):
    argv = ["table", "--mu", repr(mu), "--kappa", repr(kappa), "--grid", str(TABLE_GRID)]
    return CliOp(argv, TABLE_GRID, "table", mu, kappa)


def _scan(target, kappa_min, kappa_max, regime="fixed", eta=0.5):
    argv = [
        "error-scan", "--target", target,
        "--kappa-min", repr(kappa_min), "--kappa-max", repr(kappa_max),
        "--steps", str(SCAN_STEPS), "--grid", str(SCAN_GRID),
        "--regime", regime, "--eta", repr(eta),
    ]
    # every kappa evaluates the grid plus one slope point
    return CliOp(argv, SCAN_STEPS * (SCAN_GRID + 1), "scan", 0.0, kappa_max)


def _convergence(mu, kappas):
    argv = [
        "convergence", "--mu", repr(mu),
        "--kappas", ",".join(repr(k) for k in kappas),
        "--grid", str(CONVERGENCE_GRID),
    ]
    return CliOp(argv, len(kappas) * CONVERGENCE_GRID, "convergence", mu, kappas[-1])


def moderate_grid(rng):
    """The paper's checks on the series branch (kappa < 300) through the CLI."""
    ops = [_table(_mu(rng), _jitter(rng, k)) for k in (2.0, 8.0, 32.0, 128.0)]
    ops.append(_table(_mu(rng), rng.uniform(*BAND_BELOW_300)))
    for target in ("log_ratio", "ratio"):
        for regime, eta in (("fixed", 0.5), ("shrunken", 1.0)):
            hi = rng.uniform(280.0, BAND_BELOW_300[1])
            ops.append(_scan(target, _jitter(rng, 4.0), hi, regime, eta))
    kappas = [_jitter(rng, k) for k in (0.5, 2.0, 8.0, 32.0, 128.0, 256.0)]
    ops.append(_convergence(_mu(rng), kappas))
    return ops


def concentrated_cdf(rng):
    """Quadrature-bound CDF work where variance and Bessel use asymptotics."""
    ops = [_table(_mu(rng), rng.uniform(*BAND_ABOVE_600))]
    ops += [_table(_mu(rng), _jitter(rng, k)) for k in (1024.0, 4096.0, 1e5)]
    ops.append(_scan("cdf", _jitter(rng, 1024.0), _jitter(rng, 16384.0)))
    return ops


def _approx_sigma(kappa):
    # sigma^2 ~ 1/(2 kappa) for large kappa and approaches 1 as kappa -> 0;
    # only used to place x, so the program under test is not consulted
    return min(1.0, 1.0 / math.sqrt(2.0 * kappa))


def point_queries(rng):
    """One library call per (kappa, x); no two calls share a concentration."""
    lo, hi = (math.log(v) for v in QUERY_KAPPA_RANGE)
    ops = []
    for i in range(QUERIES_PER_PASS):
        band = BAND_SLOTS.get(i % BAND_PERIOD)
        kappa = rng.uniform(*band) if band else math.exp(rng.uniform(lo, hi))
        mu = _mu(rng)
        x = mu + _approx_sigma(kappa) * rng.uniform(-QUERY_MAX_DEVIATE, QUERY_MAX_DEVIATE)
        ops.append(LibOp(QUERY_KINDS[i % len(QUERY_KINDS)], mu, kappa, x))
    return ops


WORKLOADS = ("moderate-grid", "concentrated-cdf", "point-queries")

# Accuracy probes: fixed inputs, the same for every seed, beside each
# branch point a workload reaches and at one concentration away from it.
# max_err_ratio is taken over them, so it is exact for a given program.
PROBE_MU = 1.0
PROBE_TABLE_KAPPAS = {
    "moderate-grid": (2.5, 297.5, 299.5),
    "concentrated-cdf": (600.75, 603.5, 1e5),
}
PROBE_QUERY_KAPPAS = (0.75, 297.5, 299.5, 600.75, 603.5, 5e4)
PROBE_DEVIATES = (-3.0, -1.5, 1.5, 3.0)


def probe_ops(workload):
    """The workload's accuracy probes, as operations of the same kinds."""
    if workload == "point-queries":
        return [
            LibOp(kind, PROBE_MU, kappa, PROBE_MU + _approx_sigma(kappa) * d)
            for kappa in PROBE_QUERY_KAPPAS
            for d in PROBE_DEVIATES
            for kind in QUERY_KINDS
        ]
    return [_table(PROBE_MU, kappa) for kappa in PROBE_TABLE_KAPPAS[workload]]


def build_pass(workload, seed, pass_index):
    """Operations of one pass."""
    rng = _rng(seed, workload, pass_index)
    if workload == "moderate-grid":
        return moderate_grid(rng)
    if workload == "concentrated-cdf":
        return concentrated_cdf(rng)
    if workload == "point-queries":
        return point_queries(rng)
    raise ValueError("unknown workload %r" % (workload,))
