"""Run one workload in this (fresh) interpreter and print a JSON summary.

    python worker.py --workload NAME --seed N (--seconds S | --passes P)
                     [--trace [--spans PATH]]

With --seconds the worker runs whole passes until S seconds of wall time
have passed and at least min_ops(workload) operations are done, then
evaluates the workload's fixed accuracy probes (untimed).  Before every
pass it times calibration_loop() and scales the pass's operation times by
REFERENCE_CALIBRATION_S / that time (see below).  With --passes
it runs exactly P passes, so its work, outputs and counts repeat exactly
for a seed.  Every operation is timed on its own; output parsing and
checking happen between operations, outside the timed calls.  The last
line on stdout is the JSON summary.  circbridge must be importable.
"""

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import resource
import statistics
import sys
import time
from array import array

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import workloads  # noqa: E402
from workloads import CliOp  # noqa: E402

# Tail percentile per workload; min_ops() makes a run hold at least ten
# samples beyond it.
TAIL_PERCENTILE = {"moderate-grid": 95, "concentrated-cdf": 90, "point-queries": 99}
MIN_SAMPLES_BEYOND_TAIL = 10
# Latencies are kept in a uniform random sample (reservoir) of fixed size,
# allocated up front, so that peak RSS does not grow with the number of
# operations a faster program completes.
LATENCY_SAMPLE = 1 << 18
# Outputs of the first CHECK_PASSES passes are sampled for the mpmath checks.
CHECK_PASSES = 2
TABLE_CHECK_ROWS = 24  # evenly spaced rows per table, both edges included
# Table columns checked at every sampled row, and at the lower edge, the
# centre and the upper edge only (its reference is a costly quadrature).
TABLE_POINT_COLUMNS = {3: "vm_density", 4: "reference_normal_density", 5: "log_ratio_exact"}
TABLE_CDF_COLUMN = 8
QUERY_SAMPLE_STRIDE = 4  # every 4th point query is checked, plus all band queries
QUERY_CDF_CHECKS = 24  # point-query CDF values checked per run
# Operation times are scaled to a reference interpreter speed: each pass's
# times are multiplied by REFERENCE_CALIBRATION_S over the time of
# calibration_loop() measured just before the pass.  On a shared machine
# the interpreter's speed drifts by tens of percent within and between
# runs; the scaled times drift by a few percent.  Raw times are kept too.
REFERENCE_CALIBRATION_S = 4e-4
SLOPE_TARGET = -3.0
SLOPE_TOLERANCE = 0.3
LIB_TOL = 1e-12  # the library default; used for point-query quadrature


def min_ops(workload):
    p = TAIL_PERCENTILE[workload]
    return int(math.ceil(MIN_SAMPLES_BEYOND_TAIL * 100.0 / (100 - p))) + 1


def _library_calls(cb):
    """Point-query callables; each looks its functions up at call time."""

    def expansion(name):
        def call(mu, kappa, x):
            dt = cb.standardized_deviate(cb.VonMisesParams(mu, kappa), x).delta_tilde
            if name == "cdf_expansion":
                return cb.cdf_expansion(dt, kappa).value
            return getattr(cb, name)(dt, kappa, 2).value
        return call

    return {
        "vm_density": lambda mu, k, x: cb.vm_density(cb.VonMisesParams(mu, k), x),
        "log_ratio_exact": lambda mu, k, x: cb.log_ratio_exact(cb.VonMisesParams(mu, k), x),
        "log_ratio_expansion": expansion("log_ratio_expansion"),
        "ratio_expansion": expansion("ratio_expansion"),
        "cdf_expansion": expansion("cdf_expansion"),
        "reference_normal_density": lambda mu, k, x: cb.reference_normal_density(
            cb.VonMisesParams(mu, k), x
        ),
        "vm_cdf_quadrature": lambda mu, k, x: cb.vm_cdf_quadrature(
            cb.VonMisesParams(mu, k), x, LIB_TOL
        ),
        "wn_density": lambda mu, k, x: cb.wn_density(
            cb.WrappedNormalParams(mu, cb.matched_wn_scale(k)), x
        ),
    }


def calibration_loop():
    """Fixed pure-Python work, independent of circbridge: floating-point
    recurrences and math.sin/math.exp calls like the package's own loops.
    Its time tracks how fast this machine runs the interpreter right now."""
    s = 0.0
    t = 1.0
    for k in range(1, 2000):
        t *= 0.999 / (1.0 + 1e-9 * k)
        u = math.sin(0.001 * k)
        s += math.exp(-2.0 * u * u) + t
    return s


def _numbers(text):
    """Every numeric CSV field after the header; labels and blanks skipped."""
    out = []
    for line in text.splitlines()[1:]:
        for field in line.split(","):
            if field and field not in ("kappa", "slope"):
                out.append(float(field))
    return out


class Run:
    """Executes operations, times each one and checks its output."""

    def __init__(self, seed, sample_size):
        import circbridge
        import circbridge.cli

        self.cb = circbridge
        self.cli = circbridge.cli
        self.calls = _library_calls(circbridge)
        self.latency = array("d", bytes(8 * sample_size))
        self.reservoir_rng = random.Random(seed)
        self.scale = 1.0  # applied to every recorded operation time
        self.op_time_s = 0.0
        self.raw_op_time_s = 0.0
        self.n_ops = 0
        self.points = 0
        self.failed = 0
        self.failures = []
        self.output_bytes = 0
        self.digest = hashlib.sha256()
        self.samples = []  # (where, kind, mu, kappa, x, value) for the mpmath checks
        self.cdf_samples = 0

    def run_ops(self, ops, label, sample):
        """Run ops in order.  sample: None, "pass" (the seeded sample) or "all"."""
        for op_index, op in enumerate(ops):
            where = "%s op %d" % (label, op_index)
            if isinstance(op, CliOp):
                self._cli_op(op, where, sample is not None)
            else:
                in_band = op_index % workloads.BAND_PERIOD in workloads.BAND_SLOTS
                pick = sample == "all" or (
                    sample == "pass" and (in_band or op_index % QUERY_SAMPLE_STRIDE == 0)
                )
                self._lib_op(op, where, pick, capped=sample == "pass")

    def _record(self, raw_seconds):
        self.raw_op_time_s += raw_seconds
        seconds = raw_seconds * self.scale
        n = self.n_ops
        if n < len(self.latency):
            self.latency[n] = seconds
        else:
            j = self.reservoir_rng.randrange(n + 1)
            if j < len(self.latency):
                self.latency[j] = seconds
        self.n_ops = n + 1
        self.op_time_s += seconds

    def sorted_latency(self):
        return sorted(self.latency[: min(self.n_ops, len(self.latency))])

    def _fail(self, where, why):
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append("%s: %s" % (where, why))

    def _cli_op(self, op, where, sample):
        buf = io.StringIO()
        run = self.cli.run
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = run(op.argv)
            error = None
        except Exception as exc:  # an exception is a failed operation
            code, error = None, "%s: %s" % (type(exc).__name__, exc)
        self._record(time.perf_counter() - t0)
        self.points += op.points
        text = buf.getvalue()
        data = text.encode()
        self.output_bytes += len(data)
        self.digest.update(data)
        if error or code != 0:
            return self._fail(where, error or "exit code %r for %s" % (code, " ".join(op.argv)))
        try:
            values = _numbers(text)
        except ValueError as exc:
            return self._fail(where, "unparsable output: %s" % exc)
        if not values or not all(math.isfinite(v) for v in values):
            return self._fail(where, "non-finite or empty output")
        if op.kind == "scan":
            slope = float(text.rstrip("\n").rsplit("\n", 1)[1].rsplit(",", 1)[1])
            if abs(slope - SLOPE_TARGET) > SLOPE_TOLERANCE:
                return self._fail(where, "fitted slope %r not within %r of %r"
                                  % (slope, SLOPE_TOLERANCE, SLOPE_TARGET))
        if sample and op.kind == "table":
            self._sample_table(op, text, where)

    def _sample_table(self, op, text, where):
        rows = [line.split(",") for line in text.splitlines()[1:]]
        n = len(rows)
        picks = sorted({round(i * (n - 1) / (TABLE_CHECK_ROWS - 1)) for i in range(TABLE_CHECK_ROWS)})
        for i in picks:
            x = float(rows[i][0])
            for col, kind in TABLE_POINT_COLUMNS.items():
                self.samples.append((where, kind, op.mu, op.kappa, x, float(rows[i][col])))
        for i in (0, n // 2, n - 1):
            x = float(rows[i][0])
            self.samples.append(
                (where, "vm_cdf_quadrature", op.mu, op.kappa, x, float(rows[i][TABLE_CDF_COLUMN]))
            )

    def _lib_op(self, op, where, sample, capped):
        call = self.calls[op.kind]
        t0 = time.perf_counter()
        try:
            value = call(op.mu, op.kappa, op.x)
            error = None
        except Exception as exc:  # an exception is a failed operation
            value, error = None, "%s: %s" % (type(exc).__name__, exc)
        self._record(time.perf_counter() - t0)
        self.points += 1
        self.digest.update(repr(value).encode())
        if error:
            return self._fail(where, "%s(kappa=%r, x=%r): %s" % (op.kind, op.kappa, op.x, error))
        if not math.isfinite(value):
            return self._fail(where, "%s(kappa=%r, x=%r) = %r" % (op.kind, op.kappa, op.x, value))
        if not sample:
            return
        if capped and op.kind == "vm_cdf_quadrature":
            if self.cdf_samples >= QUERY_CDF_CHECKS:
                return
            self.cdf_samples += 1
        self.samples.append((where, op.kind, op.mu, op.kappa, op.x, value))


def _percentile(sorted_values, p):
    # linear interpolation between closest ranks
    pos = (len(sorted_values) - 1) * p / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


def _latency_summary(lat, tail_p):
    tail = _percentile(lat, tail_p)
    return {
        "n": len(lat),
        "p50": _percentile(lat, 50),
        "tail": tail,
        "tail_percentile": tail_p,
        "beyond_tail": sum(1 for v in lat if v > tail),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    group = ap.add_mutually_exclusive_group(required=True)
    group.add_argument("--seconds", type=float)
    group.add_argument("--passes", type=int)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", default=None, help="write the trace spans here (CSV)")
    args = ap.parse_args(argv)

    run = Run(args.seed, LATENCY_SAMPLE)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    calibration_s = []

    def run_pass(i):
        c0 = time.perf_counter()
        calibration_loop()
        calibration_s.append(time.perf_counter() - c0)
        run.scale = REFERENCE_CALIBRATION_S / calibration_s[-1]
        ops = workloads.build_pass(args.workload, args.seed, i)
        run.run_ops(ops, "pass %d" % i, "pass" if i < CHECK_PASSES else None)

    t0 = time.perf_counter()
    passes = 0
    if args.passes is not None:
        while passes < args.passes:
            run_pass(passes)
            passes += 1
    else:
        deadline = t0 + args.seconds
        need = min_ops(args.workload)
        while passes < CHECK_PASSES or time.perf_counter() < deadline or run.n_ops < need:
            run_pass(passes)
            passes += 1
    wall_s = time.perf_counter() - t0
    # read before anything else is allocated
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    lat = run.sorted_latency()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "backend": run.cb.backend_name(),
        "passes": passes,
        "ops": run.n_ops,
        "points": run.points,
        "points_per_pass": run.points // passes if passes else 0,
        "op_time_s": run.op_time_s,
        "raw_op_time_s": run.raw_op_time_s,
        "calibration_s": statistics.median(calibration_s),
        "reference_calibration_s": REFERENCE_CALIBRATION_S,
        "calibrations": len(calibration_s),
        "wall_s": wall_s,
        "latency_s": _latency_summary(lat, TAIL_PERCENTILE[args.workload]),
        "peak_rss_mb": peak_rss_mb,
        "failed": run.failed,
        "failures": run.failures,
        "output_bytes": run.output_bytes,
        "output_sha256": run.digest.hexdigest(),
        "samples": run.samples,
    }
    if tracer is not None:
        result["layers"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    if args.seconds is not None:
        probes = workloads.probe_ops(args.workload)
        probe = Run(args.seed, len(probes))
        probe.run_ops(probes, "probe", "all")
        result["probe_failures"] = probe.failures
        result["probe_samples"] = probe.samples
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
