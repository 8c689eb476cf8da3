#!/usr/bin/env python3
"""circbridge end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; circbridge is imported from
./src.  Workloads (see workloads.py and README.md): moderate-grid,
concentrated-cdf, point-queries.

--trace 0 runs the workload for S seconds in one fresh interpreter and
prints the end-to-end metrics; their times are scaled to a reference
interpreter speed by a calibration loop (worker.py), raw values beside.  --trace 1 instead runs a fixed number of
passes three times in fresh interpreters (untraced, traced, traced
again), checks that all three produce byte-identical outputs and that
the two traced runs count identical work, and prints the per-layer
metrics.  The last line of stdout is the JSON result; the full record
with provenance goes to perfbench/out/.  Exit code 0 on success, 2 when
the checkout or the program cannot be run (no result is printed then).
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

sys.path.insert(0, HERE)

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_RUNS = 15  # fresh interpreters timed for setup_s; the median is reported
FLOOR_RUNS = 5  # bare interpreter starts timed for the floor
CHILD_TIMEOUT_S = 170
# A sampled value more than FAIL_RATIO times outside its stated tolerance
# is wrong, not imprecise, and fails its operation.  Smaller excesses are
# what max_err_ratio reports, and its bound catches any worsening.
FAIL_RATIO = 100.0
# Per-layer metrics printed in the JSON result.  Times are reported only
# for functions and layers that every workload calls (point-queries never
# calls the cli layer), so that none reads zero on every run; the full
# set is printed and kept in the record.
ALWAYS_CALLED = (
    "oracle.vm_cdf_quadrature",
    "expansions.standardized_deviate",
    "expansions.log_ratio_exact",
    "expansions.reference_normal_density",
    "distributions.circular_variance_exact",
    "distributions.vm_density",
    "bessel.i0e",
    "bessel.log_i0e",
    "kernels.vm_scaled_mass",
)
LAYER_METRICS = (
    tuple(f + ".calls" for f in tracing.SPAN_NAMES)
    + tuple(f + suffix for f in ALWAYS_CALLED for suffix in (".s", ".self_s"))
    + tuple(layer + ".self_s" for layer in tracing.LAYERS if layer != "cli")
    + (
        "oracle.gk15_panels",
        "oracle.panels_per_cdf_point",
        "kernels.wn_terms",
        "distributions.variance_calls_per_kappa",
        "bessel.i0e_calls_per_kappa",
        "cli.output_bytes",
        "process.interp_floor_s",
        "trace.overhead_s",
    )
)
# The layer each grid workload was chosen to stress; the traced run reports
# whether it really has the largest self time.
PREDICTED_DOMINANT = {
    "moderate-grid": ("series kernels", ("kernels.i0_series_sum", "kernels.sigma2_series")),
    "concentrated-cdf": ("GK15 quadrature", ("kernels.vm_scaled_mass",)),
}
# Passes per traced run: fixed, so traced counts repeat exactly for a seed.
TRACE_PASSES = {"moderate-grid": 6, "concentrated-cdf": 16, "point-queries": 150}

# Times the import and parser build, then scales it like the worker scales
# operation times, by a calibration_loop() timed in the same child.
SETUP_CODE = """
import sys, time
t0 = time.perf_counter()
import circbridge.cli
circbridge.cli.build_parser()
setup = time.perf_counter() - t0
sys.path.insert(0, %r)
from worker import REFERENCE_CALIBRATION_S, calibration_loop
calibration_loop()
t0 = time.perf_counter()
calibration_loop()
print(repr(setup), repr(setup * REFERENCE_CALIBRATION_S / (time.perf_counter() - t0)))
""" % HERE


class BenchError(Exception):
    pass


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _child(args):
    """Run a Python child to completion; return its stdout."""
    try:
        proc = subprocess.run(
            [sys.executable] + args, cwd=ROOT, env=_env(), capture_output=True,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError("child %s timed out after %d s" % (args[:2], CHILD_TIMEOUT_S))
    if proc.returncode != 0:
        raise BenchError("child %s exited %d:\n%s" % (args[:2], proc.returncode, proc.stderr[-2000:]))
    return proc.stdout


def _worker(workload, seed, *extra):
    out = _child([os.path.join(HERE, "worker.py"), "--workload", workload, "--seed", str(seed)]
                 + list(extra))
    return json.loads(out.strip().splitlines()[-1])


def interp_floor_s():
    times = []
    for _ in range(FLOOR_RUNS):
        t0 = time.perf_counter()
        _child(["-c", "pass"])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def setup_times():
    """(raw, scaled) setup seconds of SETUP_RUNS fresh interpreters."""
    runs = [_child(["-c", SETUP_CODE]).split() for _ in range(SETUP_RUNS)]
    return [float(raw) for raw, _ in runs], [float(scaled) for _, scaled in runs]


def _git_commit():
    # read .git directly: the checkout may not be a repository, and git
    # itself would search the parent directories
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _source_sha256():
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "circbridge")
    for name in sorted(os.listdir(pkg)):
        if name.endswith((".py", ".pyx")):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def provenance(seed, backend, floor_s, calibration_s):
    return {
        "backend": backend,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "interp_floor_s": floor_s,
        "calibration_s": calibration_s,
    }


def check_samples(samples):
    """mpmath checks: (worst (ratio, where, kind, kappa, x), count, failing op ids)."""
    import reference

    ratios = reference.error_ratios(samples)
    worst = max(ratios) if ratios else (0.0, "-", "-", 0.0, 0.0)
    failing = {r[1] for r in ratios if not (r[0] <= FAIL_RATIO)}
    return worst, len(ratios), failing


def _m(value, unit):
    return {"value": value, "unit": unit}


def _worst_note(worst, n):
    return "worst |value - mpmath|/tol over %d values: %.4g, %s at kappa=%r x=%r (%s)" % (
        n, worst[0], worst[2], worst[3], worst[4], worst[1])


def end_to_end(args):
    floor = interp_floor_s()
    setups_raw, setups = setup_times()
    res = _worker(args.workload, args.seed, "--seconds", str(args.seconds))
    sample_worst, n_sample, failing = check_samples(res["samples"])
    probe_worst, n_probe, probe_failing = check_samples(res["probe_samples"])
    lat = res["latency_s"]
    failed = res["failed"] + len(failing)
    attempted = res["ops"]
    # operation and setup times come scaled to the reference interpreter
    # speed (see worker.py)
    metrics = {
        "points_per_s": _m(res["points"] / res["op_time_s"], "1/s"),
        "op_p50_ms": _m(lat["p50"] * 1e3, "ms"),
        "op_tail_ms": _m(lat["tail"] * 1e3, "ms"),
        "setup_s": _m(statistics.median(setups), "s"),
        "peak_rss_mb": _m(res["peak_rss_mb"], "MB"),
        "max_err_ratio": _m(probe_worst[0], "ratio"),
    }
    notes = {
        "points_per_s": "%d points (%d per pass x %d passes) in %.3f s of scaled operation time; "
        "raw %.6g 1/s" % (res["points"], res["points_per_pass"], res["passes"], res["op_time_s"],
                          res["points"] / res["raw_op_time_s"]),
        "op_p50_ms": "median of a uniform sample of n=%d of the %d operations" % (lat["n"], res["ops"]),
        "op_tail_ms": "p%g of n=%d sampled operations, %d beyond it"
        % (lat["tail_percentile"], lat["n"], lat["beyond_tail"]),
        "setup_s": "median of %d fresh interpreters (import circbridge.cli + build_parser); "
        "raw %.6g s; interpreter floor %.4f s, not subtracted"
        % (SETUP_RUNS, statistics.median(setups_raw), floor),
        "peak_rss_mb": "max RSS of the workload process",
        "max_err_ratio": "fixed probes: " + _worst_note(probe_worst, n_probe),
    }
    problems = ["probe %s" % f for f in res["probe_failures"] + sorted(probe_failing)]
    record = {
        "provenance": provenance(args.seed, res["backend"], floor, res["calibration_s"]),
        "workload": args.workload,
        "trace": 0,
        "metrics": metrics,
        "notes": notes,
        "seeded_sample": _worst_note(sample_worst, n_sample),
        "failed_frac": failed / attempted,
        "failures": res["failures"] + sorted(failing)[:20],
        "problems": problems,
        "setup_runs_s": setups,
        "setup_runs_raw_s": setups_raw,
    }
    return record, attempted, failed, metrics


def _is_time(name):
    return name.endswith((".s", "_s"))


def _counts(layers):
    return {k: v for k, v in layers.items() if not _is_time(k)}


def per_layer(args):
    passes = str(TRACE_PASSES[args.workload])
    floor = interp_floor_s()
    plain = _worker(args.workload, args.seed, "--passes", passes)
    os.makedirs(OUT, exist_ok=True)
    spans = os.path.join(OUT, "spans-%s-seed%d.csv" % (args.workload, args.seed))
    traced = _worker(args.workload, args.seed, "--passes", passes, "--trace", "--spans", spans)
    again = _worker(args.workload, args.seed, "--passes", passes, "--trace")
    worst, n_checked, failing = check_samples(plain["samples"])
    problems = []
    if len({r["output_sha256"] for r in (plain, traced, again)}) != 1:
        problems.append("traced outputs differ from the untraced run")
    counts = _counts(traced["layers"])
    counts_again = _counts(again["layers"])
    if counts != counts_again:
        diff = sorted(k for k in counts if counts[k] != counts_again.get(k))
        problems.append("traced counts differ between two runs: %s" % diff)
    failed = plain["failed"] + len(failing)
    attempted = plain["ops"]
    layers = traced["layers"]
    layers["cli.output_bytes"] = traced["output_bytes"]
    layers["process.interp_floor_s"] = floor
    layers["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
    units = {}
    for name in layers:
        if _is_time(name):
            units[name] = "s"
        elif name == "cli.output_bytes":
            units[name] = "bytes"
        elif name.endswith(("_per_kappa", "_per_cdf_point")):
            units[name] = "ratio"
        else:
            units[name] = "count"
    full = {name: _m(value, units[name]) for name, value in layers.items()}
    metrics = {name: full[name] for name in LAYER_METRICS}
    record = {
        "provenance": provenance(args.seed, traced["backend"], floor, plain["calibration_s"]),
        "workload": args.workload,
        "trace": 1,
        "passes": int(passes),
        "points": traced["points"],
        "untraced_wall_s": plain["wall_s"],
        "traced_wall_s": traced["wall_s"],
        "spans_file": os.path.relpath(spans, ROOT),
        "seeded_sample": _worst_note(worst, n_checked),
        "problems": problems,
        "failures": plain["failures"] + sorted(failing)[:20],
        "full": full,
    }
    return record, attempted, failed, metrics


def _print_layers(record):
    m = {k: v["value"] for k, v in record["full"].items()}
    total = record["traced_wall_s"]
    fns = sorted(tracing.SPAN_NAMES, key=lambda f: -m[f + ".self_s"])
    print("%-46s %9s %10s %10s %7s" % ("function", "calls", "incl_s", "self_s", "self%"))
    for f in fns:
        print("%-46s %9d %10.4f %10.4f %6.1f%%" % (
            f, m[f + ".calls"], m[f + ".s"], m[f + ".self_s"], 100.0 * m[f + ".self_s"] / total))
    for layer in tracing.LAYERS:
        v = m[layer + ".self_s"]
        print("%-46s %30.4f %6.1f%%" % ("layer " + layer, v, 100.0 * v / total))
    for k in sorted(m):
        if not k.endswith((".calls", ".s", ".self_s")):
            print("%-46s %s" % (k, m[k]))
    print("traced wall %.3f s, untraced %.3f s, %d passes, %d points"
          % (total, record["untraced_wall_s"], record["passes"], record["points"]))
    if record["workload"] in PREDICTED_DOMINANT:
        label, group = PREDICTED_DOMINANT[record["workload"]]
        own = sum(m[f + ".self_s"] for f in group)
        rival = max((f for f in fns if f not in group), key=lambda f: m[f + ".self_s"])
        verdict = "confirmed" if own > m[rival + ".self_s"] else "NOT confirmed"
        print("predicted largest self time: %s %.4f s vs next %s %.4f s: %s"
              % (label, own, rival, m[rival + ".self_s"], verdict))


def main(argv=None):
    ap = argparse.ArgumentParser(description="circbridge end-to-end benchmark")
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "circbridge", "__init__.py")):
        print("error: no circbridge sources under %s; run from a source checkout" % SRC,
              file=sys.stderr)
        return 2
    try:
        record, attempted, failed, metrics = (per_layer if args.trace else end_to_end)(args)
    except BenchError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "result-%s-seed%d-trace%d.json" % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print("provenance: %s" % json.dumps(record["provenance"]))
    if args.trace:
        _print_layers(record)
    else:
        for name, m in metrics.items():
            print("%-14s %14.6g %-5s %s" % (name, m["value"], m["unit"], record["notes"][name]))
    print("seeded sample: %s" % record["seeded_sample"])
    print("failed_frac    %d/%d operations" % (failed, attempted))
    for f in record["failures"]:
        print("FAILED: %s" % f)
    for p in record["problems"]:
        print("PROBLEM: %s" % p)
    print("full record: %s" % os.path.relpath(path, ROOT))
    print(json.dumps({
        "correct": failed == 0 and not record["problems"],
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
