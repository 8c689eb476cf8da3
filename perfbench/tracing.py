"""Spans and work counters recorded around circbridge's public functions.

`Tracer.install()` replaces each traced function by a wrapper in every
circbridge module that binds it, so calls through `from ... import`
names and through module attributes (`oracle.vm_cdf_quadrature`,
`backend.vm_scaled_mass`) are all seen.  A span is (name, start, end,
parent), kept in flat arrays and written out at the end; a span's self
time is its duration minus the durations of its direct children.  The
wrappers also count work at the same boundaries.
"""

import sys
import time
from array import array

# (layer, module holding the original, function).  "kernels" are the
# functions circbridge.backend exports, from whichever twin is active.
TRACED = (
    ("cli", "circbridge.cli", "run"),
    ("oracle", "circbridge.oracle", "residual_scan"),
    ("oracle", "circbridge.oracle", "vm_cdf_quadrature"),
    ("expansions", "circbridge.expansions", "standardized_deviate"),
    ("expansions", "circbridge.expansions", "log_ratio_exact"),
    ("expansions", "circbridge.expansions", "reference_normal_density"),
    ("distributions", "circbridge.distributions", "circular_variance_exact"),
    ("distributions", "circbridge.distributions", "vm_density"),
    ("distributions", "circbridge.distributions", "wn_density"),
    ("distributions", "circbridge.distributions", "matched_sup_gap"),
    ("bessel", "circbridge.bessel", "i0e"),
    ("bessel", "circbridge.bessel", "log_i0e"),
    ("kernels", "circbridge.backend", "i0_series_sum"),
    ("kernels", "circbridge.backend", "sigma2_series"),
    ("kernels", "circbridge.backend", "vm_scaled_mass"),
    ("kernels", "circbridge.backend", "wn_density_at"),
)
SPAN_NAMES = tuple("%s.%s" % (layer, fn) for layer, _mod, fn in TRACED)
LAYERS = tuple(sorted({layer for layer, _mod, _fn in TRACED}))
GK15_POINTS = 15


class Tracer:
    def __init__(self):
        self.name_ids = array("b")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._open = [-1]
        self.gk15_evaluations = 0
        self.wn_terms = 0
        self.kappas = {"circular_variance_exact": set(), "i0e": set()}

    def install(self):
        """Wrap every traced function in every loaded circbridge module."""
        modules = [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "circbridge"]
        for name_id, (_layer, module_name, fn_name) in enumerate(TRACED):
            original = getattr(sys.modules[module_name], fn_name)
            wrapper = self._wrap(name_id, fn_name, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)

    def _wrap(self, name_id, fn_name, fn):
        clock = time.perf_counter
        name_ids, parents, starts, ends, open_spans = (
            self.name_ids, self.parents, self.starts, self.ends, self._open,
        )
        count = self._counter(fn_name)

        def traced(*args, **kwargs):
            index = len(starts)
            name_ids.append(name_id)
            parents.append(open_spans[-1])
            ends.append(0.0)
            open_spans.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                open_spans.pop()
            if count is not None:
                count(args, result)
            return result

        return traced

    def _counter(self, fn_name):
        if fn_name == "vm_scaled_mass":
            def count(args, result):
                self.gk15_evaluations += result[2]
        elif fn_name == "wn_density_at":
            def count(args, result):
                self.wn_terms += 2 * args[2] + 1
        elif fn_name in self.kappas:
            seen = self.kappas[fn_name]

            def count(args, result):
                seen.add(args[0])
        else:
            count = None
        return count

    def summary(self):
        """Per-function calls, inclusive and self seconds, plus work counters."""
        n = len(self.starts)
        child = array("d", bytes(8 * n))
        for i in range(n):
            p = self.parents[i]
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        calls = [0] * len(TRACED)
        total = [0.0] * len(TRACED)
        own = [0.0] * len(TRACED)
        for i in range(n):
            k = self.name_ids[i]
            d = self.ends[i] - self.starts[i]
            calls[k] += 1
            total[k] += d
            own[k] += d - child[i]
        out = {}
        for k, name in enumerate(SPAN_NAMES):
            out[name + ".calls"] = calls[k]
            out[name + ".s"] = total[k]
            out[name + ".self_s"] = own[k]
        for layer in LAYERS:
            out[layer + ".self_s"] = sum(own[k] for k, t in enumerate(TRACED) if t[0] == layer)
        by_name = dict(zip(SPAN_NAMES, calls))
        panels = self.gk15_evaluations // GK15_POINTS
        cdf_points = by_name["oracle.vm_cdf_quadrature"]
        variance_kappas = len(self.kappas["circular_variance_exact"])
        i0e_kappas = len(self.kappas["i0e"])
        out["oracle.gk15_panels"] = panels
        out["oracle.panels_per_cdf_point"] = panels / cdf_points if cdf_points else 0.0
        out["kernels.wn_terms"] = self.wn_terms
        out["distributions.variance_calls_per_kappa"] = (
            by_name["distributions.circular_variance_exact"] / variance_kappas
            if variance_kappas else 0.0
        )
        out["bessel.i0e_calls_per_kappa"] = (
            by_name["bessel.i0e"] / i0e_kappas if i0e_kappas else 0.0
        )
        return out

    def write_spans(self, path):
        """Write every span as CSV: name,start_s,end_s,parent_index."""
        with open(path, "w") as fh:
            fh.write("name,start_s,end_s,parent\n")
            for i in range(len(self.starts)):
                fh.write("%s,%r,%r,%d\n" % (
                    SPAN_NAMES[self.name_ids[i]], self.starts[i], self.ends[i], self.parents[i],
                ))
