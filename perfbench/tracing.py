"""Spans around wavecorr's module-level functions, recorded from outside.

`Tracer.install()` replaces module attributes with wrappers that record
a span (name, start, end, parent, op id) per call while recording is on;
`restore()` puts the originals back. No package source is touched.
Names a module imported by value must be wrapped in that module too,
or its calls escape the trace: `fresnel_kernel` lives in propagation,
interferometer and ensemble; `chirp_nodes` in propagation and
interferometer. `_kernels.chirp_sum` and `ensemble._draw_values` are
looked up at call time, so one wrapper each is enough. An attribute
that is no longer there is listed in `Tracer.missing`, which the run
prints and the smoke tier requires to be empty.

Spans are kept in memory; `layer_metrics` reduces them at the end.
"""

import functools
import math
import os
import time

from wavecorr import (_kernels, cascade, cli, ensemble, interferometer,
                      propagation, scenario, transmittance)

CHIRP_NODE_CAP = 2 ** 21
COMPLEX_BYTES = 16


def _len(a):
    return int(getattr(a, "size", None) or len(a))


# name -> (modules or classes whose attribute is wrapped, attribute,
#          counter(args, kwargs, result) -> {count: value});
# metric names start with a letter, so _kernels reports as "kernels"
WRAPPED = {
    "kernels.chirp_sum": (
        (_kernels,), "chirp_sum",
        lambda a, k, r: {"pairs": _len(a[0]) * _len(a[1])}),
    "propagation.chirp_nodes": (
        (propagation, interferometer), "chirp_nodes",
        lambda a, k, r: {"nodes": _len(r[0])}),
    "propagation.fresnel_kernel": (
        (propagation, interferometer, ensemble), "fresnel_kernel",
        lambda a, k, r: {"elements": int(r.size)}),
    "propagation.propagate": (
        (propagation, cascade, ensemble), "propagate",
        lambda a, k, r: {"samples": _len(a[1].values)}),
    "transmittance.sample": (
        (transmittance.DoubleSlit, transmittance.PhaseHoles,
         transmittance.Uniform, transmittance.Raster), "sample",
        lambda a, k, r: {"points": _len(a[1])}),
    "transmittance.sample2d": (
        (transmittance.Raster,), "sample2d",
        lambda a, k, r: {"points": int(r.size)}),
    "cascade.effective_diffraction_length": (
        (cascade, interferometer), "effective_diffraction_length", None),
    "interferometer.correlation_analytic": (
        (interferometer, scenario), "correlation_analytic", None),
    "interferometer.correlation_analytic_2d": (
        (interferometer, scenario), "correlation_analytic_2d", None),
    "interferometer.correlation_brute_force": (
        (interferometer,), "correlation_brute_force", None),
    "interferometer.background_intensity": (
        (interferometer, scenario), "background_intensity", None),
    "interferometer.detector_ports": (
        (interferometer, scenario), "detector_ports", None),
    "ensemble.propagation_matrices": (
        (ensemble,), "propagation_matrices", None),
    "ensemble.draw": ((ensemble,), "_draw_values", None),
    "ensemble.run_ensemble": (
        (ensemble, scenario), "run_ensemble",
        lambda a, k, r: {"batches": math.ceil(
            a[0].n_realizations / ensemble._BATCH)}),
    "ensemble.run_coherent": ((ensemble, scenario), "run_coherent", None),
    "scenario.run_scenario": ((scenario, cli), "run_scenario", None),
    "scenario.export": (
        (scenario,), "export",
        lambda a, k, r: {"bytes_written": os.path.getsize(r)}),
    "scenario.config_from_dict": ((scenario,), "config_from_dict", None),
    "scenario.builtin_scenarios": (
        (scenario, cli), "builtin_scenarios", None),
    "cli.main": (
        (cli,), "main", lambda a, k, r: {"exit_nonzero": int(r != 0)}),
}

# per-layer metrics beyond calls / busy_s / self_s: (name, unit, better)
EXTRA = {
    "kernels.chirp_sum": [("pairs", "count", "lower"),
                           ("pairs_per_s", "1/s", "higher")],
    "propagation.chirp_nodes": [("nodes", "count", "lower"),
                                ("max_nodes_frac", "ratio", "lower")],
    "propagation.fresnel_kernel": [("elements", "count", "lower"),
                                   ("bytes", "B", "lower")],
    "propagation.propagate": [("samples", "count", "lower")],
    "transmittance.sample": [("points", "count", "lower")],
    "transmittance.sample2d": [("points", "count", "lower"),
                               ("bytes", "B", "lower")],
    "cascade.effective_diffraction_length": [("failures", "count", "lower")],
    "ensemble.draw": [("realizations", "count", "lower")],
    "ensemble.run_ensemble": [("batches", "count", "lower")],
    "scenario.export": [("bytes_written", "B", "lower")],
    "cli.main": [("exit_nonzero", "count", "lower")],
}

# what the traced run says about the trace itself
TRACE_METRICS = [
    ("trace.wall_s", "s", "lower"),        # median traced pass time
    ("trace.overhead_s", "s", "lower"),    # traced minus untraced, per pass
    ("trace.overhead_frac", "ratio", "lower"),
    ("trace.coverage", "ratio", "higher"),  # top-level span time / op time
]


def metric_specs():
    """Every per-layer metric as (name, unit, better), in a fixed order."""
    specs = []
    for fn in WRAPPED:
        specs += [(f"{fn}.calls", "count", "lower"),
                  (f"{fn}.busy_s", "s", "lower"),
                  (f"{fn}.self_s", "s", "lower")]
        specs += [(f"{fn}.{m}", unit, better)
                  for m, unit, better in EXTRA.get(fn, [])]
    return specs + TRACE_METRICS


class Span:
    __slots__ = ("name", "start", "end", "parent", "op", "error", "counts")

    def __init__(self, name, parent, op):
        self.name, self.parent, self.op = name, parent, op
        self.start = self.end = 0.0
        self.error, self.counts = None, None


class Tracer:
    """Records spans while `op` is set; `op` is the timed op's id."""

    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._saved = []
        # "owner.attr" of every wrapper that found nothing to wrap
        self.missing = []

    def _wrap(self, name, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            span = Span(name, tracer._stack[-1] if tracer._stack else None,
                        tracer.op)
            tracer._stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return wrapper

    def install(self):
        for name, (owners, attr, counter) in WRAPPED.items():
            for owner in owners:
                original = owner.__dict__.get(attr)
                if original is None:
                    where = f"{owner.__name__}.{attr}"
                    if where not in self.missing:
                        self.missing.append(where)
                    continue
                self._saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, counter))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def layer_metrics(spans):
    """Reduce spans to the per-layer metrics of `metric_specs()`.

    busy_s is inclusive; self_s subtracts the time covered by direct
    child spans. Every metric is present, zero where nothing ran.
    """
    out = {name: 0.0 for name, _, _ in metric_specs()
           if not name.startswith("trace.")}
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.end - span.start
    max_nodes = 0
    for i, span in enumerate(spans):
        dur = span.end - span.start
        out[f"{span.name}.calls"] += 1
        out[f"{span.name}.busy_s"] += dur
        out[f"{span.name}.self_s"] += dur - child[i]
        if span.error and span.name == "cascade.effective_diffraction_length":
            out[f"{span.name}.failures"] += 1
        for key, value in (span.counts or {}).items():
            out[f"{span.name}.{key}"] += value
        if span.name == "propagation.chirp_nodes" and span.counts:
            max_nodes = max(max_nodes, span.counts["nodes"])
    out["ensemble.draw.realizations"] = out["ensemble.draw.calls"]
    busy = out["kernels.chirp_sum.busy_s"]
    out["kernels.chirp_sum.pairs_per_s"] = (
        out["kernels.chirp_sum.pairs"] / busy if busy > 0 else 0.0)
    out["propagation.chirp_nodes.max_nodes_frac"] = max_nodes / CHIRP_NODE_CAP
    out["propagation.fresnel_kernel.bytes"] = (
        COMPLEX_BYTES * out["propagation.fresnel_kernel.elements"])
    out["transmittance.sample2d.bytes"] = (
        COMPLEX_BYTES * out["transmittance.sample2d.points"])
    return out
