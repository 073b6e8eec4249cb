"""Span tracing of the package's layers, installed from outside `src/`.

`Tracer.install()` replaces each target function with a wrapper in every
`pqkanto` module namespace (and module-level dict) that holds it, so calls
made through `from .x import f` bindings are caught too.  Every call of a
wrapped function records a span [name, start, end, parent, points] in an
in-memory list, timed in process CPU seconds like the end-to-end metrics; `collect()` turns one round's spans into per-metric
totals, with self time = span duration minus the durations of its child
spans.  Integrand points are counted by wrapping the evaluator of every
handle the CLI resolves through `builtin`, and each point is attributed
to the innermost open span.  A target that no longer exists is reported
as absent.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import sys
import time
from collections import defaultdict
from typing import Dict, List, Tuple

# Per-layer metric -> (aggregate, "module:function" targets).  `self` sums
# self time, `calls` counts spans, `fpts` sums integrand points attributed
# to the spans, `count` counts calls through a light wrapper that records
# no span; `eval_self` and `eval_fpts` sum the self time and points of the
# evaluator spans, and `bytes` counts the text handed to the writer.
METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "operators.weights_s": ("self", ("operators:_weights_float", "operators:_weights_exact",
                                     "operators:basis_weights")),
    "operators.weights_calls": ("calls", ("operators:_weights_float",
                                          "operators:_weights_exact")),
    "operators.node_map_s": ("self", ("operators:_node_affine", "operators:node_hull_max",
                                      "operators:kantorovich_node")),
    "operators.contract_s": ("self", ("operators:apply_operator",
                                      "operators:operator_profile")),
    "operators.inner_poly_s": ("self", ("operators:_poly_integrals",)),
    "operators.inner_pl_s": ("self", ("operators:_pl_integrals_strict",
                                      "operators:_pl_integrals_classical")),
    "operators.inner_series_s": ("self", ("operators:_series_integrals",)),
    "operators.inner_series_fpts": ("fpts", ("operators:_series_integrals",)),
    "operators.inner_gl_s": ("self", ("operators:_gl_integrals",)),
    "bounds.second_modulus_s": ("self", ("bounds:second_modulus",)),
    "bounds.second_modulus_calls": ("calls", ("bounds:second_modulus",)),
    "bounds.second_modulus_fpts": ("fpts", ("bounds:second_modulus",)),
    "bounds.modulus_s": ("self", ("bounds:modulus",)),
    "bounds.modulus_fpts": ("fpts", ("bounds:modulus",)),
    "bounds.report_s": ("self", ("bounds:bound_report",)),
    "moments.closed_s": ("self", ("moments:moment_closed", "moments:unit_moment_closed",
                                  "moments:peetre_bound_args", "moments:_compound_powers")),
    "moments.brute_s": ("self", ("moments:_brute_moments_exact",
                                 "moments:_brute_moments_float",
                                 "moments:second_central_moment",
                                 "moments:first_central_moment_brute")),
    "pq_calculus.binomial_s": ("self", ("pq_calculus:pq_binomial",
                                        "pq_calculus:pq_factorial")),
    "pq_calculus.power_s": ("self", ("pq_calculus:pq_power",)),
    "pq_calculus.integer_calls": ("count", ("pq_calculus:pq_integer",)),
    "convergence.sweep_s": ("self", ("convergence:korovkin_sweep",
                                     "convergence:vanishing_sweep",
                                     "convergence:weighted_sup_error",
                                     "convergence:hypothesis_check")),
    "functions.eval_s": ("eval_self", ("functions:builtin",)),
    "functions.fpts": ("eval_fpts", ("functions:builtin",)),
    "manifest.write_s": ("self", ("manifest:write_text", "manifest:write_json",
                                  "manifest:write_csv", "manifest:dumps_json")),
    "manifest.bytes": ("bytes", ("manifest:write_text",)),
    "cli.self_s": ("self", ("cli:main", "cli:run_eval", "cli:run_verify",
                            "cli:run_bounds", "cli:run_converge", "cli:run_replay")),
}

UNITS = {"_s": "s", "_calls": "count", "_fpts": "count", ".fpts": "count",
         ".bytes": "bytes"}

EVAL_SPAN = "functions:evaluator"


def unit_of(metric: str) -> str:
    for suffix, unit in UNITS.items():
        if metric.endswith(suffix):
            return unit
    raise KeyError(metric)


class Tracer:
    """Wraps the targets of METRICS while installed; one instance per run."""

    def __init__(self, package: str = "pqkanto"):
        self.package = package
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.bytes_written = 0
        self.absent: List[str] = []
        self._swaps: List[Tuple[object, object]] = []  # (original, wrapper)
        self._targets = self._resolve()

    def _resolve(self) -> Dict[str, object]:
        found = {}
        for _aggregate, targets in METRICS.values():
            for target in targets:
                if target in found or target in self.absent:
                    continue
                module, _, name = target.partition(":")
                try:
                    fn = getattr(importlib.import_module(f"{self.package}.{module}"), name)
                except (ImportError, AttributeError):
                    self.absent.append(target)
                    continue
                found[target] = fn
        return found

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.process_time

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()

        return wrapper

    def _count_wrapper(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _writer_wrapper(self, name: str, fn):
        inner = self._span_wrapper(name, fn)

        @functools.wraps(fn)
        def wrapper(path, text, *args, **kwargs):
            self.bytes_written += len(text.encode("utf-8"))
            return inner(path, text, *args, **kwargs)

        return wrapper

    def _evaluator_wrapper(self, evaluator):
        spans, stack = self.spans, self.stack
        timed = self._span_wrapper(EVAL_SPAN, evaluator)
        size_of = sys.modules["numpy"].size

        def wrapper(x):
            points = int(size_of(x))
            if stack:
                spans[stack[-1]][4] += points
            own = len(spans)
            out = timed(x)
            spans[own][4] += points
            return out

        return wrapper

    def _builtin_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(name):
            handle = fn(name)
            return dataclasses.replace(handle,
                                       evaluator=self._evaluator_wrapper(handle.evaluator))

        return wrapper

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        aggregates = {t: agg for agg, targets in METRICS.values() for t in targets}
        for target, fn in self._targets.items():
            if target == "functions:builtin":
                wrapper = self._builtin_wrapper(fn)
            elif target == "manifest:write_text":
                wrapper = self._writer_wrapper(target, fn)
            elif aggregates[target] == "count":
                wrapper = self._count_wrapper(target, fn)
            else:
                wrapper = self._span_wrapper(target, fn)
            self._swaps.append((fn, wrapper))
        self._rebind({id(a): b for a, b in self._swaps})

    def uninstall(self) -> None:
        self._rebind({id(b): a for a, b in self._swaps})
        self._swaps = []

    def _rebind(self, mapping: Dict[int, object]) -> None:
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == self.package or mod_name.startswith(self.package + ".")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in mapping:
                    setattr(module, attr, mapping[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in mapping:
                            value[key] = mapping[id(item)]

    # -- aggregation ------------------------------------------------------

    def collect(self) -> Dict[str, object]:
        """Per-metric totals of the spans recorded since the last collect,
        plus self time per layer; resets the span list."""
        spans = self.spans
        child = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        by_name: Dict[str, List[float]] = defaultdict(lambda: [0.0, 0, 0])
        for i, rec in enumerate(spans):
            agg = by_name[rec[0]]
            agg[0] += (rec[2] - rec[1]) - child[i]
            agg[1] += 1
            agg[2] += rec[4]
        metrics = {}
        for metric, (aggregate, targets) in METRICS.items():
            if aggregate == "eval_self":
                value = by_name[EVAL_SPAN][0]
            elif aggregate == "eval_fpts":
                value = by_name[EVAL_SPAN][2]
            elif aggregate == "bytes":
                value = self.bytes_written
            elif aggregate == "count":
                value = sum(self.counts[t] for t in targets)
            else:
                column = {"self": 0, "calls": 1, "fpts": 2}[aggregate]
                value = sum(by_name[t][column] for t in targets if t in by_name)
            metrics[metric] = value
        layers = defaultdict(float)
        for name, agg in by_name.items():
            layers[name.partition(":")[0]] += agg[0]
        inclusive = defaultdict(float)   # no target calls itself, so no double count
        for rec in spans:
            inclusive[rec[0]] += rec[2] - rec[1]
        out = {"metrics": metrics, "layer_self_s": dict(layers),
               "inclusive_s": dict(inclusive)}
        spans.clear()
        self.counts.clear()
        self.bytes_written = 0
        return out

    def absent_metrics(self) -> List[str]:
        """Metrics none of whose targets exist in the package any more."""
        return [m for m, (_agg, targets) in METRICS.items()
                if all(t in self.absent for t in targets)]
