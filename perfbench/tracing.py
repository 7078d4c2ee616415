"""Spans around the calls into each anyon1d module's public functions.

The tracer replaces each traced function in every anyon1d module that
binds it (anyon and oscillator import kummer_series, log_kummer_polynomial
and hermite by name), records a span per call and restores the originals
afterwards.  Nothing under src/ changes.

A span's self time is its duration minus the durations of its direct
children.  Per-point scalar calls are far too many to keep one record
each, so they are aggregated into one (calls, total, self) entry per
recorded ancestor span and function name.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import warnings
from collections import Counter

import numpy as np

MODULES = ("cli", "verification", "anyon", "oscillator", "duality", "specfun", "oracle")

# (module, function, aggregated): aggregated functions are per-point
# scalar calls; wavefunction calls are aggregated only when x is a scalar.
TRACED = (
    ("cli", "main", False),
    ("verification", "run_suites", False),
    ("anyon", "wavefunction", None),
    ("anyon", "extended_wavefunction", True),
    ("anyon", "potential", True),
    ("oscillator", "wavefunction", None),
    ("duality", "map_oscillator_to_anyon", False),
    ("duality", "reduction_chain_residual", False),
    ("specfun", "kummer_series", True),
    ("specfun", "log_kummer_polynomial", True),
    ("specfun", "hermite", True),
    ("specfun", "laguerre", True),
    ("oracle", "quadrature", False),
    ("oracle", "ode_residual", False),
    ("oracle", "scan_level_brackets", False),
    ("oracle", "shoot_anyon_energy", False),
    ("oracle", "fd_oscillator_spectrum", False),
)

# Work counters recorded beside the spans: metric suffix per function.
COUNTERS = {
    "anyon.wavefunction": ("points",),
    "oscillator.wavefunction": ("points", "nonfinite_points"),
    "oracle.quadrature": ("integrand_evals",),
    "oracle.ode_residual": ("samples",),
}


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for module, func, _ in TRACED:
        name = f"{module}.{func}"
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
        for suffix in COUNTERS.get(name, ()):
            units[f"{name}.{suffix}"] = "count"
    for module in MODULES:
        units[f"{module}.runtime_warnings"] = "count"
    units["trace.pass_s"] = "s"
    units["trace.self_sum_s"] = "s"
    units["trace.overhead_s"] = "s"
    return units


class Tracer:
    """Span recorder; install() patches the package, remove() restores it."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []        # [id, name, start, end, parent id, op id, self_s]
        self.aggregates = {}   # (ancestor id, name) -> [calls, total_s, self_s]
        self.counters = Counter()
        self.warnings = Counter()
        self.op = None         # operation id stamped on new spans
        self._stack = []       # frames: [name, child_s, id of nearest recorded span]
        self._next_id = 0
        self._patched = []
        self._warning_ctx = None

    # -- span arithmetic -------------------------------------------------

    def call(self, name: str, fn, aggregated: bool, args, kwargs):
        stack = self._stack
        if stack and stack[-1][0] == name:
            # A function calling itself (quadrature splitting an infinite
            # range) stays inside its caller's span.
            return fn(*args, **kwargs)
        ancestor = stack[-1][2] if stack else None
        if aggregated:
            span_id = ancestor
        else:
            span_id = self._next_id
            self._next_id += 1
        frame = [name, 0.0, span_id]
        stack.append(frame)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            duration = end - start
            self_s = duration - frame[1]
            if stack:
                stack[-1][1] += duration
            if aggregated:
                entry = self.aggregates.setdefault((ancestor, name), [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += self_s
            else:
                self.spans.append([span_id, name, start, end, ancestor, self.op, self_s])

    def wrap(self, name: str, fn, aggregated):
        call = self.call
        count = self.counters

        if name == "oracle.quadrature":
            @functools.wraps(fn)
            def wrapper(f, *args, **kwargs):
                if self._stack and self._stack[-1][0] == name:
                    return fn(f, *args, **kwargs)   # already counted outside

                def counted(x):
                    count["oracle.quadrature.integrand_evals"] += 1
                    return f(x)
                return call(name, fn, False, (counted,) + args, kwargs)
        elif name == "oracle.ode_residual":
            @functools.wraps(fn)
            def wrapper(samples, *args, **kwargs):
                count["oracle.ode_residual.samples"] += len(samples)
                return call(name, fn, False, (samples,) + args, kwargs)
        elif aggregated is None:        # the two wavefunctions
            nonfinite = name == "oscillator.wavefunction"

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                x = (list(args) + list(kwargs.values()))[-1]   # x or u comes last
                scalar = not isinstance(x, np.ndarray)
                result = call(name, fn, scalar, args, kwargs)
                count[f"{name}.points"] += 1 if scalar else x.size
                if nonfinite:
                    count[f"{name}.nonfinite_points"] += int(np.size(result)
                                                             - np.isfinite(result).sum())
                return result
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return call(name, fn, aggregated, args, kwargs)
        return wrapper

    # -- installing ------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"anyon1d.{m}") for m in MODULES}
        for module, func, aggregated in TRACED:
            original = getattr(modules[module], func)
            wrapper = self.wrap(f"{module}.{func}", original, aggregated)
            for mod in modules.values():
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))
        self._warning_ctx = warnings.catch_warnings()
        self._warning_ctx.__enter__()
        warnings.simplefilter("always")
        warnings.showwarning = self._on_warning

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()
        if self._warning_ctx is not None:
            self._warning_ctx.__exit__(None, None, None)
            self._warning_ctx = None

    def _on_warning(self, message, category, *args, **kwargs) -> None:
        if issubclass(category, RuntimeWarning):
            module = self._stack[-1][0].split(".")[0] if self._stack else "bench"
            self.warnings[module] += 1

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """calls and self_s per traced function, counters and warnings."""
        out = {}
        for module, func, _ in TRACED:
            out[f"{module}.{func}.calls"] = 0
            out[f"{module}.{func}.self_s"] = 0.0
        for span in self.spans:
            out[f"{span[1]}.calls"] += 1
            out[f"{span[1]}.self_s"] += span[6]
        for (_, name), (calls, _, self_s) in self.aggregates.items():
            out[f"{name}.calls"] += calls
            out[f"{name}.self_s"] += self_s
        for name, suffixes in COUNTERS.items():
            for suffix in suffixes:
                out[f"{name}.{suffix}"] = self.counters[f"{name}.{suffix}"]
        for module in MODULES:
            out[f"{module}.runtime_warnings"] = self.warnings[module]
        out["trace.self_sum_s"] = sum(v for k, v in out.items() if k.endswith(".self_s"))
        return out

    def dump(self, path) -> None:
        """Write the spans and aggregates kept in memory as JSON."""
        payload = {
            "span_fields": ["id", "name", "start", "end", "parent", "op", "self_s"],
            "spans": self.spans,
            "aggregate_fields": ["ancestor", "name", "calls", "total_s", "self_s"],
            "aggregates": [[a, n, *v] for (a, n), v in self.aggregates.items()],
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload) + "\n")
