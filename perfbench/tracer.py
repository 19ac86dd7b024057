"""Per-module spans recorded from outside the package.

`Tracer.install` wraps every public function of each layer (the package's
modules) and the `LaurentPoly` constructor and `eval` method. A function is
replaced wherever the package binds it, so a call from one module into
another lands in the callee's layer: `canonical_roots -> closed_form_eval ->
cheb_eval` splits into `roots`, `family` and `chebyshev` spans. Spans stay in
memory; `metrics` folds them into per-round figures when the run ends, and
`restore` puts every original function back.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
import time

LAYERS = ("core", "chebyshev", "normal_form", "family", "roots", "trig", "cli")

# Span fields: name, start, end, parent index (-1 at top level), items out.
NAME, START, END, PARENT, OUT = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.round_starts: list[int] = []
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _wrap(self, name: str, fn, count_out=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0]
            spans.append(span)
            stack.append(index)
            span[START] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if count_out is not None:
                span[OUT] = count_out(result)
            return result

        return traced

    def _patch(self, owner, attr: str, value):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self):
        pkg = importlib.import_module("tracelaurent")
        modules = {layer: importlib.import_module(f"tracelaurent.{layer}") for layer in LAYERS}
        core, roots = modules["core"], modules["roots"]

        def count_out(result):
            if isinstance(result, core.LaurentPoly):
                return result.coeffs.size
            if isinstance(result, roots.RootReport):
                return result.roots.size
            return 0

        wrappers = {}
        for layer, module in modules.items():
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn, count_out)
        for module in (pkg, *modules.values()):
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
        poly = core.LaurentPoly
        self._patch(poly, "eval", self._wrap("core.LaurentPoly.eval", poly.eval))
        self._patch(poly, "__init__", self._wrap("core.LaurentPoly.init", poly.__init__))

    def restore(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def mark_round(self):
        self.round_starts.append(len(self.spans))

    def per_round(self) -> list[dict]:
        """Per round: calls, self seconds and items handed out, by span name.

        Self time is a span's duration minus the durations of its direct
        children; calls run on one thread, so children never overlap.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out = []
        bounds = self.round_starts + [len(self.spans)]
        for a, b in zip(bounds, bounds[1:]):
            calls, self_s, handed = {}, {}, {}
            for i in range(a, b):
                span = self.spans[i]
                name = span[NAME]
                calls[name] = calls.get(name, 0) + 1
                self_s[name] = self_s.get(name, 0.0) + (span[END] - span[START]) - child_time[i]
                layer = name.split(".", 1)[0]
                parent = span[PARENT]
                # Items count once, when they leave their layer.
                if parent < 0 or not self.spans[parent][NAME].startswith(layer + "."):
                    handed[layer] = handed.get(layer, 0) + span[OUT]
            out.append({"calls": calls, "self_s": self_s, "out": handed})
        return out

    def metrics(self, names) -> dict:
        """Median over rounds of each requested metric.

        Names are `<layer>.<function>.calls`, `<layer>.<function>.self_ms`
        and `<layer>.<items>_out`; a layer the workload never enters reads 0.
        """
        rounds = self.per_round()
        values = {}
        for name in names:
            head, field = name.rsplit(".", 1)
            if field == "calls":
                series = [r["calls"].get(head, 0) for r in rounds]
            elif field == "self_ms":
                series = [1e3 * r["self_s"].get(head, 0.0) for r in rounds]
            else:
                series = [r["out"].get(head, 0) for r in rounds]
            values[name] = statistics.median(series) if series else 0
        return values
