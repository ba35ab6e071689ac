"""Traced run of one CLI request, and the self-time arithmetic on its spans.

As a script, ``tracing.py SPAN_FILE REQUEST_ID ARGV...`` imports each
narayana module under an import span, wraps every public function of every
module (rebinding the name in each narayana module and module-level dict
that holds it) and ``QPoly.__mul__``/``__rmul__``, then calls
``narayana.cli.main(ARGV)``.  A call opens a span only when it enters a
different module than its caller's; calls within one module are counted and
timed per function but add no span, which keeps the span list small when a
statistic runs once per path.  Spans (name, start, end, parent index,
request id), per-function calls and seconds, and counters stay in memory and
are written to SPAN_FILE as JSON at exit.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from collections import defaultdict
from types import GeneratorType

LAYERS = ("qpoly", "dyck", "posets", "tableaux", "shelling", "cli")
STAT_FUNCTIONS = ("des", "maj", "hp", "ea", "lnfs", "maj_l", "da", "des_wrt", "maj_wrt")


def self_times(spans) -> dict[str, float]:
    """Seconds per layer: each span's duration minus the part of it that its
    child spans cover, summed by the layer named before the span name's
    first dot.  Parent is an index into spans, or -1 for a root."""
    children = defaultdict(list)
    for span in spans:
        if span[3] >= 0:
            children[span[3]].append(span)
    out: dict[str, float] = defaultdict(float)
    for index, (name, start, end, *_) in enumerate(spans):
        covered, reach = 0.0, start
        for _, c_start, c_end, *_ in sorted(children[index], key=lambda s: s[1]):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out[name.split(".", 1)[0]] += (end - start) - covered
    return dict(out)


class Recorder:
    """Spans, per-function totals and counters of one traced request."""

    def __init__(self, request_id: int):
        self.request_id = request_id
        self.spans: list[list] = []
        self.stack: list[tuple[str, int]] = [("", -1)]
        self.functions: dict[str, list] = {}
        self.counters: dict[str, int] = defaultdict(int)

    def wrap(self, layer: str, name: str, fn, observe=None):
        """fn with a span when called from another layer, its calls and
        outermost-call seconds under name, and observe(args, result) after."""
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        entry = self.functions.setdefault(name, [0, 0.0, 0])  # calls, seconds, depth

        def traced(*args, **kwargs):
            entry[0] += 1
            entry[2] += 1
            opened = stack[-1][0] != layer
            if opened:
                index = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1][1], self.request_id])
                stack.append((layer, index))
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                entry[2] -= 1
                if not entry[2]:
                    entry[1] += end - start
                if opened:
                    stack.pop()
                    spans[index][1:3] = start, end
            if type(result) is GeneratorType:
                result = self._iterate(layer, name, result)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _iterate(self, layer: str, name: str, generator):
        # each resumption runs inside the generator's layer
        step = self.wrap(layer, name + ".next", generator.__next__)
        counter = name + ".items"
        while True:
            try:
                item = step()
            except StopIteration:
                return
            self.counters[counter] += 1
            yield item

    def import_layers(self) -> dict:
        modules = {}
        for layer in LAYERS:
            load = self.wrap(layer, layer + ".import", importlib.import_module)
            modules[layer] = load("narayana." + layer)
        return modules

    def instrument(self, modules: dict) -> None:
        QPoly = modules["qpoly"].QPoly
        counters = self.counters

        def degree(args, result):
            if isinstance(result, QPoly) and result.degree > counters["qpoly.max_degree"]:
                counters["qpoly.max_degree"] = result.degree

        def products(args, result):
            a, b = args
            width = len(b.coeffs) if isinstance(b, QPoly) else int(b != 0)
            counters["qpoly.mul.coeff_products"] += len(a.coeffs) * width
            degree(args, result)

        def tableaux(args, result):
            counters["tableaux.ssyt"] += len(result)

        def facet_order(args, result):
            counters["shelling.facets"] += result.m
            counters["shelling.relations"] += len(result.relations)

        observers = {
            "tableaux.enumerate_ssyt": tableaux,
            "shelling.omega_n": facet_order,
        }
        replaced = {}
        for layer, module in modules.items():
            for attr, value in list(vars(module).items()):
                if (
                    attr.startswith("_")
                    or isinstance(value, type)
                    or not callable(value)
                    or getattr(value, "__module__", None) != module.__name__
                ):
                    continue
                name = f"{layer}.{attr}"
                observe = observers.get(name, degree if layer == "qpoly" else None)
                replaced[id(value)] = self.wrap(layer, name, value, observe)
        mul = self.wrap("qpoly", "qpoly.mul", QPoly.__mul__, products)
        QPoly.__mul__ = QPoly.__rmul__ = mul
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])
                elif isinstance(value, dict):
                    for k, v in value.items():
                        if id(v) in replaced:
                            value[k] = replaced[id(v)]

    def dump(self, path: str) -> None:
        self.counters["dyck.paths"] = self.counters.pop("dyck.enumerate_paths.items", 0)
        self.counters["dyck.stat_calls"] = sum(
            self.functions.get(f"dyck.{name}", (0,))[0] for name in STAT_FUNCTIONS
        )
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "spans": self.spans,
                    "functions": {k: v[:2] for k, v in self.functions.items()},
                    "counters": self.counters,
                },
                handle,
            )


def main(argv: list[str]) -> int:
    span_file, request_id, request = argv[0], int(argv[1]), argv[2:]
    recorder = Recorder(request_id)
    modules = recorder.import_layers()
    recorder.instrument(modules)
    try:
        return modules["cli"].main(request)
    finally:
        sys.stdout.flush()
        recorder.dump(span_file)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
