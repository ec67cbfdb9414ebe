"""Spans around oscpot's public functions, recorded from outside the package.

`install` replaces each public function of the six modules, in every
module namespace that binds it, by a wrapper that records a span: name,
start, end, parent span and process id.  Field and series products are
wrapped on their classes.  Sweep workers are forked from the traced
process, so they inherit the wrappers and the open span stack; each
worker appends its spans to its own file whenever its work item ends.

`layer_metrics` turns the spans of one operation into the per-layer
metrics.  Times are from time.perf_counter, which on Linux reads the
system-wide monotonic clock, so spans of different processes compare.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import time
from pathlib import Path

LAYERS = ("cli", "regimes", "potential", "correctors", "pdesolve", "ratelab")
#: Private functions traced as well: one sweep point, the unit that
#: ratelab hands to its workers.
PRIVATE = {"ratelab": ("_run_point",)}
SOLVES = ("pdesolve.solve_epsilon", "pdesolve.solve_homogenized")
PRODUCTS = ("potential.TrigField.__mul__", "potential.ScalarSeries.__mul__")


class Tracer:
    def __init__(self, out_dir: Path):
        self.out_dir = Path(out_dir)
        self.pid = os.getpid()
        self.spans: list[dict] = []
        self.stack: list[str] = []
        self.count = 0
        self.worker_base: int | None = None

    def _enter_process(self) -> None:
        # First traced call in a forked worker: drop the parent's buffered
        # spans (the parent writes those) and keep its open stack, so the
        # worker's spans point at the span that forked it.
        self.pid = os.getpid()
        self.spans = []
        self.worker_base = len(self.stack)

    def wrap(self, name: str, fn, attrs=None, skip=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if skip is not None and skip(args):
                return fn(*args, **kwargs)
            if os.getpid() != self.pid:
                self._enter_process()
            sid = f"{self.pid}:{self.count}"
            self.count += 1
            parent = self.stack[-1] if self.stack else None
            self.stack.append(sid)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.stack.pop()
                span = {"id": sid, "parent": parent, "name": name,
                        "pid": self.pid, "start": start, "end": end}
                if attrs is not None:
                    span.update(attrs(args, kwargs))
                self.spans.append(span)
                if self.worker_base is not None \
                        and len(self.stack) == self.worker_base:
                    self.flush()
        return traced

    def flush(self) -> None:
        if not self.spans:
            return
        path = self.out_dir / f"spans-{self.pid}.jsonl"
        with open(path, "a") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
        self.spans = []


def _grid_attrs(args, kwargs) -> dict:
    from oscpot.pdesolve import GridSpec
    for value in list(args) + list(kwargs.values()):
        if isinstance(value, GridSpec):
            return {"cells": value.cell_updates(), "steps": value.total_steps}
    return {}


def _scalar_operand(args) -> bool:
    return isinstance(args[1], (int, float))


def install(tracer: Tracer) -> None:
    """Wrap every traced function in every oscpot namespace binding it."""
    import oscpot
    modules = {name: getattr(oscpot, name) for name in LAYERS}
    namespaces = [oscpot] + list(modules.values())
    for layer, module in modules.items():
        for attr, fn in list(vars(module).items()):
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            if attr.startswith("_") and attr not in PRIVATE.get(layer, ()):
                continue
            name = f"{layer}.{attr}"
            wrapped = tracer.wrap(
                name, fn, attrs=_grid_attrs if name in SOLVES else None)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapped)
    potential = modules["potential"]
    for cls in (potential.TrigField, potential.ScalarSeries):
        setattr(cls, "__mul__",
                tracer.wrap(f"potential.{cls.__name__}.__mul__", cls.__mul__,
                            skip=_scalar_operand))


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def load_spans(trace_dir: Path) -> list[dict]:
    spans = []
    for path in sorted(Path(trace_dir).glob("spans-*.jsonl")):
        with open(path) as fh:
            spans.extend(json.loads(line) for line in fh)
    return spans


def _layer(span: dict) -> str:
    return span["name"].split(".", 1)[0]


def _union_length(intervals) -> float:
    total, end = 0.0, -float("inf")
    for a, b in sorted(intervals):
        if b > end:
            total += b - max(a, end)
            end = b
    return total


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one operation (see README for definitions)."""
    by_id = {s["id"]: s for s in spans}
    children: dict[str, list[dict]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(s)

    def dur(s):
        return s["end"] - s["start"]

    def outermost(name):
        # Spans of `name` not nested in another span of the same name.
        out = []
        for s in spans:
            if s["name"] != name:
                continue
            p = by_id.get(s["parent"])
            while p is not None and p["name"] != name:
                p = by_id.get(p["parent"])
            if p is None:
                out.append(s)
        return out

    def total(name):
        return sum(dur(s) for s in outermost(name))

    def self_time(s, excluded):
        # Duration minus the union of the nearest descendants for which
        # `excluded` holds.
        cover, todo = [], list(children.get(s["id"], []))
        while todo:
            c = todo.pop()
            if excluded(c):
                cover.append((c["start"], c["end"]))
            else:
                todo.extend(children.get(c["id"], []))
        return dur(s) - _union_length(cover)

    def layer_self(name):
        layer = name.split(".", 1)[0]
        return sum(self_time(s, lambda c: _layer(c) != layer)
                   for s in outermost(name))

    m: dict[str, float] = {}
    for name in SOLVES:
        calls = [s for s in spans if s["name"] == name]
        t = sum(dur(s) for s in calls)
        steps = sum(s.get("steps", 0) for s in calls)
        cells = sum(s.get("cells", 0) for s in calls)
        short = name.split(".", 1)[1]
        m[f"pdesolve.{short}_s"] = t
        m[f"pdesolve.{short}_us_per_step"] = 1e6 * t / steps if steps else 0.0
        m[f"pdesolve.{short}_mcells_per_s"] = cells / t / 1e6 if t else 0.0
    m["pdesolve.richardson_check_self_s"] = sum(
        self_time(s, lambda c: c["name"] in SOLVES)
        for s in outermost("pdesolve.richardson_check"))
    solves = [s for s in spans if s["name"] in SOLVES]
    m["pdesolve.solves"] = len(solves)
    m["pdesolve.cell_updates"] = sum(s.get("cells", 0) for s in solves)
    m["ratelab.run_sweep_self_s"] = layer_self("ratelab.run_sweep")
    m["ratelab.write_outputs_s"] = total("ratelab.write_outputs")
    points = [s for s in spans if s["name"] == "ratelab._run_point"]
    sweep_wall = total("ratelab.run_sweep")
    workers = len({s["pid"] for s in points})
    m["ratelab.worker_busy_share"] = (
        sum(dur(s) for s in points) / (workers * sweep_wall)
        if points and sweep_wall else 0.0)
    m["ratelab.longest_point_s"] = max((dur(s) for s in points), default=0.0)
    for name in ("identity_report", "build_correctors", "effective_potential"):
        m[f"correctors.{name}_s"] = total(f"correctors.{name}")
    products = [s for s in spans if s["name"] in PRODUCTS]
    m["potential.products"] = len(products)
    m["potential.product_s"] = sum(total(name) for name in PRODUCTS)
    m["regimes.resolve_regime_s"] = total("regimes.resolve_regime")
    m["cli.self_s"] = layer_self("cli.main")
    return m


PER_LAYER_UNITS = {
    "pdesolve.solve_epsilon_s": "s",
    "pdesolve.solve_epsilon_us_per_step": "us",
    "pdesolve.solve_epsilon_mcells_per_s": "Mcells/s",
    "pdesolve.solve_homogenized_s": "s",
    "pdesolve.solve_homogenized_us_per_step": "us",
    "pdesolve.solve_homogenized_mcells_per_s": "Mcells/s",
    "pdesolve.richardson_check_self_s": "s",
    "pdesolve.solves": "count",
    "pdesolve.cell_updates": "count",
    "ratelab.run_sweep_self_s": "s",
    "ratelab.write_outputs_s": "s",
    "ratelab.worker_busy_share": "ratio",
    "ratelab.longest_point_s": "s",
    "correctors.identity_report_s": "s",
    "correctors.build_correctors_s": "s",
    "correctors.effective_potential_s": "s",
    "potential.products": "count",
    "potential.product_s": "s",
    "regimes.resolve_regime_s": "s",
    "cli.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}
