"""Spans and counters recorded from outside the library.

install() wraps every public function of each sumprodlab module in a span
and rebinds it in every namespace that holds it: `from .x import f` copies
the binding at import time, so `energy` alone is bound in energy, subgroups,
gauss, verify, cli and the package, and verify.SUITES holds the check
functions in tuples.  Four methods are patched on their classes: Field.mul
and ESet.__contains__ as plain counters (they run millions of times),
Field.generator and Field.dlog_tables as spans.

Spans are kept in memory as per-name aggregates.  A span's self time is its
duration minus the durations of the spans it directly encloses.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time

# The package's modules, which are the benchmark's layers; cli is only a
# front end over them and gets no spans of its own.
LAYERS = ("fields", "sets", "energy", "subgroups", "gauss", "families",
          "sweep", "oracle", "verify")

SPAN_METHODS = (("fields", "Field", "generator"), ("fields", "Field", "dlog_tables"))
COUNTED_METHODS = (("fields", "Field", "mul", "fields.Field.mul.calls"),
                   ("sets", "ESet", "__contains__", "sets.ESet.contains.calls"))

COUNTER_METRICS = tuple(m[3] for m in COUNTED_METHODS)

# spans whose distinct inputs are counted (distinct_frac = distinct / calls)
KEYED = ("energy.energy", "sets.product_set", "subgroups.subgroup_of_order")

# (metric, unit) in the order they are reported; see README.md for what
# each should move and on which workload.
PER_LAYER = [
    ("energy.energy.self_s", "s"),
    ("energy.energy.calls", "count"),
    ("energy.energy.pairs", "count"),
    ("energy.energy.distinct_frac", "ratio"),
    ("sets.product_set.self_s", "s"),
    ("sets.product_set.calls", "count"),
    ("sets.product_set.distinct_frac", "ratio"),
    ("fields.Field.mul.calls", "count"),
    ("fields.make_field.self_s", "s"),
    ("fields.Field.generator.self_s", "s"),
    ("fields.Field.dlog_tables.self_s", "s"),
    ("subgroups.subgroup_of_order.self_s", "s"),
    ("subgroups.subgroup_of_order.distinct_frac", "ratio"),
    ("subgroups.subfield_intersection.self_s", "s"),
    ("subgroups.difference_count.self_s", "s"),
    ("gauss.gauss_sum.self_s", "s"),
    ("gauss.subgroup_character_sum.self_s", "s"),
    ("gauss.gauss_bounds_report.self_s", "s"),
    ("gauss.gauss_sum_by_subgroup.self_s", "s"),
    ("energy.growth_chain_report.self_s", "s"),
    ("energy.cauchy_schwarz_chain.self_s", "s"),
    ("energy.triple_cover_totals.self_s", "s"),
    ("families.generate_family.self_s", "s"),
    ("sweep.run_sweep.self_s", "s"),
    ("oracle.energy_brute.self_s", "s"),
    ("oracle.product_set_brute.self_s", "s"),
    ("oracle.difference_count_brute.self_s", "s"),
    ("sets.ESet.contains.calls", "count"),
    ("verify.checks.self_s", "s"),
] + [(f"{layer}.self_s", "s") for layer in LAYERS] + [
    ("trace.overhead_frac", "ratio"),
]

def _freeze(value):
    """A hashable stand-in for one argument: sets by codes, fields by (p, m)."""
    if hasattr(value, "codes") and hasattr(value, "ctx"):
        return ("set", value.ctx.p, value.ctx.m, tuple(value.codes))
    if hasattr(value, "p") and hasattr(value, "m") and hasattr(value, "q"):
        return ("field", value.p, value.m)
    return value


class Tracer:
    def __init__(self):
        self.spans = {}      # name -> [calls, total_s, self_s]
        self.counters = {}   # name -> [count]
        self.seen = {}       # keyed span name -> set of frozen inputs
        self.pairs = [0]     # sum of |A||B| over energy calls
        self._stack = []     # child time of each open span

    def span(self, name, fn):
        stat = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        clock = time.perf_counter
        note = self._input_recorder(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if note is not None:
                note(args, kwargs)
            stack.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - stack.pop()
                if stack:
                    stack[-1] += dt

        return wrapper

    def counter(self, name, fn):
        cell = self.counters.setdefault(name, [0])

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _input_recorder(self, name, fn):
        if name not in KEYED:
            return None
        sig = inspect.signature(fn)
        seen = self.seen.setdefault(name, set())
        pairs = self.pairs if name == "energy.energy" else None

        def note(args, kwargs):
            bound = sig.bind(*args, **kwargs)
            bound.apply_defaults()
            vals = list(bound.arguments.values())
            seen.add(tuple(_freeze(v) for v in vals))
            if pairs is not None:
                a, b = vals[0], vals[1]
                pairs[0] += len(a) * len(b if b is not None else a)

        return note

    def snapshot(self) -> dict:
        """Aggregates so far, as plain JSON-ready data."""
        return {"spans": {k: list(v) for k, v in self.spans.items()},
                "counters": {k: v[0] for k, v in self.counters.items()},
                "distinct": {k: len(v) for k, v in self.seen.items()},
                "pairs": self.pairs[0]}


def install(tracer: Tracer) -> None:
    """Wrap the package's public functions everywhere they are bound."""
    package = sys.modules["sumprodlab"]
    modules = [package] + [m for name, m in sorted(sys.modules.items())
                           if name.startswith("sumprodlab.") and m is not None]
    wrappers = {}
    for layer in LAYERS:
        mod = sys.modules.get(f"sumprodlab.{layer}")
        if mod is None:
            continue
        for attr, obj in list(vars(mod).items()):
            if (attr.startswith("_") or inspect.isclass(obj) or not callable(obj)
                    or getattr(obj, "__module__", None) != mod.__name__):
                continue
            wrappers[id(obj)] = (obj, tracer.span(f"{layer}.{attr}", obj))
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("__"):
                continue
            new = _rebind(obj, wrappers, depth=3)
            if new is not obj:
                setattr(mod, attr, new)
    for layer, cls_name, meth in SPAN_METHODS:
        cls = getattr(sys.modules.get(f"sumprodlab.{layer}"), cls_name, None)
        if cls is not None and meth in vars(cls):
            setattr(cls, meth, tracer.span(f"{layer}.{cls_name}.{meth}", vars(cls)[meth]))
    for layer, cls_name, meth, metric in COUNTED_METHODS:
        cls = getattr(sys.modules.get(f"sumprodlab.{layer}"), cls_name, None)
        if cls is not None and meth in vars(cls):
            setattr(cls, meth, tracer.counter(metric, vars(cls)[meth]))


def _rebind(obj, wrappers, depth):
    """obj with every wrapped function inside it replaced by its wrapper.

    Dicts and lists are updated in place (other code may hold them); tuples
    are rebuilt.  Returns obj itself when nothing inside it changed.
    """
    hit = wrappers.get(id(obj))
    if hit is not None and hit[0] is obj:
        return hit[1]
    if depth == 0:
        return obj
    if isinstance(obj, dict):
        for k, v in list(obj.items()):
            new = _rebind(v, wrappers, depth - 1)
            if new is not v:
                obj[k] = new
        return obj
    if isinstance(obj, list):
        for i, v in enumerate(obj):
            new = _rebind(v, wrappers, depth - 1)
            if new is not v:
                obj[i] = new
        return obj
    if isinstance(obj, tuple) and not hasattr(obj, "_fields"):
        items = [_rebind(v, wrappers, depth - 1) for v in obj]
        if any(new is not old for new, old in zip(items, obj)):
            return tuple(items)
    return obj


# ---------------------------------------------------------------------------
# per-layer metrics from the snapshots of traced passes


def layer_metrics(snapshots: list[dict], overhead_frac: float) -> dict:
    """{metric: value} for every PER_LAYER metric.

    Times are medians over the traced passes; counts come from the first
    pass (run.py checks that every pass repeats them exactly).
    """
    first = snapshots[0]

    def self_s(pred):
        return statistics.median(
            sum(v[2] for k, v in snap["spans"].items() if pred(k)) for snap in snapshots)

    def calls(name):
        return first["spans"].get(name, [0])[0]

    out = {}
    for metric, _unit in PER_LAYER:
        if metric == "trace.overhead_frac":
            out[metric] = overhead_frac
        elif metric == "verify.checks.self_s":
            out[metric] = self_s(lambda k: k.startswith("verify.check_"))
        elif metric == "energy.energy.pairs":
            out[metric] = first["pairs"]
        elif metric in COUNTER_METRICS:
            out[metric] = first["counters"].get(metric, 0)
        elif metric.endswith(".distinct_frac"):
            name = metric[: -len(".distinct_frac")]
            n = calls(name)
            out[metric] = first["distinct"].get(name, 0) / n if n else 0.0
        elif metric.endswith(".calls"):
            out[metric] = calls(metric[: -len(".calls")])
        elif metric.count(".") == 1:  # <layer>.self_s: every span of the layer
            layer = metric.split(".")[0]
            out[metric] = self_s(lambda k, layer=layer: k.split(".")[0] == layer)
        else:
            name = metric[: -len(".self_s")]
            out[metric] = self_s(lambda k, name=name: k == name)
    return out


def exact_part(snapshot: dict) -> dict:
    """The parts of a snapshot that must repeat exactly across passes."""
    return {"calls": {k: v[0] for k, v in snapshot["spans"].items()},
            "counters": snapshot["counters"], "distinct": snapshot["distinct"],
            "pairs": snapshot["pairs"]}
