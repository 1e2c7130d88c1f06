"""Span and counter tracing of isoflag from outside the package.

The tracer wraps public functions and methods of ``isoflag.fields``,
``linalg``, ``gram``, ``model``, ``counting`` and ``cli`` by rebinding every
name a caller looks up: the module global in each isoflag module that holds
the function (so ``isoflag.model.solve_linear`` is wrapped as well as
``isoflag.linalg.solve_linear``), and the attribute of the class that owns a
method.  The program itself is not edited.

Three kinds of wrapper:

* a *span* records name, parent, start and end; nested span calls become
  child spans, and a span's self time is its duration minus its children's;
* a *timed leaf* is a function called up to millions of times.  It emits no
  span; its call count and inclusive time are added to the counters of the
  enclosing span, and its time stays inside that span's self time;
* a *counted leaf* only adds one to a counter of the enclosing span.

Spans are kept in memory and turned into per-layer metrics at the end.
"""

from __future__ import annotations

from collections import defaultdict
from time import perf_counter

import isoflag.cli
import isoflag.counting
import isoflag.fields
import isoflag.gram
import isoflag.linalg
import isoflag.model

MODULES = (isoflag.fields, isoflag.linalg, isoflag.gram, isoflag.model,
           isoflag.counting, isoflag.cli)

#: (module, qualified name, span name).  ``<span>_s`` is the self-time metric.
SPANS = (
    (isoflag.cli, "main", "cli.emit"),
    (isoflag.gram, "GramTable.__init__", "gram.table"),
    (isoflag.model, "build_model", "model.build"),
    (isoflag.model, "check_adapted", "model.check_adapted"),
    (isoflag.model, "round_trip_mismatches", "model.round_trip"),
    (isoflag.model, "flags_from", "model.flags"),
    (isoflag.model, "IsoFlag.verify", "model.flag_verify"),
    (isoflag.model, "position_check", "model.position"),
    (isoflag.model, "split_check", "model.split"),
    (isoflag.model, "build_T", "model.build_T"),
    (isoflag.model, "collection_pairings", "model.pairings"),
    (isoflag.counting, "enumerate_group", "counting.group"),
    (isoflag.counting, "enumerate_isotropic_flags", "counting.flags"),
    (isoflag.counting, "unipotents_of_type", "counting.filter"),
    (isoflag.counting, "count_pairs", "counting.pair_loop"),
)

#: (module, qualified name, counter prefix): ``<prefix>_calls`` and ``_s``.
TIMED_LEAVES = (
    (isoflag.linalg, "Matrix.rank", "linalg.rank"),
    (isoflag.linalg, "Matrix.nullspace", "linalg.nullspace"),
    (isoflag.linalg, "Matrix.inverse", "linalg.inverse"),
    (isoflag.linalg, "solve_linear", "linalg.solve"),
    (isoflag.linalg, "nilpotent_jordan_multiset", "linalg.jordan"),
    (isoflag.gram, "check_conjecture_210", "gram.scan"),
    (isoflag.counting, "mat_mul", "counting.mat_mul"),
    (isoflag.counting, "bruhat_pivots", "counting.bruhat"),
)

#: (module, qualified name, counter).
COUNTED_LEAVES = (
    (isoflag.fields, "FieldElement.inverse", "fields.inv_calls"),
    (isoflag.fields, "sqrt_extend", "fields.sqrt_extend_calls"),
    (isoflag.model, "IsometryModel.extend_index", "model.extend_index_calls"),
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "counts")

    def __init__(self, name, parent, start):
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.counts = defaultdict(float)


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        # counters of the innermost open span; leaves add to it directly
        self.counts = defaultdict(float)

    def enter(self, name):
        parent = self.stack[-1] if self.stack else None
        span = Span(name, parent, perf_counter())
        self.spans.append(span)
        self.stack.append(span)
        self.counts = span.counts
        return span

    def exit(self, span):
        span.end = perf_counter()
        self.stack.pop()
        self.counts = self.stack[-1].counts if self.stack \
            else defaultdict(float)

    # -- wrappers -------------------------------------------------------------

    def span_wrapper(self, fn, name, record=None):
        tracer = self

        def traced(*args, **kwargs):
            span = tracer.enter(name)
            try:
                result = fn(*args, **kwargs)
                if record is not None:
                    record(result, span.counts)
                return result
            finally:
                tracer.exit(span)
        return traced

    def timed_leaf(self, fn, prefix):
        tracer = self
        calls, secs = prefix + "_calls", prefix + "_s"

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                counts = tracer.counts
                counts[calls] += 1
                counts[secs] += perf_counter() - t0
        return timed

    def counted_leaf(self, fn, key):
        tracer = self

        def counted(*args, **kwargs):
            tracer.counts[key] += 1
            return fn(*args, **kwargs)
        return counted

    def by_field_kind(self, fn, key):
        """Counts a FieldElement operation by its left operand's field kind."""
        tracer = self
        gf, tower = key + ".gf", key + ".tower"

        def counted(a, b):
            tracer.counts[gf if a.field.is_finite else tower] += 1
            return fn(a, b)
        return counted

    def recorded_leaf(self, fn, record):
        """Passes each result to ``record`` with the enclosing counters."""
        tracer = self

        def recorded(*args, **kwargs):
            result = fn(*args, **kwargs)
            record(result, tracer.counts)
            return result
        return recorded

    def matrix_product(self, fn):
        """Times Matrix x Matrix products; scalar multiples pass through."""
        tracer = self
        matrix = isoflag.linalg.Matrix

        def product(a, b):
            if not isinstance(b, matrix):
                return fn(a, b)
            t0 = perf_counter()
            try:
                return fn(a, b)
            finally:
                counts = tracer.counts
                counts["linalg.matmul_calls"] += 1
                counts["linalg.matmul_s"] += perf_counter() - t0
        return product

    # -- installation ---------------------------------------------------------

    def install(self):
        fe = isoflag.fields.FieldElement
        for dunder, key in (("__mul__", "fields.mul_calls"),
                            ("__add__", "fields.add_calls")):
            _rebind(fe.__dict__[dunder], self.by_field_kind(
                fe.__dict__[dunder], key))
        getter = fe.__dict__["is_zero"].fget
        _rebind(fe.__dict__["is_zero"],
                property(self.counted_leaf(getter, "fields.is_zero_calls")))
        extend = isoflag.fields.TowerField.extend
        _rebind(extend, self.recorded_leaf(extend, _record_depth))

        matmul = isoflag.linalg.Matrix.__mul__
        _rebind(matmul, self.matrix_product(matmul))
        for module, qualname, prefix in TIMED_LEAVES:
            fn = _lookup(module, qualname)
            _rebind(fn, self.timed_leaf(fn, prefix))
        for module, qualname, key in COUNTED_LEAVES:
            fn = _lookup(module, qualname)
            _rebind(fn, self.counted_leaf(fn, key))
        for module, qualname, name in SPANS:
            fn = _lookup(module, qualname)
            _rebind(fn, self.span_wrapper(fn, name, RECORDERS.get(name)))


def _lookup(module, qualname):
    obj = module
    for part in qualname.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    return obj


def _rebind(original, replacement):
    """Point every module global and class attribute holding ``original``
    at ``replacement``; aliases such as ``__rmul__ = __mul__`` follow."""
    found = False
    for module in MODULES:
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)
                found = True
            elif isinstance(value, type) and \
                    value.__module__ == module.__name__:
                for attr, member in list(vars(value).items()):
                    if member is original:
                        setattr(value, attr, replacement)
                        found = True
    if not found:
        raise LookupError(f"no reference to {original!r} to rebind")


# -- values read off results --------------------------------------------------

def _record_depth(field, counts):
    key = "fields.tower_depth_max"
    counts[key] = max(counts[key], field.depth)


def _record_group(group, counts):
    counts["counting.group_order"] += group.order
    counts["counting.generator_count"] += len(group.generators)


def _record_pairs(report, counts):
    counts["counting.pairs_tested"] += \
        report["unipotent_count"] * report["flag_count"]
    counts["counting.hits"] += report["count"]


def _record_len(key):
    def record(result, counts):
        counts[key] += len(result)
    return record


RECORDERS = {
    "counting.group": _record_group,
    "counting.flags": _record_len("counting.flag_count"),
    "counting.filter": _record_len("counting.unipotent_count"),
    "counting.pair_loop": _record_pairs,
}


# -- per-layer metrics --------------------------------------------------------

#: Metrics of one traced pass, each 0 where its layer is idle.  Units and
#: the end-to-end metric each should move are in BENCHMARK.json and README.md.
LAYER_METRICS = (
    "fields.mul_calls.tower", "fields.mul_calls.gf",
    "fields.add_calls.tower", "fields.add_calls.gf",
    "fields.inv_calls", "fields.is_zero_calls", "fields.sqrt_extend_calls",
    "fields.tower_depth_max",
    *(f"linalg.{op}_{kind}"
      for op in ("rank", "nullspace", "inverse", "matmul", "solve", "jordan")
      for kind in ("calls", "s")),
    "gram.table_calls", "gram.table_s", "gram.scan_calls", "gram.scan_s",
    "model.build_s", "model.check_adapted_s", "model.round_trip_s",
    "model.flags_s", "model.flag_verify_s", "model.position_s",
    "model.split_s", "model.build_T_s", "model.pairings_s",
    "model.extend_index_calls",
    "counting.group_s", "counting.group_order", "counting.generator_count",
    "counting.closure_products", "counting.closure_yield",
    "counting.flags_s", "counting.flag_count",
    "counting.filter_s", "counting.unipotent_count",
    "counting.pair_loop_s", "counting.pairs_tested",
    "counting.bruhat_calls", "counting.bruhat_s",
    "counting.mat_mul_calls", "counting.mat_mul_s", "counting.hit_ratio",
    "cli.emit_s",
    "trace.unattributed_s",
)


def self_times(spans):
    """Self time of each span: its duration minus its children's."""
    child_time = defaultdict(float)
    for span in spans:
        if span.parent is not None:
            child_time[id(span.parent)] += span.end - span.start
    return [span.end - span.start - child_time[id(span)] for span in spans]


def layer_metrics(spans):
    """Per-layer metrics of one traced pass."""
    out = dict.fromkeys(LAYER_METRICS, 0.0)
    for span, own in zip(spans, self_times(spans)):
        if span.name == "bench.item":
            out["trace.unattributed_s"] += own
        else:
            out[span.name + "_s"] += own
        if span.name == "gram.table":
            out["gram.table_calls"] += 1
        if span.name == "counting.group":
            out["counting.closure_products"] += \
                span.counts["counting.mat_mul_calls"]
        for key, value in span.counts.items():
            if key.endswith("_max"):
                out[key] = max(out[key], value)
            else:
                out[key] = out.get(key, 0.0) + value
    hits = out.pop("counting.hits", 0.0)
    if out["counting.closure_products"]:
        out["counting.closure_yield"] = \
            out["counting.group_order"] / out["counting.closure_products"]
    if out["counting.pairs_tested"]:
        out["counting.hit_ratio"] = hits / out["counting.pairs_tested"]
    return {name: out[name] for name in LAYER_METRICS}


def span_records(spans):
    """JSON-ready span list with parent indices and self times."""
    index = {id(span): i for i, span in enumerate(spans)}
    return [{"id": i, "parent": None if s.parent is None
             else index[id(s.parent)], "name": s.name, "start": s.start,
             "end": s.end, "self_s": own, "counts": dict(s.counts)}
            for i, (s, own) in enumerate(zip(spans, self_times(spans)))]
