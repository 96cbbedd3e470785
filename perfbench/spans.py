"""Spans for the traced run: recording, self times, and per-layer metrics.

The benchmark does not modify the program. Instead, ``install`` replaces the
public functions at each layer boundary (``cli``, ``constructions``,
``graph``, ``weyl``, ``linalg``) with wrappers that record a span per call:
name, start, end, the id of the enclosing span, and the id of the workload
run. Because the program imports functions by name (``from .graph import
graph_dim``), every module attribute that holds the original function is
replaced, not only the defining one.

Spans stay in memory and are written out by the caller when the run ends.
A function that a later version of the program no longer has is skipped, and
its metrics read 0.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict

def _graph_dim_name(args, kwargs) -> str:
    method = args[1] if len(args) > 1 else kwargs.get("method", "both")
    return f"graph.graph_dim.{method}"


def _generators_in(args, kwargs, result) -> dict:
    return {"generators": args[0].n_generators}


def _generators_out(args, kwargs, result) -> dict:
    return {"generators": result.n_generators}


def _compressions(args, kwargs, result) -> dict:
    return {"compressions": len(result)}


def gram_cost(rows: int, cols: int) -> dict:
    """Computed cost of one Gram rank of ``rows`` matrices with ``cols``
    entries each: the Gram matrix is taken on the smaller side (order k,
    inner length m), then its eigenvalues are found.

    flops: 8 k^2 m for the complex product plus 16 k^3 / 3 for the
    Hermitian tridiagonal reduction. bytes: the family is copied into one
    row matrix (read and written once) and the k x k Gram matrix is
    written, at 16 bytes per complex entry. Both ignore cache misses.
    """
    k, m = min(rows, cols), max(rows, cols)
    return {
        "order": k,
        "flops": 8 * k * k * m + 16 * k**3 // 3,
        "bytes": 16 * (2 * rows * cols + k * k),
    }


def _gram_shape(args, kwargs, result) -> dict:
    ops = args[0]
    if len(ops) == 0:
        return gram_cost(0, 0)
    shape = ops[0].shape
    return gram_cost(len(ops), shape[0] * shape[1])


# One wrapped function: (module, function name, span name, attribute hook).
# A span name of None is taken from the call: graph_dim(g, method) becomes
# "graph.graph_dim.<method>". The hook adds counts to the span.
WRAPPED = [
    ("cli", "main", "cli.main", None),
    ("cli", "run_verification", "cli.run_verification", None),
    ("constructions", "build_section2", "constructions.build", None),
    ("constructions", "build_section3", "constructions.build", None),
    ("constructions", "build_section4", "constructions.build", None),
    ("constructions", "build_remark2", "constructions.build", None),
    ("graph", "graph_from_labels", "graph.graph_from_labels", _generators_out),
    ("graph", "graph_dim", None, _generators_in),
    ("graph", "compress", "graph.compress", _compressions),
    ("graph", "is_anticlique", "graph.is_anticlique", None),
    ("graph", "subsample_labels", "graph.subsample_labels", None),
    ("weyl", "weyl_dense_stack", "weyl.weyl_dense_stack", None),
    ("weyl", "pair_dense", "weyl.pair_dense", None),
    ("linalg", "gram_rank", "linalg.gram_rank", _gram_shape),
]


class Tracer:
    """In-memory span recorder. Spans are dicts with keys id, parent, name,
    start, end, run and any attributes the wrapper hook adds."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._next_id = 0

    def wrap(self, fn, name, attrs=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
            span = {
                "id": span_id,
                "parent": parent,
                "name": name if isinstance(name, str) else name(args, kwargs),
                "start": start,
                "end": end,
                "run": tracer.run_id,
            }
            if attrs is not None:
                span.update(attrs(args, kwargs, result))
            tracer.spans.append(span)
            return result

        return wrapper


def install(tracer: Tracer, package) -> list[str]:
    """Wrap every function in WRAPPED that ``package`` (the imported opgraph
    package) still has. Returns the wrapped names as "module.function"."""
    modules = [package] + [getattr(package, m) for m in ("cli", "constructions", "graph", "weyl", "linalg")]
    wrapped = []
    for module_name, fn_name, span_name, attrs in WRAPPED:
        original = getattr(getattr(package, module_name), fn_name, None)
        if original is None:
            continue
        wrapper = tracer.wrap(original, span_name or _graph_dim_name, attrs)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapper)
        wrapped.append(f"{module_name}.{fn_name}")
    return wrapped


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Total length of the union of intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: list[dict]) -> dict[tuple[str, int], float]:
    """Self time of each span, keyed by (run, id): its duration minus the
    part of its interval that its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[(s["run"], s["parent"])].append(s)
    out = {}
    for s in spans:
        key = (s["run"], s["id"])
        clipped = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in children[key]
            if c["end"] > s["start"] and c["start"] < s["end"]
        ]
        out[key] = (s["end"] - s["start"]) - _covered(clipped)
    return out


# Per-layer metrics: name -> (unit, how it is derived from the spans).
# "self": summed self time of spans with these names; "total": summed
# duration; "calls": span count; "sum:<attr>" / "max:<attr>": attribute
# aggregate.
LAYER_METRICS = {
    "cli.main.self_s": ("s", "self", ("cli.main",)),
    "cli.run_verification.self_s": ("s", "self", ("cli.run_verification",)),
    "cli.points": ("count", "calls", ("cli.run_verification",)),
    "constructions.build.self_s": ("s", "self", ("constructions.build",)),
    "graph.graph_from_labels.s": ("s", "total", ("graph.graph_from_labels",)),
    "graph.generators": ("count", "sum:generators", ("graph.graph_from_labels",)),
    "graph.label_oracle.s": ("s", "total", ("graph.graph_dim.labels",)),
    "graph.gram_oracle.self_s": ("s", "self", ("graph.graph_dim.gram", "graph.graph_dim.both")),
    "graph.compress.self_s": ("s", "self", ("graph.compress",)),
    "graph.compressions": ("count", "sum:compressions", ("graph.compress",)),
    "graph.is_anticlique.self_s": ("s", "self", ("graph.is_anticlique",)),
    "graph.subsample_labels.s": ("s", "total", ("graph.subsample_labels",)),
    "weyl.weyl_dense_stack.s": ("s", "total", ("weyl.weyl_dense_stack",)),
    "weyl.weyl_dense_stack.calls": ("count", "calls", ("weyl.weyl_dense_stack",)),
    "weyl.pair_dense.s": ("s", "total", ("weyl.pair_dense",)),
    "weyl.pair_dense.calls": ("count", "calls", ("weyl.pair_dense",)),
    "linalg.gram_rank.s": ("s", "total", ("linalg.gram_rank",)),
    "linalg.gram_rank.calls": ("count", "calls", ("linalg.gram_rank",)),
    "linalg.gram_rank.order_max": ("count", "max:order", ("linalg.gram_rank",)),
    "linalg.gram_rank.flops": ("flop", "sum:flops", ("linalg.gram_rank",)),
    "linalg.gram_rank.bytes": ("B", "sum:bytes", ("linalg.gram_rank",)),
}

# Metrics that must repeat exactly between traced runs of one workload:
# everything but times.
COUNT_METRICS = [name for name, (unit, _, _) in LAYER_METRICS.items() if unit != "s"] + [
    "graph.gram_oracle.coverage"
]


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced run, plus graph.gram_oracle.coverage:
    generators that entered a graph-level Gram oracle over generators built."""
    selfs = self_times(spans)
    by_name = defaultdict(list)
    for s in spans:
        by_name[s["name"]].append(s)
    out = {}
    for metric, (_, how, names) in LAYER_METRICS.items():
        group = [s for name in names for s in by_name[name]]
        if how == "self":
            value = sum(selfs[(s["run"], s["id"])] for s in group)
        elif how == "total":
            value = sum(s["end"] - s["start"] for s in group)
        elif how == "calls":
            value = len(group)
        else:
            agg, attr = how.split(":")
            values = [s[attr] for s in group]
            value = (sum(values) if agg == "sum" else max(values)) if values else 0
        out[metric] = value
    checked = sum(s["generators"] for name in ("graph.graph_dim.gram", "graph.graph_dim.both") for s in by_name[name])
    built = out["graph.generators"]
    out["graph.gram_oracle.coverage"] = checked / built if built else 0.0
    return out
