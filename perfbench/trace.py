"""Span tracing installed from the benchmark's own files.

`install` wraps each traced public function of crdyn at every place the
function object is bound: the defining module, every crdyn module that
imported it by name, and the benchmark's modules.  Methods are wrapped on
their class.  Spans stay in memory as [name, parent index, start ns, end ns,
info] lists and are written out once the run ends.  Nothing under src/ is
edited; `uninstall` restores every binding.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import sys
import time
from collections import defaultdict
from pathlib import Path


def _walk_info(args, kwargs, result):
    horizon = args[3] if len(args) > 3 else kwargs["horizon"]
    steps = len(result.witness) - 1 if result.witness is not None else 0
    return (horizon, result.nodes, steps if result.status == "found" else 0)


def _nodes_info(args, kwargs, result):
    return result.nodes


def _pieces_info(args, kwargs, result):
    return len(args[0].pieces) + len(args[1].pieces)


def _closure_info(args, kwargs, result):
    return (len(args[0].pieces) + len(args[1].pieces), len(result.pieces))


def _discretize_info(args, kwargs, result):
    return len(result[0].edges)


# (module, attribute or Class.method, info hook)
TARGETS = (
    ("crdyn.region", "Region1D.from_points", None),
    ("crdyn.region", "Region1D.union", _pieces_info),
    ("crdyn.region", "Region1D.intersect", _pieces_info),
    ("crdyn.region", "Region1D.contains_region", None),
    ("crdyn.region", "Region1D.distance_to", None),
    ("crdyn.region", "eps_dense", None),
    ("crdyn.symbolic", "sym_image", None),
    ("crdyn.symbolic", "region_difference_closure", _closure_info),
    ("crdyn.symbolic", "forward_union", None),
    ("crdyn.symbolic", "sym_reach_chain", None),
    ("crdyn.symbolic", "grid_transitivity_check", None),
    ("crdyn.symbolic", "discretize", _discretize_info),
    ("crdyn.symbolic", "bounded_walk_search", _walk_info),
    ("crdyn.symbolic", "nondense_loop_search", _nodes_info),
    ("crdyn.symbolic", "successor_choices", None),
    ("crdyn.classify", "classify_point", None),
    ("crdyn.classify", "Condensation.__init__", None),
    ("crdyn.classify", "legal_by_cycle_reach", None),
    ("crdyn.classify", "reach", None),
    ("crdyn.classify", "reach_grade", None),
    ("crdyn.classify", "characterization_suite", None),
    ("crdyn.density", "Exhaustive.dense", None),
    ("crdyn.density", "EpsNet.dense", None),
    ("crdyn.finite", "legal_set", None),
    ("crdyn.finite", "image", None),
    ("crdyn.tree", "branch_summary", None),
    ("crdyn.tree", "build_tree", None),
    ("crdyn.io", "parse_document", None),
    ("crdyn.cli", "main", None),
)


def span_name(module: str, attr: str) -> str:
    name = f"{module.split('.', 1)[1]}.{attr}"
    return name[: -len(".__init__")] if name.endswith(".__init__") else name


class Tracer:
    """In-memory span recorder; one instance per traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, info=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, clock(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[3] = clock()
            if info is not None:
                span[4] = info(args, kwargs, result)
            return result

        return traced

    def install(self, extra_modules=()) -> None:
        for module_name, attr, info in TARGETS:
            module = importlib.import_module(module_name)
            name = span_name(module_name, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                owner = getattr(module, cls_name)
                raw = owner.__dict__[meth]
                if isinstance(raw, staticmethod):
                    new = staticmethod(self.wrap(name, raw.__func__, info))
                else:
                    new = self.wrap(name, raw, info)
                self._patches.append((owner, meth, raw))
                setattr(owner, meth, new)
                continue
            original = getattr(module, attr)
            wrapper = self.wrap(name, original, info)
            holders = [m for key, m in list(sys.modules.items())
                       if key == "crdyn" or key.startswith("crdyn.")]
            for holder in holders + list(extra_modules):
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._patches.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, (name, parent, t0, t1, info) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, t0, t1, info]) + "\n")


# ---------------------------------------------------------------------------
# aggregation


def _bucket(pieces: int) -> str:
    if pieces <= 10:
        return "le10"
    if pieces <= 100:
        return "le100"
    return "le1000"


def aggregate(spans: list[list], since: int = 0) -> dict:
    """Per-name calls and self time (ns) of the spans from index `since` on."""
    self_ns = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[1] >= 0:
            self_ns[s[1]] -= s[3] - s[2]
    calls = defaultdict(int)
    selft = defaultdict(int)
    for s, own in zip(spans[since:], self_ns[since:]):
        calls[s[0]] += 1
        selft[s[0]] += own
    return {"calls": calls, "self_ns": selft, "spans": spans[since:]}


def per_layer_metrics(agg: dict, relations: int, traced_s: float, untraced_s: float) -> dict:
    """The per-layer metrics named in BENCHMARK.json, as {name: (value, unit)}."""
    calls, selft, spans = agg["calls"], agg["self_ns"], agg["spans"]
    m: dict[str, tuple[float, str]] = {}

    def ms(ns: int) -> float:
        return ns / 1e6

    walk_nodes = defaultdict(int)
    walk_ns = defaultdict(int)
    steps = 0
    loop_nodes = 0
    closure_out = 0
    edges = 0
    bucket_ns = defaultdict(int)
    bucket_calls = defaultdict(int)
    for name, _, t0, t1, info in spans:
        if info is None:
            continue
        if name == "symbolic.bounded_walk_search":
            horizon, nodes, found_steps = info
            walk_nodes[horizon] += nodes
            walk_ns[horizon] += t1 - t0
            steps += found_steps
        elif name == "symbolic.nondense_loop_search":
            loop_nodes += info
        elif name == "symbolic.region_difference_closure":
            closure_out += info[1]
            bucket_ns[name, _bucket(info[0])] += t1 - t0
            bucket_calls[name, _bucket(info[0])] += 1
        elif name == "symbolic.discretize":
            edges += info
        elif name in ("region.Region1D.union", "region.Region1D.intersect"):
            bucket_ns[name, _bucket(info)] += t1 - t0
            bucket_calls[name, _bucket(info)] += 1

    nodes = sum(walk_nodes.values())
    m["symbolic.bounded_walk_search.nodes"] = (nodes, "count")
    for h in (50, 100, 150):
        per = walk_ns[h] / 1e3 / walk_nodes[h] if walk_nodes[h] else 0.0
        m[f"symbolic.bounded_walk_search.us_per_node.h{h}"] = (per, "us")
    m["symbolic.bounded_walk_search.witness_steps_per_node"] = (steps / nodes if nodes else 0.0, "ratio")
    m["symbolic.nondense_loop_search.nodes"] = (loop_nodes, "count")
    m["symbolic.successor_choices.calls"] = (calls["symbolic.successor_choices"], "count")
    m["region.from_points.calls"] = (calls["region.Region1D.from_points"], "count")
    m["region.from_points.self_ms"] = (ms(selft["region.Region1D.from_points"]), "ms")
    m["region.eps_dense.calls"] = (calls["region.eps_dense"], "count")
    m["region.eps_dense.self_ms"] = (ms(selft["region.eps_dense"]), "ms")
    m["region.distance_to.self_ms"] = (ms(selft["region.Region1D.distance_to"]), "ms")

    rdc = "symbolic.region_difference_closure"
    m[f"{rdc}.calls"] = (calls[rdc], "count")
    m[f"{rdc}.self_ms"] = (ms(selft[rdc]), "ms")
    m[f"{rdc}.out_pieces"] = (closure_out, "count")
    for short, name in ((rdc, rdc), ("region.union", "region.Region1D.union"),
                        ("region.intersect", "region.Region1D.intersect")):
        if short != rdc:
            m[f"{short}.self_ms"] = (ms(selft[name]), "ms")
        for b in ("le10", "le100", "le1000"):
            n = bucket_calls[name, b]
            m[f"{short}.us_per_call.{b}"] = (bucket_ns[name, b] / 1e3 / n if n else 0.0, "us")
    m["region.contains_region.self_ms"] = (ms(selft["region.Region1D.contains_region"]), "ms")
    m["symbolic.sym_image.calls"] = (calls["symbolic.sym_image"], "count")
    for name in ("sym_image", "forward_union", "sym_reach_chain", "grid_transitivity_check",
                 "discretize"):
        m[f"symbolic.{name}.self_ms"] = (ms(selft[f"symbolic.{name}"]), "ms")
    m["symbolic.discretize.edges"] = (edges, "count")

    m["classify.classify_point.calls"] = (calls["classify.classify_point"], "count")
    m["classify.classify_point.self_ms"] = (ms(selft["classify.classify_point"]), "ms")
    m["classify.Condensation.builds"] = (calls["classify.Condensation"], "count")
    m["classify.Condensation.self_ms"] = (ms(selft["classify.Condensation"]), "ms")
    per_rel = calls["classify.Condensation"] / relations if relations else 0.0
    m["classify.Condensation.builds_per_relation"] = (per_rel, "ratio")
    m["classify.legal_by_cycle_reach.calls"] = (calls["classify.legal_by_cycle_reach"], "count")
    m["classify.reach.calls"] = (calls["classify.reach"], "count")
    m["classify.reach.self_ms"] = (ms(selft["classify.reach"]), "ms")
    m["classify.reach_grade.self_ms"] = (ms(selft["classify.reach_grade"]), "ms")
    dense_calls = calls["density.Exhaustive.dense"] + calls["density.EpsNet.dense"]
    m["density.dense.calls"] = (dense_calls, "count")
    m["density.EpsNet.dense.self_ms"] = (ms(selft["density.EpsNet.dense"]), "ms")
    m["finite.legal_set.calls"] = (calls["finite.legal_set"], "count")
    m["finite.image.self_ms"] = (ms(selft["finite.image"]), "ms")
    m["tree.branch_summary.self_ms"] = (ms(selft["tree.branch_summary"]), "ms")
    m["io.parse_document.self_ms"] = (ms(selft["io.parse_document"]), "ms")
    m["cli.main.self_ms"] = (ms(selft["cli.main"]), "ms")
    m["trace.overhead_frac"] = (traced_s / untraced_s - 1.0, "ratio")
    return m


def layer_shares(agg: dict, traced_query_ns: int) -> dict[str, float]:
    """Share of the traced query time spent in each layer's own code."""
    shares = defaultdict(float)
    for name, ns in agg["self_ns"].items():
        shares[name.split(".", 1)[0]] += ns / traced_query_ns
    shares["(benchmark and untraced)"] = 1.0 - sum(shares.values())
    return dict(sorted(shares.items(), key=lambda kv: -kv[1]))
