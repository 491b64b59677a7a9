"""Seeded query lists for the three benchmark workloads, and how to run them.

A workload's query list is a number of rounds, and every round is built from
the same templates (kind, instance, horizon or size band, start stratum), so
every round and every seed has the same mix.  The seed draws what fills each
template: starts, horizons, sizes, eps and delta values, random graphs, and
the order inside the round.  Numeric draws that a round makes several times
are spread over their range (one draw from each of n equal sub-bands), so
the work of a round changes little from seed to seed.  The library
receives only the generated inputs: relations and points built here, or
document paths for the in-process command line.
"""

from __future__ import annotations

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from crdyn import classify, cli, finite, symbolic, tree
from crdyn import io as crdyn_io
from crdyn.classify import BudgetExceededError, Certainty
from crdyn.region import Region1D, format_fraction

F = Fraction
DATA = Path(__file__).resolve().parent / "data"
DATA_REL = "perfbench/data"  # document paths as the command line sees them

WORKLOADS = ("walk-search", "reach-chase", "finite-classify")
WALK_HORIZONS = (50, 100, 150)

# Rounds in a workload's list.  A run issues whole rounds until its time is
# up; the list is longer than a 25-second run on a 2-core machine, and a
# faster program wraps around and repeats it.  Each round is built only when
# the run reaches it.  The traced run issues the first TRACE_ROUNDS rounds.
ROUNDS = {"walk-search": 4, "reach-chase": 16, "finite-classify": 20}
TRACE_ROUNDS = {"walk-search": 2, "reach-chase": 6, "finite-classify": 9}

# Traced functions a workload must never reach; the traced run checks this,
# so a change that helps one workload's layer cannot leak into another's.
ISOLATION = {
    "walk-search": ("symbolic.region_difference_closure", "classify.Condensation"),
    "reach-chase": ("symbolic.bounded_walk_search",),
    "finite-classify": ("symbolic.sym_image",),
}


@dataclass(frozen=True)
class Doc:
    path: str  # relative to the repository root
    relation: object
    density: object
    params: dict


@dataclass(frozen=True)
class Query:
    qid: str
    kind: str
    doc: str  # document name, or "" for a generated relation
    args: tuple

    def label(self) -> str:
        return f"{self.kind}:{self.doc}" if self.doc else self.kind


_BOX_DOCS = ("exhura-boxes16", "exhura-boxes32", "exxi-boxes16", "exxi-boxes32",
             "ex1-boxes16", "ex1-boxes32", "fse3-boxes16", "fse3-boxes32",
             "tistile-boxes16", "tistile-boxes32", "ex2-boxes16", "ex2-boxes32")

# The frozen documents each workload's set-up parses: those its rounds and
# its warm-up use, and no others.
DOCUMENTS = {
    "walk-search": ("exhura", "fse2", "fse3", "tistile", "ex1", "ex4"),
    "reach-chase": ("exxi", "exhura", "ex31", "ex1", "fse2", "fse3", "tistile"),
    "finite-classify": ("ex32",) + _BOX_DOCS,
}


def load_documents(workload: str) -> dict[str, Doc]:
    """Parse the workload's frozen documents, as listed in data/manifest.json."""
    manifest = json.loads((DATA / "manifest.json").read_text(encoding="utf-8"))
    docs = {}
    for name in sorted(DOCUMENTS[workload]):
        entry = manifest[name]
        text = (DATA / entry["file"]).read_text(encoding="utf-8")
        relation, density = crdyn_io.parse_document(text)
        docs[name] = Doc(f"{DATA_REL}/{entry['file']}", relation, density, entry["params"])
    return docs


# ---------------------------------------------------------------------------
# generation helpers


def _spread(rng: random.Random, lo: int, hi: int, count: int) -> list[int]:
    """count integers from [lo, hi], one from each of count equal sub-bands, shuffled."""
    edges = [lo + (hi - lo + 1) * i // count for i in range(count + 1)]
    values = [rng.randrange(a, max(b, a + 1)) for a, b in zip(edges, edges[1:])]
    rng.shuffle(values)
    return values


def _dyadic(rng: random.Random, lo: Fraction, hi: Fraction) -> Fraction:
    """A point k/64, k odd, strictly inside (lo, hi)."""
    first = int(lo * 32)
    last = -int(-hi * 32) - 1
    return F(2 * rng.randint(first, last) + 1, 64)


def _relation(n: int, edges) -> finite.FiniteRelation:
    return finite.FiniteRelation(finite.FiniteSpace([str(i) for i in range(n)]), edges)


def _small_random(rng: random.Random) -> finite.FiniteRelation:
    """Like tests/conftest.py's random relations, up to 12 points."""
    n = rng.randint(2, 12)
    density = rng.choice([0.12, 0.2, 0.3, 0.45])
    edges = {(a, b) for a in range(n) for b in range(n) if rng.random() < density}
    if not edges:
        edges.add((rng.randrange(n), rng.randrange(n)))
    return _relation(n, edges)


def _random_graph(rng: random.Random, n: int) -> finite.FiniteRelation:
    """Random digraph: a cycle through a third of the points, random feeders
    into it, and sparse random chords.  Its points come out illegal or
    intransitive; the transitive verdicts come from the other relations."""
    order = list(range(n))
    rng.shuffle(order)
    core = order[: max(2, n // 3)]
    edges = {(a, b) for a, b in zip(core, core[1:] + core[:1])}
    for i, v in enumerate(order[len(core):], start=len(core)):
        if rng.random() < 0.85:
            edges.add((v, order[rng.randrange(i)]))
    for _ in range(n // 10):
        edges.add((rng.randrange(n), rng.randrange(n)))
    return _relation(n, edges)


def _path(n: int) -> finite.FiniteRelation:
    return _relation(n, [(i, i + 1) for i in range(n - 1)] + [(n - 1, n - 1)])


def _cycle(n: int) -> finite.FiniteRelation:
    return _relation(n, [(i, (i + 1) % n) for i in range(n)])


# ---------------------------------------------------------------------------
# round templates


# Seeded starts per instance, horizon and search, one from each of that many
# equal parts of [0, 1]; every isolated point is a start as well.  On fse2,
# fse3 and tistile the searches from seeded starts end within a few
# milliseconds and the isolated points carry the work.  Two seeded starts on
# fse2 and fse3 put the median latency inside the cluster of isolated-point
# loop searches (about 7 to 14 ms) instead of on its upper edge, where it
# jumped between seeds.
WALK_STARTS = {"exhura": 2, "fse2": 2, "fse3": 2, "tistile": 1}


def _walk_round(rng: random.Random, docs: dict[str, Doc]) -> list[tuple]:
    out = []
    for h in WALK_HORIZONS:
        for kind in ("walk", "loop"):
            for name, parts in WALK_STARTS.items():
                doc = docs[name]
                eps = F(doc.params["eps"])
                starts = [_dyadic(rng, F(i, parts), F(i + 1, parts)) for i in range(parts)]
                for x in starts + list(doc.relation.space.isolated):
                    out.append((kind, name, (x, eps, h)))
            # at h = 50 an eps = 1/32 witness needs most of the horizon, and
            # the search thrashes from some starts; keep the short horizon coarse
            for name in ("ex1", "ex4"):
                for eps in ((F(1, 16), F(1, 16)) if h == 50 else (F(1, 16), F(1, 32))):
                    out.append((kind, name, (_dyadic(rng, F(0), F(1)), eps, h)))
    return out


_DISCRETIZE_POOL = ("exhura", "exxi", "ex1", "fse2", "fse3", "tistile", "ex31")
_CLI_REACH_POOL = ("exhura", "exxi", "fse2", "tistile")
_CLI_TRANSITIVE_POOL = ("exhura", "exxi", "ex1", "tistile")


def _reach_round(rng: random.Random, docs: dict[str, Doc]) -> list[tuple]:
    out = []
    for h in _spread(rng, 60, 120, 3):
        out.append(("forward_union", "exxi", ("point", F(2), h, False)))
    for h in _spread(rng, 60, 120, 3):
        out.append(("forward_union", "exxi", ("cell", F(rng.randrange(16), 16), h, True)))
    for name in ("exhura", "exxi"):
        for q in (8, 16):
            out.append(("grid_check", name, (F(1, q), 64)))
    for steps in _spread(rng, 10, 30, 3):
        out.append(("reach_chain", "ex31", (F(0), steps)))
    for q in (8, 16):
        for name in rng.sample(_DISCRETIZE_POOL, 3):
            out.append(("discretize", name, (F(1, q),)))
    for name, steps in zip(_CLI_REACH_POOL, _spread(rng, 10, 30, len(_CLI_REACH_POOL))):
        doc = docs[name]
        isolated = doc.relation.space.isolated
        point = rng.choice(isolated) if isolated and rng.random() < 0.5 else _dyadic(rng, F(0), F(1))
        out.append(("cli", name, ("reach", doc.path, "--point", format_fraction(point),
                                  "--steps", str(steps))))
    for name in _CLI_TRANSITIVE_POOL:
        for q in (8, 16):
            out.append(("cli", name, ("transitive", docs[name].path, "--eps", f"1/{q}",
                                      "--horizon", "64")))
    return out


def _finite_round(rng: random.Random, docs: dict[str, Doc]) -> list[tuple]:
    # Cost classes are kept apart so the median lands inside one class, not
    # on the border between two: 33 cheap generated queries (small relations,
    # tree, legality, characterization), 12 command-line classifications of
    # ex32 in the middle, and 39 costlier ones (the fixed box documents,
    # graphs, paths and cycles of 30 to 150 points).  Small relations are
    # checked against the exponential oracle, so they are a minority.
    out = []
    for _ in range(12):
        out.append(("classify_all", "", (_small_random(rng),)))
    for n in _spread(rng, 50, 150, 6):
        out.append(("characterization", "", (_random_graph(rng, n),)))
    for n in _spread(rng, 50, 150, 6):
        out.append(("legal", "", (_random_graph(rng, n),)))
    for n in _spread(rng, 50, 150, 9):
        out.append(("tree", "", (_random_graph(rng, n), rng.randrange(n), rng.randint(10, 40))))
    for _ in range(12):
        out.append(("cli", "ex32", ("classify", docs["ex32"].path)))
    for name in _BOX_DOCS:
        out.append(("classify_all", name, ()))
    for name in _BOX_DOCS[0::2]:
        out.append(("branch_summary_all", name, ()))
    for name in _BOX_DOCS[1::2]:
        out.append(("cli", name, ("classify", docs[name].path)))
    for n in _spread(rng, 50, 150, 6):
        out.append(("classify_all", "", (_random_graph(rng, n),)))
    for n in _spread(rng, 30, 70, 3):
        out.append(("classify_all", "", (_path(n),)))
    for n in _spread(rng, 30, 70, 3):
        out.append(("classify_all", "", (_cycle(n),)))
    for n in _spread(rng, 30, 70, 3):
        out.append(("branch_summary_all", "", (_path(n),)))
    return out


_ROUND_BUILDERS = {
    "walk-search": _walk_round,
    "reach-chase": _reach_round,
    "finite-classify": _finite_round,
}


def build_round(workload: str, seed: int, r: int, docs: dict[str, Doc]) -> list[Query]:
    """Round r of the workload's query list for a seed.

    Each round draws from its own generator, so a run builds a round only when
    it reaches it and holds no other round's inputs.
    """
    rng = random.Random(f"crdyn-perfbench:{workload}:{seed}:{r}")
    items = _ROUND_BUILDERS[workload](rng, docs)
    rng.shuffle(items)
    return [Query(f"r{r:02d}q{i:02d}", kind, doc, args)
            for i, (kind, doc, args) in enumerate(items)]


def warmup_queries(workload: str, docs: dict[str, Doc]) -> list[Query]:
    """A few cheap queries, one per code path of the workload, run before timing starts."""
    if workload == "walk-search":
        return [
            Query("w0", "walk", "ex1", (F(1, 8), F(1, 16), 50)),
            Query("w1", "loop", "ex1", (F(1, 8), F(1, 16), 50)),
        ]
    if workload == "reach-chase":
        return [
            Query("w2", "forward_union", "exxi", ("cell", F(3, 16), 60, True)),
            Query("w3", "grid_check", "exhura", (F(1, 8), 64)),
            Query("w4", "reach_chain", "ex31", (F(0), 5)),
            Query("w5", "discretize", "ex1", (F(1, 8),)),
            Query("w6", "cli", "exxi", ("reach", docs["exxi"].path, "--point", "2",
                                        "--steps", "3")),
        ]
    return [
        Query("w7", "classify_all", "", (_cycle(8),)),
        Query("w8", "classify_all", "ex1-boxes16", ()),
        Query("w9", "branch_summary_all", "", (_path(8),)),
        Query("w10", "characterization", "", (_cycle(8),)),
        Query("w11", "legal", "", (_path(8),)),
        Query("w12", "tree", "", (_cycle(8), 0, 4)),
        Query("w13", "cli", "ex32", ("classify", docs["ex32"].path)),
    ]


# ---------------------------------------------------------------------------
# execution


def finite_input(query: Query, docs: dict[str, Doc]):
    """(relation, density predicate or None) of a finite query."""
    if query.doc:
        doc = docs[query.doc]
        return doc.relation, doc.density
    return query.args[0], None


def execute(query: Query, docs: dict[str, Doc]):
    """Run one query through the library's public functions; return its result."""
    kind, args = query.kind, query.args
    if kind == "walk":
        start, eps, h = args
        return symbolic.bounded_walk_search(docs[query.doc].relation, start, eps, h)
    if kind == "loop":
        start, eps, h = args
        return symbolic.nondense_loop_search(docs[query.doc].relation, start, eps, h)
    if kind == "forward_union":
        shape, at, h, include_start = args
        U = Region1D.point(at) if shape == "point" else Region1D.interval(at, at + F(1, 16))
        return symbolic.forward_union(docs[query.doc].relation, U, h, include_start)
    if kind == "grid_check":
        delta, h = args
        return symbolic.grid_transitivity_check(docs[query.doc].relation, delta, h)
    if kind == "reach_chain":
        at, steps = args
        return symbolic.sym_reach_chain(docs[query.doc].relation, Region1D.point(at), steps)
    if kind == "discretize":
        return symbolic.discretize(docs[query.doc].relation, args[0])
    if kind == "cli":
        buf = io.StringIO()
        with redirect_stdout(buf):
            code = cli.main(list(args))
        return code, buf.getvalue()
    G, dense = finite_input(query, docs)
    if kind == "classify_all":
        return [classify.classify_point(G, x, dense) for x in range(G.space.size)]
    if kind == "branch_summary_all":
        return [tree.branch_summary(G, x, dense) for x in range(G.space.size)]
    if kind == "characterization":
        return classify.characterization_suite(G)
    if kind == "legal":
        return finite.legal_set(G)
    if kind == "tree":
        _, root, depth = args
        return tree.build_tree(G, root, depth).levels
    raise ValueError(f"unknown query kind {kind!r}")


@dataclass(frozen=True)
class BudgetStop:
    """A query that raised BudgetExceededError: undecided, not failed."""

    message: str


def run_query(query: Query, docs: dict[str, Doc]):
    """execute(), with a node-budget stop returned as a value, not raised."""
    try:
        return execute(query, docs)
    except BudgetExceededError as exc:
        return BudgetStop(str(exc))


def decided(query: Query, result) -> bool:
    """False when a query stopped on a budget or returned a non-certified tag."""
    if isinstance(result, BudgetStop):
        return False
    if query.kind in ("walk", "loop"):
        return result.status != "budget"
    if query.kind == "classify_all":
        return all(tag.certainty is Certainty.CERTIFIED for tag in result)
    if query.kind == "cli" and query.args[0] == "classify":
        return Certainty.UNKNOWN_AT_HORIZON.value not in result[1]
    return True
