"""Per-point transitivity classification on finite relations.

Two independent routes are provided and cross-tested:

* `classify_point` / `classify_all`: polynomial decisions read from one
  condensation of the relation, cached on the relation.  Under the
  exhaustive predicate they are structural rules over its components.
* `oracle_classify`: brute-force exploration of (current point, visited set)
  states, for small instances only.

System-level notions (dense-orbit transitivity, transitivity, +transitivity,
the eight-statement characterization) live here too.
"""

from __future__ import annotations

import functools
import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

from .density import DensityPredicate, Exhaustive
from .finite import FiniteRelation, Walk, _check_steps, inverse_relation

OMEGA = None  # sentinel accepted by reach() for the stabilized variant
_SEARCH_BUDGET = 20000  # default state budget of the finite bounded searches
_ORACLE_STATE_CAP = 500000  # (point, visited set) states the brute-force oracle may hold


class BudgetExceededError(RuntimeError):
    """A bounded search ran out of its state or instance-size budget."""


class IllegalPointError(ValueError):
    """The operation requires a legal starting point."""


class Verdict(Enum):
    ILLEGAL = "illegal"
    TRANS1 = "trans1"
    TRANS2 = "trans2"
    TRANS3 = "trans3"
    INTRANSITIVE = "intransitive"


class Certainty(Enum):
    CERTIFIED = "certified"
    REFUTED = "refuted"
    UNKNOWN_AT_HORIZON = "unknown-at-horizon"


@dataclass(frozen=True)
class ClassificationTag:
    """Strongest verdict for one point.

    `reach_grade` is the least n with a dense n-reach and is populated only
    for certified trans3-not-trans2 points.  `certainty` is CERTIFIED when the
    verdict is exact; UNKNOWN_AT_HORIZON flags that a stronger verdict might
    hold but the bounded search could not decide (never happens under the
    exhaustive predicate).
    """

    verdict: Verdict
    reach_grade: int | None = None
    certainty: Certainty = Certainty.CERTIFIED
    horizon: int | None = None


# the tags that carry only a verdict; frozen, so every classification shares them
_ILLEGAL = ClassificationTag(Verdict.ILLEGAL)
_INTRANSITIVE = ClassificationTag(Verdict.INTRANSITIVE)
_TRANS1 = ClassificationTag(Verdict.TRANS1)
_TRANS2 = ClassificationTag(Verdict.TRANS2)


# ---------------------------------------------------------------------------
# graph plumbing


def _reaches_cycle(G: FiniteRelation, start: int, allowed: frozenset | None = None) -> bool:
    """Does some walk from `start` reach a cycle, moving only to `allowed` vertices?"""
    color = {start: 1}  # 1 = on stack, 2 = done
    stack = [(start, iter(G.successors(start)))]
    while stack:
        v, it = stack[-1]
        advanced = False
        for w in it:
            if allowed is not None and w not in allowed:
                continue
            c = color.get(w)
            if c == 1:
                return True
            if c is None:
                color[w] = 1
                stack.append((w, iter(G.successors(w))))
                advanced = True
                break
        if not advanced:
            color[v] = 2
            stack.pop()
    return False


def legal_by_cycle_reach(G: FiniteRelation) -> frozenset:
    """Independent legality route: a point is legal iff it reaches a cycle."""
    return frozenset(x for x in range(G.space.size) if _reaches_cycle(G, x))


class Condensation:
    """Strongly connected components of a relation, their DAG, and what the
    finite decisions read from it; built once per relation (see `_analysis`)
    in one pass of Tarjan's algorithm over the successor lists.

    Tarjan emits a component only after every component it reaches, so each
    component's DAG successors, whether it is `live` (has an internal edge),
    `reach_live` and `reach_dead` (some walk from it ends at a successor-free
    point) are all read when it is emitted.  DAG edges point to lower
    indices, and descending indices are a topological order.  A point is
    `legal` when its component reaches a live one.  When consecutive
    components are adjacent (so that order is the only topological one) and
    the sink 0 is live, some walk visits every point, starting in
    `chain_source`, the top component.  `source` is the unique source component when every point is
    legal (else None): its points are those whose orbit union is the whole
    space.
    """

    __slots__ = (
        "scc_of", "members", "dag_succ", "live", "count",
        "reach_live", "reach_dead", "legal", "chain_source", "source", "_trans1",
    )

    def __init__(self, G: FiniteRelation):
        succ = G._succ
        n = len(succ)
        index = [-1] * n
        low = [0] * n
        scc_of = [-1] * n  # -1 for a visited point marks it as still on the stack
        stack: list[int] = []
        members: list[frozenset] = []
        dag_succ: list[frozenset] = []
        live: list[bool] = []
        reach_live: list[bool] = []
        reach_dead: list[bool] = []
        chain = True
        counter = 0
        for root in range(n):
            if index[root] >= 0:
                continue
            index[root] = low[root] = counter
            counter += 1
            stack.append(root)
            work = [(root, iter(succ[root]))]
            while work:
                v, todo = work[-1]
                for w in todo:
                    if index[w] < 0:
                        index[w] = low[w] = counter
                        counter += 1
                        stack.append(w)
                        work.append((w, iter(succ[w])))
                        break
                    if scc_of[w] < 0 and index[w] < low[v]:
                        low[v] = index[w]
                else:
                    work.pop()
                    lv = low[v]
                    if work:
                        u = work[-1][0]
                        if lv < low[u]:
                            low[u] = lv
                    if lv != index[v]:
                        continue
                    c = len(members)
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    for w in comp:
                        scc_of[w] = c
                    comp.sort()
                    out = {scc_of[w] for u in comp for w in succ[u]}
                    own = c in out  # an internal edge supports an infinite walk
                    out.discard(c)
                    members.append(frozenset(comp))
                    dag_succ.append(frozenset(out))
                    live.append(own)
                    if out:
                        reach_live.append(own or any(map(reach_live.__getitem__, out)))
                        reach_dead.append(any(map(reach_dead.__getitem__, out)))
                        chain = chain and c - 1 in out
                    else:  # a sink component
                        reach_live.append(own)
                        reach_dead.append(not own)
                        chain = chain and c == 0
        self.count = count = len(members)
        self.scc_of = tuple(scc_of)
        self.members = tuple(members)
        self.dag_succ = tuple(dag_succ)
        self.live = tuple(live)
        self.reach_live = reach_live
        self.reach_dead = reach_dead
        self.legal = frozenset(v for v, c in enumerate(self.scc_of) if reach_live[c])
        top = count - 1
        self.chain_source = top if chain and live[0] else None
        sole = len(self.legal) == n and len(set().union(*dag_succ)) == top
        self.source = top if sole else None
        self._trans1: frozenset | None = None

    def trans1(self, G: FiniteRelation) -> frozenset:
        """Points from which every infinite walk visits every point."""
        if self._trans1 is None:
            self._trans1 = _every_walk_visits_all(G, self)
        return self._trans1


def _analysis(G: FiniteRelation) -> Condensation:
    """G's condensation, built on first use and kept on G."""
    if G._analysis is None:
        G._analysis = Condensation(G)
    return G._analysis


def _infinite_starts(G: FiniteRelation, keep: frozenset) -> set[int]:
    """Points of `keep` that start an infinite walk inside it: peel the successor-free."""
    outdeg = {v: sum(w in keep for w in G.successors(v)) for v in keep}
    dead = [v for v, d in outdeg.items() if not d]
    while dead:
        for p in G.predecessors(dead.pop()):
            if p in outdeg:
                outdeg[p] -= 1
                if not outdeg[p]:
                    dead.append(p)
    return {v for v, d in outdeg.items() if d}


def _every_walk_visits_all(G: FiniteRelation, cond: Condensation) -> frozenset:
    """The type-1 rule on the chain of components k, k - 1, ..., 0: a subset of k.

    A walk could rest in a live component or jump one, so components k ... 1
    must be loop-free singletons each followed only by the next.  The walk
    enters the sink 0 at an entry point (a successor of component 1, or the
    start when k = 0); for each u in the sink, no entry point but u may start
    an infinite walk avoiding u.  One peeling pass per u decides it.
    """
    if cond.chain_source is None or any(
        cond.live[c] or cond.dag_succ[c] != {c - 1} for c in range(1, cond.count)
    ):
        return frozenset()
    head, sink = cond.members[-1], cond.members[0]
    if all(len(G.successors(v)) == 1 for v in sink):
        return head
    entries = G.successors(min(cond.members[1])) if cond.count > 1 else None
    killed: set[int] = set()
    for u in sink:
        alive = _infinite_starts(G, sink - {u})
        if entries is None:
            killed |= alive  # k = 0: each point is its own entry point
        elif alive.intersection(entries):
            return frozenset()
    return head - killed


# ---------------------------------------------------------------------------
# reach sets


def _reach_layers(G: FiniteRelation, x: int) -> Iterator[frozenset]:
    """Breadth-first layers from x: {x}, then the points first reached at each step."""
    if not 0 <= x < G.space.size:
        raise ValueError("point outside the space")
    seen = {x}
    layer = frozenset(seen)
    while layer:
        yield layer
        layer = frozenset(w for v in layer for w in G.successors(v)) - seen
        seen |= layer


def _cumulative(layers: Iterator[frozenset]) -> Iterator[frozenset]:
    """Running unions of the layers: the n-reach for n = 0, 1, ..."""
    acc: frozenset = frozenset()
    for layer in layers:
        acc |= layer
        yield acc


def reach(G: FiniteRelation, x: int, n: int | None = OMEGA) -> frozenset:
    """The n-reach {x} u G(x) u ... u G^n(x); n=None gives the stabilized set."""
    if n is not None:
        _check_steps(n, "n")
    layers = itertools.islice(_reach_layers(G, x), None if n is None else n + 1)
    return frozenset().union(*layers)


def reach_chain(G: FiniteRelation, x: int, max_steps: int | None = None) -> list[frozenset]:
    """Cumulative reach sets until stabilization (inclusive of the repeat)."""
    limit = max_steps if max_steps is not None else G.space.size + 1
    _check_steps(limit, "max_steps")
    chain = list(itertools.islice(_cumulative(_reach_layers(G, x)), limit + 1))
    if len(chain) <= limit:
        chain.append(chain[-1])  # the step that adds nothing
    return chain


def reach_grade(G: FiniteRelation, x: int, dense: DensityPredicate) -> int | None:
    """Least n >= 1 with a dense n-reach, or None when even the omega-reach is not dense."""
    for n, current in enumerate(_cumulative(_reach_layers(G, x))):
        if n and dense.dense(current):
            return n
    # the stabilized set is the reach at every later step
    return n + 1 if dense.dense(current) else None


def orbit_union(G: FiniteRelation, x: int) -> frozenset:
    """Union of all infinite-trajectory orbits from x: reachable legal points.

    From the condensation: the legal components x's reaches in the DAG; illegal ones reach none.
    """
    if not 0 <= x < G.space.size:
        raise ValueError("point outside the space")
    cond = _analysis(G)
    live = cond.reach_live
    todo = [c for c in (cond.scc_of[x],) if live[c]]
    seen = set(todo)
    while todo:
        new = {d for d in cond.dag_succ[todo.pop()] if live[d]} - seen
        seen |= new
        todo += new
    return frozenset().union(*(cond.members[c] for c in seen))


# ---------------------------------------------------------------------------
# fast classification


def _density(G: FiniteRelation, dense: DensityPredicate | None) -> DensityPredicate:
    """`dense`, or G's exhaustive predicate for None; one sized for another space is refused."""
    n = G.space.size
    size = getattr(dense, "size", n)
    if size != n:
        raise ValueError(f"{dense!r} is sized for {size} points, the space has {n}")
    return Exhaustive(n) if dense is None else dense


def _trans2_bounded(
    x: int, dense: DensityPredicate, cond: Condensation, budget: int
) -> bool | None:
    """Search condensation paths for a dense member union ending live-reachable.

    x is legal and its orbit union is dense, so the search starts at once.
    Returns True/False when decided, None when the budget ran out.
    """
    seen = 0
    stack: list[tuple[int, frozenset]] = [(cond.scc_of[x], frozenset())]
    while stack:
        comp, union_before = stack.pop()
        seen += 1
        if seen > budget:
            return None
        union = union_before | cond.members[comp]
        if cond.reach_live[comp] and dense.dense(union):
            return True
        for nxt in sorted(cond.dag_succ[comp], reverse=True):
            stack.append((nxt, union))
    return False


def _trans1_bounded(
    G: FiniteRelation, x: int, dense: DensityPredicate, budget: int
) -> bool | None:
    """Look for an infinite walk from x whose visited set stays non-dense.

    True means every infinite walk is dense (no refuting lasso exists);
    False means a refuting lasso was found; None means budget exhausted.
    S is the vertex set of the walk that led to v, so v starts an infinite
    walk inside S exactly when a successor of v lies in S: the step back
    closes a cycle of that walk.
    """
    seen_states: set[tuple[int, frozenset]] = set()
    work: list[tuple[int, frozenset]] = [(x, frozenset([x]))]
    while work:
        if len(seen_states) > budget:
            return None
        v, S = work.pop()
        if (v, S) in seen_states:
            continue
        seen_states.add((v, S))
        if dense.dense(S):
            continue  # extensions only grow S, density is monotone
        if not S.isdisjoint(G.successors(v)):
            return False
        for w in G.successors(v):
            work.append((w, S | {w}))
    return True


def _decide(
    G: FiniteRelation, x: int, dense: DensityPredicate, search_budget: int
) -> tuple[bool, bool | None, bool | None]:
    """(x's orbit union is dense, some infinite walk from x is dense, every one
    is), read from G's condensation; None where a bounded search ran out of
    budget, and all False for an illegal x, whose orbit union is empty.

    Under the exhaustive predicate the orbit union is the whole space exactly
    in the source component of a relation whose points are all legal.  When
    the dense-walk search runs out, the lasso search may still show that
    every walk is dense, and x is legal, so some walk is dense as well.
    """
    a = _analysis(G)
    if isinstance(dense, Exhaustive):
        if a.scc_of[x] != a.source:
            return False, False, False
        some = a.scc_of[x] == a.chain_source
        return True, some, some and x in a.trans1(G)
    if x not in a.legal or not dense.dense(orbit_union(G, x)):
        return False, False, False
    some = _trans2_bounded(x, dense, a, search_budget)
    if some is False:
        return True, False, False
    every = _trans1_bounded(G, x, dense, search_budget)
    return True, (True if every else some), every


def classify_point(
    G: FiniteRelation,
    x: int,
    dense: DensityPredicate | None = None,
    search_budget: int = _SEARCH_BUDGET,
) -> ClassificationTag:
    """Strongest verdict for x; weaker memberships follow from the chain.

    Under the exhaustive predicate every decision is polynomial and certified.
    Under an eps-net predicate the trans1/trans2 decisions are bounded searches
    and the tag may come back UNKNOWN_AT_HORIZON.
    """
    if not 0 <= x < G.space.size:
        raise ValueError("point outside the space")
    dense = _density(G, dense)
    if x not in _analysis(G).legal:
        return _ILLEGAL
    cover_dense, t2, t1 = _decide(G, x, dense, search_budget)
    if not cover_dense:
        return _INTRANSITIVE
    if t1:
        return _TRANS1
    if t2 and t1 is False:
        return _TRANS2
    if t2 is not False:  # a bounded search ran out of budget
        verdict = Verdict.TRANS2 if t2 else Verdict.TRANS3
        return ClassificationTag(verdict, certainty=Certainty.UNKNOWN_AT_HORIZON, horizon=search_budget)
    grade = reach_grade(G, x, dense)
    assert grade is not None, "reach stabilizes on finite spaces, so a dense omega-reach is dense at finite depth"
    return ClassificationTag(Verdict.TRANS3, reach_grade=grade)


def classify_all(
    G: FiniteRelation,
    dense: DensityPredicate | None = None,
    search_budget: int = _SEARCH_BUDGET,
) -> list[ClassificationTag]:
    """classify_point for every point in index order."""
    return [classify_point(G, x, dense, search_budget) for x in range(G.space.size)]


def oracle_classify(
    G: FiniteRelation,
    x: int,
    dense: DensityPredicate | None = None,
) -> ClassificationTag:
    """Brute-force classification via (point, visited set) states; |X| <= 16."""
    n = G.space.size
    if n > 16:
        raise BudgetExceededError("oracle is limited to 16 points")
    dense = _density(G, dense)
    if not 0 <= x < n:
        raise ValueError("point outside the space")
    point_legal = [_reaches_cycle(G, v) for v in range(n)]
    if not point_legal[x]:
        return ClassificationTag(Verdict.ILLEGAL)

    # layered reach, recorded per depth for the grade
    layers: list[frozenset] = [frozenset([x])]
    while True:
        nxt = layers[-1] | frozenset(
            b for a in layers[-1] for b in G.successors(a)
        )
        if nxt == layers[-1]:
            break
        layers.append(nxt)
    union = frozenset(v for v in layers[-1] if point_legal[v])
    trans3 = dense.dense(union)
    if not trans3:
        return ClassificationTag(Verdict.INTRANSITIVE)

    start = (x, frozenset([x]))
    states = {start}
    queue = deque([start])
    trans2 = False
    trans1 = True
    while queue:
        v, S = queue.popleft()
        if dense.dense(S):
            if point_legal[v]:
                trans2 = True
        elif _reaches_cycle(G, v, S):
            trans1 = False
        for w in G.successors(v):
            nxt = (w, S | {w})
            if nxt not in states:
                if len(states) >= _ORACLE_STATE_CAP:
                    raise BudgetExceededError("oracle state cap exceeded")
                states.add(nxt)
                queue.append(nxt)

    if trans1 and trans2:
        return ClassificationTag(Verdict.TRANS1)
    if trans2:
        return ClassificationTag(Verdict.TRANS2)
    grade = None
    for m in range(1, len(layers) + 1):
        layer = layers[min(m, len(layers) - 1)]
        if dense.dense(layer):
            grade = m
            break
    assert grade is not None, "a dense orbit union forces a dense reach at finite depth"
    return ClassificationTag(Verdict.TRANS3, reach_grade=grade)


_RANK = {
    Verdict.TRANS1: 1,
    Verdict.TRANS2: 2,
    Verdict.TRANS3: 3,
    Verdict.INTRANSITIVE: 4,
    Verdict.ILLEGAL: 5,
}


def _member(tag: ClassificationTag, level: int) -> tuple[bool | None, Certainty]:
    """Type-`level` membership read from a tag; the one check of the level."""
    if level not in (1, 2, 3):
        raise ValueError("level must be 1, 2, or 3")
    rank = _RANK[tag.verdict]
    if rank <= level:
        return True, Certainty.CERTIFIED
    if tag.certainty is Certainty.UNKNOWN_AT_HORIZON and level < rank <= 3:
        return None, Certainty.UNKNOWN_AT_HORIZON
    return False, Certainty.REFUTED


def membership(
    G: FiniteRelation,
    x: int,
    level: int,
    dense: DensityPredicate | None = None,
    search_budget: int = _SEARCH_BUDGET,
) -> tuple[bool | None, Certainty]:
    """Is x a type-`level` transitive point?  (None, UNKNOWN...) if undecided."""
    return _member(classify_point(G, x, dense, search_budget), level)


def trans_set(
    G: FiniteRelation,
    level: int,
    dense: DensityPredicate | None = None,
) -> frozenset:
    """All points whose type-`level` membership is certified true."""
    return frozenset(
        x for x, tag in enumerate(classify_all(G, dense)) if _member(tag, level)[0]
    )


# ---------------------------------------------------------------------------
# branch covers


@dataclass(frozen=True)
class BranchCoverResult:
    """Minimal number of walk prefixes whose orbit union is dense.

    size is None when no cover was found; certainty distinguishes a certified
    minimum (or certified impossibility) from a horizon-limited bound.  The
    witnesses are `Walk`s on a finite relation and exact point tuples on an
    interval relation.
    """

    size: int | None
    witnesses: tuple
    horizon: int
    certainty: Certainty


def _bfs_path(G: FiniteRelation, start: int, goals: frozenset, allowed: frozenset) -> list[int] | None:
    """Shortest path inside `allowed` from start to the lex-least nearest goal."""
    if start in goals:
        return [start]
    prev = {start: None}
    frontier = [start]
    while frontier:
        reached = [v for v in frontier if v in goals]
        if reached:
            v = min(reached)
            path = [v]
            while prev[v] is not None:
                v = prev[v]
                path.append(v)
            return list(reversed(path))
        nxt = []
        for v in sorted(frontier):
            for w in G.successors(v):
                if w in allowed and w not in prev:
                    prev[w] = v
                    nxt.append(w)
        frontier = nxt
    return None


def _touring_walk(G: FiniteRelation, x: int, comp_path: list[int], cond: Condensation, horizon: int) -> tuple[list[int], bool]:
    """A walk from x visiting every member along the component path.

    Returns (walk, truncated).  Greedy nearest-first touring inside each
    component, lexicographic tie-breaks throughout.
    """
    walk = [x]

    def cut_short(seg: list[int]) -> bool:
        """Extend the walk by seg, up to the horizon; True when seg did not fit."""
        left = horizon - (len(walk) - 1)
        walk.extend(seg[:left])
        return len(seg) > left

    for idx, comp in enumerate(comp_path):
        allowed = cond.members[comp]
        pending = set(allowed) - set(walk)
        while pending:
            # walk[-1] is a member, and the members of a component reach each other
            seg = _bfs_path(G, walk[-1], frozenset(pending), allowed)[1:]
            if cut_short(seg):
                return walk, True
            pending -= set(seg)
        if idx + 1 < len(comp_path):
            nxt_comp = comp_path[idx + 1]
            crossings = sorted(
                (a, b)
                for a, b in G.edges
                if cond.scc_of[a] == comp and cond.scc_of[b] == nxt_comp
            )
            a, b = crossings[0]
            seg = _bfs_path(G, walk[-1], frozenset([a]), cond.members[comp])
            assert seg is not None, "source of a crossing edge lies in the same component"
            if cut_short(seg[1:] + [b]):
                return walk, True
    return walk, False


def _min_cover(
    candidates: list[tuple[frozenset, tuple]], dense: Callable[[frozenset], bool]
) -> tuple[int, list[int]] | None:
    """Exact minimum subset of candidate orbit sets with a dense union.

    `dense` is a monotone test of an orbit union; both backends pass theirs.
    Candidates are (orbit set, walk) pairs, already sorted by walk; ties are
    broken toward lexicographically smallest witness tuples because
    itertools.combinations scans in index order.  Mandatory candidates (sole
    owner of some point needed for density) are in every dense sub-family, so
    they are forced and the combination search only runs on the residual.
    """
    if not candidates:
        return None
    everything = frozenset().union(*(s for s, _ in candidates))
    if not dense(everything):
        return None
    # forced picks: candidates owning a point exclusively, when dropping that
    # point breaks density
    forced: list[int] = []
    for i, (s, _) in enumerate(candidates):
        others = [t for j, (t, _) in enumerate(candidates) if j != i]
        exclusive = s - frozenset().union(*others) if others else s
        if exclusive and not dense(everything - exclusive):
            forced.append(i)
    base = frozenset().union(*(candidates[i][0] for i in forced)) if forced else frozenset()
    if forced and dense(base):
        return len(forced), forced
    rest = [i for i in range(len(candidates)) if i not in forced]
    for extra in range(1, len(rest) + 1):
        for combo in itertools.combinations(rest, extra):
            union = base.union(*(candidates[i][0] for i in combo))
            if dense(union):
                return len(forced) + extra, sorted(forced + list(combo))
    return None


def _greedy_cover(
    G: FiniteRelation, x: int, dense: DensityPredicate, horizon: int
) -> tuple[int, list[tuple[int, ...]]] | None:
    """Upper bound: repeatedly walk toward the nearest uncovered point."""
    full = reach(G, x)
    covered: set[int] = set()
    walks: list[tuple[int, ...]] = []
    while not dense.dense(frozenset(covered)):
        walk = [x]
        progressed = False
        while len(walk) - 1 < horizon:
            target = frozenset(full - covered - set(walk))
            seg = _bfs_path(G, walk[-1], target, full)
            if seg is None or len(seg) - 1 > horizon - (len(walk) - 1):
                break
            walk.extend(seg[1:])
            progressed = True
        covered.update(walk)
        walks.append(tuple(walk))
        if not progressed and not dense.dense(frozenset(covered)):
            return None
    return len(walks), walks


def minimal_dense_branch_cover(
    G: FiniteRelation,
    x: int,
    dense: DensityPredicate | None = None,
    horizon: int = 1000,
    max_paths: int = 4096,
    max_candidates: int = 64,
) -> BranchCoverResult:
    """Minimum number of length-<=horizon walks from x with a dense orbit union.

    Exact (branch and bound over condensation paths) when the path family is
    small; greedy upper bound otherwise, flagged UNKNOWN_AT_HORIZON unless it
    matches the structural lower bound.
    """
    _check_steps(horizon, "horizon")
    dense = _density(G, dense)
    if not 0 <= x < G.space.size:
        raise ValueError("point outside the space")
    cond = _analysis(G)
    if x not in cond.legal:
        raise IllegalPointError(f"point {x} is illegal; branch covers need a legal start")
    start = cond.scc_of[x]

    paths: list[list[int]] = []
    stack: list[list[int]] = [[start]]
    overflow = False
    while stack:
        path = stack.pop()
        succs = sorted(cond.dag_succ[path[-1]], reverse=True)
        if not succs:
            paths.append(path)
        else:
            for nxt in succs:
                stack.append(path + [nxt])
        if len(paths) + len(stack) > max_paths:
            overflow = True
            break

    if overflow:
        greedy = _greedy_cover(G, x, dense, horizon)
        if greedy is None:
            if not dense.dense(reach(G, x)):
                return BranchCoverResult(None, (), horizon, Certainty.CERTIFIED)
            return BranchCoverResult(None, (), horizon, Certainty.UNKNOWN_AT_HORIZON)
        size, walks = greedy
        witnesses = tuple(Walk(w, G) for w in walks)
        certainty = Certainty.CERTIFIED if size == 1 else Certainty.UNKNOWN_AT_HORIZON
        return BranchCoverResult(size, witnesses, horizon, certainty)

    paths.sort()
    ideal: list[frozenset] = []
    realized: list[tuple[frozenset, tuple[int, ...]]] = []
    any_truncated = False
    for p in paths:
        members = frozenset(v for c in p for v in cond.members[c])
        ideal.append(members)
        walk, truncated = _touring_walk(G, x, p, cond, horizon)
        any_truncated = any_truncated or truncated
        realized.append((frozenset(walk), tuple(walk)))

    # drop duplicate orbit sets, keeping the lexicographically least walk
    realized.sort(key=lambda item: item[1])
    seen_sets: set[frozenset] = set()
    deduped: list[tuple[frozenset, tuple[int, ...]]] = []
    for s, w in realized:
        if s not in seen_sets:
            seen_sets.add(s)
            deduped.append((s, w))
    if len(deduped) > max_candidates:
        raise BudgetExceededError("too many distinct orbit candidates for exact cover search")

    achieved = _min_cover(deduped, dense.dense)
    if achieved is None:
        if not dense.dense(frozenset().union(*ideal)):
            # even unbounded walks cannot cover: certified impossible
            return BranchCoverResult(None, (), horizon, Certainty.CERTIFIED)
        return BranchCoverResult(None, (), horizon, Certainty.UNKNOWN_AT_HORIZON)
    size, picked = achieved
    witnesses = tuple(Walk(deduped[i][1], G) for i in picked)
    if not any_truncated:
        return BranchCoverResult(size, witnesses, horizon, Certainty.CERTIFIED)
    lower = _min_cover([(s, (i,)) for i, s in enumerate(ideal)], dense.dense)
    if lower is not None and lower[0] == size:
        return BranchCoverResult(size, witnesses, horizon, Certainty.CERTIFIED)
    return BranchCoverResult(size, witnesses, horizon, Certainty.UNKNOWN_AT_HORIZON)


# ---------------------------------------------------------------------------
# system-level notions


def do_transitive(
    G: FiniteRelation, k: int, dense: DensityPredicate | None = None
) -> bool | None:
    """Type-k dense orbit transitivity: is some point type-k transitive?

    Returns None when every membership at level k came back undecided.
    """
    answers = {_member(tag, k)[0] for tag in classify_all(G, dense)}
    if True in answers:
        return True
    return None if None in answers else False


def _positive_reach(G: FiniteRelation, u: int) -> frozenset:
    """Points reachable from u along walks of at least one step."""
    out: set[int] = set()
    work = list(G.successors(u))
    while work:
        v = work.pop()
        if v in out:
            continue
        out.add(v)
        work.extend(G.successors(v))
    return frozenset(out)


def system_transitive(G: FiniteRelation) -> bool:
    """Open-set transitivity on a finite discrete space: G has one strongly connected component.

    Singletons generate the topology, so every point must reach every other.
    The plus variant (every u reaches every v in one step or more, u = v
    included) gives the same answer here: with two or more points, each u
    reaches some v != u and back; the only relation on one point is its loop.
    `characterization_suite` is the independent route, from the points' reaches.
    """
    return _analysis(G).count == 1


@dataclass(frozen=True)
class CharacterizationReport:
    """The eight open-set transitivity statements of a finite relation G.

    Over singletons {u}, {v}: u reaches every v != u (1), u reaches every v in
    one step or more (2), u's forward orbit from step 0 is dense (3) and from
    step 1 (4), and 1-4 for the inverse relation (5-8).  On a finite relation
    all eight hold exactly when G has one strongly connected component, so
    `matches_transitive` and `matches_plus_transitive` are always True, which
    the tests check, with statements 1 and 2 against `system_transitive`; they
    stay because the benchmark's finite-classify golden file digests this repr.
    """

    statements: tuple[bool, bool, bool, bool, bool, bool, bool, bool]
    group1_consistent: bool
    group2_consistent: bool
    matches_transitive: bool
    matches_plus_transitive: bool
    inverse_invariant: bool


def _forward_statements(R: FiniteRelation) -> tuple[bool, bool, bool, bool]:
    """Statements 1-4 on R; a point's positive reach is searched once, when first asked for."""
    n = R.space.size
    full = frozenset(range(n))
    pos = functools.cache(functools.partial(_positive_reach, R))
    pairs = all(full - {u} <= pos(u) for u in range(n))
    positive_pairs = all(full <= pos(u) for u in range(n))
    union = all(pos(u) | {u} == full for u in range(n))
    positive_union = all(pos(u) == full for u in range(n))
    return pairs, positive_pairs, union, positive_union


def characterization_suite(G: FiniteRelation) -> CharacterizationReport:
    """Evaluate the eight open-set transitivity statements independently.

    Statements quantify over singleton open sets: pair/forward (1), positive
    pair/forward (2), dense-union forward from step 0 (3) and from step 1 (4),
    and the same four for the inverse relation (5-8).  Each is decided from
    the points' positive reaches, one search per point and relation, and not
    from the condensation that `system_transitive` reads.
    """
    s1, s2, s3, s4 = _forward_statements(G)
    s5, s6, s7, s8 = _forward_statements(inverse_relation(G))
    return CharacterizationReport(
        statements=(s1, s2, s3, s4, s5, s6, s7, s8),
        group1_consistent=(s1 == s3 == s5 == s7),
        group2_consistent=(s2 == s4 == s6 == s8),
        matches_transitive=True,
        matches_plus_transitive=True,
        inverse_invariant=(s1 == s5),
    )


def projection_check(G: FiniteRelation) -> tuple[frozenset, frozenset]:
    """(edge sources, edge targets)."""
    p1 = frozenset(a for a, _ in G.edges)
    p2 = frozenset(b for _, b in G.edges)
    return p1, p2
