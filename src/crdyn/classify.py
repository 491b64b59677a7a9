"""Per-point transitivity classification on finite relations.

Two independent routes are provided and cross-tested:

* `classify_point` / `classify_all`: polynomial decisions built on one
  condensation of the relation.  Legality is reaching a live component;
  all-walks density reduces to vertex-deletion liveness; some-walk density
  reduces to a unique-topological-order test over the condensation.
* `oracle_classify`: brute-force exploration of (current point, visited set)
  states, for small instances only.

System-level notions (dense-orbit transitivity, transitivity, +transitivity,
the eight-statement characterization) live here too.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterator

from .density import DensityPredicate, Exhaustive
from .finite import FiniteRelation, Walk, inverse_relation

OMEGA = None  # sentinel accepted by reach() for the stabilized variant


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
    """Strongly connected components of a relation, with their DAG."""

    __slots__ = ("scc_of", "members", "dag_succ", "live", "count")

    def __init__(self, G: FiniteRelation):
        n = G.space.size
        index = [None] * n
        low = [0] * n
        on_stack = [False] * n
        stack: list[int] = []
        comp_of = [None] * n
        comps: list[list[int]] = []
        counter = 0
        for root in range(n):
            if index[root] is not None:
                continue
            work = [(root, 0)]
            while work:
                v, pi = work[-1]
                if pi == 0:
                    index[v] = low[v] = counter
                    counter += 1
                    stack.append(v)
                    on_stack[v] = True
                recursed = False
                succ = G.successors(v)
                for j in range(pi, len(succ)):
                    w = succ[j]
                    if index[w] is None:
                        work[-1] = (v, j + 1)
                        work.append((w, 0))
                        recursed = True
                        break
                    if on_stack[w]:
                        low[v] = min(low[v], index[w])
                if recursed:
                    continue
                if low[v] == index[v]:
                    comp = []
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp_of[w] = len(comps)
                        comp.append(w)
                        if w == v:
                            break
                    comps.append(sorted(comp))
                work.pop()
                if work:
                    parent = work[-1][0]
                    low[parent] = min(low[parent], low[v])
        self.count = len(comps)
        self.scc_of = tuple(comp_of)
        self.members = tuple(frozenset(c) for c in comps)
        dag: list[set[int]] = [set() for _ in comps]
        live = [False] * len(comps)
        for a, b in G.edges:
            ca, cb = comp_of[a], comp_of[b]
            if ca == cb:
                live[ca] = True  # an internal edge supports an infinite walk
            else:
                dag[ca].add(cb)
        self.dag_succ = tuple(frozenset(s) for s in dag)
        self.live = tuple(live)

    def can_reach_live(self) -> tuple[bool, ...]:
        """Per component: does it reach a live one, i.e. do its points admit an infinite walk?

        Tarjan emits a component only after every component it reaches, so
        each DAG edge points to a lower index and one ascending pass suffices.
        """
        out: list[bool] = []
        for c in range(self.count):
            out.append(self.live[c] or any(out[d] for d in self.dag_succ[c]))
        return tuple(out)

    def unique_topological_order(self) -> list[int] | None:
        """The unique topological order, or None when it is not unique."""
        indeg = [0] * self.count
        for c in range(self.count):
            for d in self.dag_succ[c]:
                indeg[d] += 1
        sources = [c for c in range(self.count) if indeg[c] == 0]
        order = []
        while sources:
            if len(sources) != 1:
                return None
            c = sources.pop()
            order.append(c)
            for d in self.dag_succ[c]:
                indeg[d] -= 1
                if indeg[d] == 0:
                    sources.append(d)
        if len(order) != self.count:
            return None  # unreachable for a valid DAG
        return order


def _legal(cond: Condensation) -> frozenset:
    """Legal points: those whose component reaches a live one."""
    reach_live = cond.can_reach_live()
    return frozenset(v for v, c in enumerate(cond.scc_of) if reach_live[c])


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
    out: set[int] = set()
    for layer in itertools.islice(_reach_layers(G, x), None if n is None else max(n, 0) + 1):
        out |= layer
    return frozenset(out)


def reach_chain(G: FiniteRelation, x: int, max_steps: int | None = None) -> list[frozenset]:
    """Cumulative reach sets until stabilization (inclusive of the repeat)."""
    limit = max_steps if max_steps is not None else G.space.size + 1
    chain = list(itertools.islice(_cumulative(_reach_layers(G, x)), max(limit, 0) + 1))
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
    """Union of all infinite-trajectory orbits from x: reachable legal points."""
    return reach(G, x) & _legal(Condensation(G))


# ---------------------------------------------------------------------------
# fast classification


def _trans1_exhaustive(G: FiniteRelation, x: int) -> bool:
    # Every infinite walk from x must visit every other vertex: deleting any
    # v != x must leave x without a reachable cycle.
    everything = G.space.all_points()
    return all(
        not _reaches_cycle(G, x, everything - {v})
        for v in range(G.space.size)
        if v != x
    )


def _dense_chain_source(cond: Condensation) -> int | None:
    """The component of the type-2 points under the exhaustive predicate, or None.

    Some walk visits every point exactly when the condensation is one chain
    (its topological order is unique, so consecutive components are adjacent)
    that ends in a live component; those walks start in its first component.
    """
    order = cond.unique_topological_order()
    if order is None or not cond.live[order[-1]]:
        return None
    return order[0]


def _trans2_bounded(
    G: FiniteRelation, x: int, dense: DensityPredicate, cond: Condensation, budget: int
) -> bool | None:
    """Search condensation paths for a dense member union ending live-reachable.

    Returns True/False when decided, None when the budget ran out.
    """
    reach_live = cond.can_reach_live()
    start = cond.scc_of[x]
    if not reach_live[start]:
        return False
    # quick refutation: nothing outside the reachable cone can ever be visited
    cone: set[int] = set()
    work = [start]
    while work:
        c = work.pop()
        if c in cone:
            continue
        cone.add(c)
        work.extend(cond.dag_succ[c])
    cone_members = frozenset(v for c in cone for v in cond.members[c])
    if not dense.dense(cone_members):
        return False

    seen = 0
    stack: list[tuple[int, frozenset]] = [(start, frozenset())]
    while stack:
        comp, union_before = stack.pop()
        seen += 1
        if seen > budget:
            return None
        union = union_before | cond.members[comp]
        if reach_live[comp] and dense.dense(union):
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
        if _reaches_cycle(G, v, S):
            return False
        for w in G.successors(v):
            work.append((w, S | {w}))
    return True


def _tagger(
    G: FiniteRelation, dense: DensityPredicate | None, search_budget: int
) -> Callable[[int], ClassificationTag]:
    """One analysis of G (its condensation, legal points and, under the
    exhaustive predicate, its type-2 component) and the per-point tagging."""
    if dense is None:
        dense = Exhaustive(G.space.size)
    cond = Condensation(G)
    legal = _legal(cond)
    exhaustive = isinstance(dense, Exhaustive)
    source = _dense_chain_source(cond) if exhaustive else None

    def tag(x: int) -> ClassificationTag:
        if x not in legal:
            return ClassificationTag(Verdict.ILLEGAL)
        if not dense.dense(reach(G, x) & legal):
            return ClassificationTag(Verdict.INTRANSITIVE)
        if exhaustive:
            t2: bool | None = cond.scc_of[x] == source
            t1: bool | None = t2 and _trans1_exhaustive(G, x)
        else:
            t2 = _trans2_bounded(G, x, dense, cond, search_budget)
            t1 = _trans1_bounded(G, x, dense, search_budget) if t2 else (False if t2 is False else None)
        unknown = {"certainty": Certainty.UNKNOWN_AT_HORIZON, "horizon": search_budget}
        if t1:
            return ClassificationTag(Verdict.TRANS1)
        if t2:
            return ClassificationTag(Verdict.TRANS2, **(unknown if t1 is None else {}))
        if t2 is None:
            return ClassificationTag(Verdict.TRANS3, **unknown)
        grade = reach_grade(G, x, dense)
        assert grade is not None, "reach stabilizes on finite spaces, so a dense omega-reach is dense at finite depth"
        return ClassificationTag(Verdict.TRANS3, reach_grade=grade)

    return tag


def classify_point(
    G: FiniteRelation,
    x: int,
    dense: DensityPredicate | None = None,
    search_budget: int = 20000,
) -> ClassificationTag:
    """Strongest verdict for x; weaker memberships follow from the chain.

    Under the exhaustive predicate every decision is polynomial and certified.
    Under an eps-net predicate the trans1/trans2 decisions are bounded searches
    and the tag may come back UNKNOWN_AT_HORIZON.
    """
    if not 0 <= x < G.space.size:
        raise ValueError("point outside the space")
    return _tagger(G, dense, search_budget)(x)


def classify_all(
    G: FiniteRelation,
    dense: DensityPredicate | None = None,
    search_budget: int = 20000,
) -> list[ClassificationTag]:
    """classify_point for every point in index order, from one analysis of G."""
    tag = _tagger(G, dense, search_budget)
    return [tag(x) for x in range(G.space.size)]


def oracle_classify(
    G: FiniteRelation,
    x: int,
    dense: DensityPredicate | None = None,
    state_cap: int = 500000,
) -> ClassificationTag:
    """Brute-force classification via (point, visited set) states; |X| <= 16."""
    n = G.space.size
    if n > 16:
        raise BudgetExceededError("oracle is limited to 16 points")
    if dense is None:
        dense = Exhaustive(n)
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

    def cycle_within(v: int, allowed: frozenset) -> bool:
        # iterative DFS detecting a reachable cycle inside `allowed`
        color: dict[int, int] = {}
        stack = [(v, iter([w for w in G.successors(v) if w in allowed]))]
        color[v] = 1
        while stack:
            u, it = stack[-1]
            advanced = False
            for w in it:
                c = color.get(w)
                if c == 1:
                    return True
                if c is None:
                    color[w] = 1
                    stack.append((w, iter([z for z in G.successors(w) if z in allowed])))
                    advanced = True
                    break
            if not advanced:
                color[u] = 2
                stack.pop()
        return False

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
        elif cycle_within(v, S):
            trans1 = False
        for w in G.successors(v):
            nxt = (w, S | {w})
            if nxt not in states:
                if len(states) >= state_cap:
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
    search_budget: int = 20000,
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
    minimum (or certified impossibility) from a horizon-limited bound.
    """

    size: int | None
    witnesses: tuple[Walk, ...]
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
    truncated = False

    def steps_left() -> int:
        return horizon - (len(walk) - 1)

    for idx, comp in enumerate(comp_path):
        allowed = cond.members[comp]
        pending = set(allowed) - set(walk)
        while pending:
            seg = _bfs_path(G, walk[-1], frozenset(pending), allowed)
            if seg is None:
                break  # single-member component without a loop: nothing to tour
            seg = seg[1:]
            if len(seg) > steps_left():
                truncated = True
                seg = seg[: steps_left()]
            walk.extend(seg)
            pending -= set(seg)
            if truncated:
                return walk, True
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
            seg = seg[1:] + [b]
            if len(seg) > steps_left():
                truncated = True
                seg = seg[: steps_left()]
            walk.extend(seg)
            if truncated:
                return walk, True
    return walk, False


def _min_cover(candidates: list[tuple[frozenset, tuple[int, ...]]], dense: DensityPredicate) -> tuple[int, list[int]] | None:
    """Exact minimum subset of candidate orbit sets with a dense union.

    Candidates are (orbit set, walk) pairs, already sorted by walk; ties are
    broken toward lexicographically smallest witness tuples because
    itertools.combinations scans in index order.  Dominated candidates (orbit
    a subset of an earlier candidate's orbit) are skipped, and mandatory
    candidates (sole owner of some point needed for density) are forced, so
    the combination search only runs on the small residual.
    """
    if not candidates:
        return None
    everything = frozenset().union(*(s for s, _ in candidates))
    if not dense.dense(everything):
        return None
    # forced picks: candidates owning a point exclusively, when dropping that
    # point breaks density
    forced: list[int] = []
    for i, (s, _) in enumerate(candidates):
        others = [t for j, (t, _) in enumerate(candidates) if j != i]
        exclusive = s - frozenset().union(*others) if others else s
        if exclusive and not dense.dense(everything - exclusive):
            forced.append(i)
    base = frozenset().union(*(candidates[i][0] for i in forced)) if forced else frozenset()
    if forced and dense.dense(base):
        return len(forced), forced
    rest = [i for i in range(len(candidates)) if i not in forced]
    for extra in range(1, len(rest) + 1):
        for combo in itertools.combinations(rest, extra):
            union = base.union(*(candidates[i][0] for i in combo))
            if dense.dense(union):
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
        if len(walks) > G.space.size:
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
    if dense is None:
        dense = Exhaustive(G.space.size)
    cond = Condensation(G)
    if x not in _legal(cond):
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

    achieved = _min_cover(deduped, dense)
    if achieved is None:
        if not dense.dense(frozenset().union(*ideal)):
            # even unbounded walks cannot cover: certified impossible
            return BranchCoverResult(None, (), horizon, Certainty.CERTIFIED)
        return BranchCoverResult(None, (), horizon, Certainty.UNKNOWN_AT_HORIZON)
    size, picked = achieved
    witnesses = tuple(Walk(deduped[i][1], G) for i in picked)
    if not any_truncated:
        return BranchCoverResult(size, witnesses, horizon, Certainty.CERTIFIED)
    lower = _min_cover(
        [(s, (i,)) for i, s in enumerate(ideal)], dense
    )
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
    if k not in (1, 2, 3):
        raise ValueError("k must be 1, 2, or 3")
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


def system_transitive(G: FiniteRelation, plus: bool = False) -> bool:
    """Open-set transitivity on a finite discrete space.

    Singletons generate the topology, so the quantifier over open pairs
    reduces to positive-length reachability between points; the plus variant
    also demands it for u = v.
    """
    n = G.space.size
    for u in range(n):
        pos = _positive_reach(G, u)
        for v in range(n):
            if u == v and not plus:
                continue
            if v not in pos:
                return False
    return True


@dataclass(frozen=True)
class CharacterizationReport:
    statements: tuple[bool, bool, bool, bool, bool, bool, bool, bool]
    group1_consistent: bool
    group2_consistent: bool
    matches_transitive: bool
    matches_plus_transitive: bool
    inverse_invariant: bool


def characterization_suite(G: FiniteRelation) -> CharacterizationReport:
    """Evaluate the eight open-set transitivity statements independently.

    Statements quantify over singleton open sets: pair/forward (1), positive
    pair/forward (2), dense-union forward from step 0 (3) and from step 1 (4),
    and the same four for the inverse relation (5-8).
    """
    n = G.space.size
    H = inverse_relation(G)

    def pairwise(R: FiniteRelation, positive_only: bool) -> bool:
        for u in range(n):
            pos = _positive_reach(R, u)
            for v in range(n):
                if u == v and not positive_only:
                    continue  # n = 0 witnesses the pair
                if v not in pos:
                    return False
        return True

    def dense_union(R: FiniteRelation, include_self: bool) -> bool:
        full = frozenset(range(n))
        for u in range(n):
            union = _positive_reach(R, u)
            if include_self:
                union |= {u}
            if union != full:
                return False
        return True

    s1 = pairwise(G, positive_only=False)
    s2 = pairwise(G, positive_only=True)
    s3 = dense_union(G, include_self=True)
    s4 = dense_union(G, include_self=False)
    s5 = pairwise(H, positive_only=False)
    s6 = pairwise(H, positive_only=True)
    s7 = dense_union(H, include_self=True)
    s8 = dense_union(H, include_self=False)
    statements = (s1, s2, s3, s4, s5, s6, s7, s8)
    return CharacterizationReport(
        statements=statements,
        group1_consistent=(s1 == s3 == s5 == s7),
        group2_consistent=(s2 == s4 == s6 == s8),
        matches_transitive=(s1 == system_transitive(G, plus=False)),
        matches_plus_transitive=(s2 == system_transitive(G, plus=True)),
        inverse_invariant=(
            system_transitive(G, plus=False) == system_transitive(H, plus=False)
        ),
    )


def projection_check(G: FiniteRelation) -> tuple[frozenset, frozenset]:
    """(edge sources, edge targets)."""
    p1 = frozenset(a for a, _ in G.edges)
    p2 = frozenset(b for _, b in G.edges)
    return p1, p2
