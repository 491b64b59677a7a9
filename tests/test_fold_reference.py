"""The folded finite and symbolic routes against the code they replaced.

The references below are classify_point, reach_chain, reach_grade, the
finite-branch statistics and the four symbolic frontier-chase loops as they
were before legality, liveness and the type-2 chain test came from one
condensation per relation and before the chase loops shared one generator.
They are kept here as test references: the folded routes must give the same
tags, chains, grades, regions and reports, and the symbolic ones must make
the same number of sym_image and region_difference_closure calls, except the
grid check, whose chases share the check's one step memo and so make no more.
"""

import math
import random
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import interval_relations, make_random_relation
from crdyn import gallery, symbolic
from crdyn.classify import (
    Certainty,
    ClassificationTag,
    Condensation,
    Verdict,
    _trans1_bounded,
    classify_all,
    classify_point,
    oracle_classify,
    reach_chain,
    reach_grade,
)
from crdyn.density import EpsNet, Exhaustive
from crdyn.finite import FiniteRelation, FiniteSpace
from crdyn.io import parse_document
from crdyn.region import Region1D, Space1D, grid_cells
from crdyn.symbolic import (
    GridTransitivityReport,
    SymbolicRelation,
    forward_union,
    grid_transitivity_check,
    sym_reach,
    sym_reach_chain,
)
from crdyn.tree import branch_summary
from region_helpers import intersects_open_interval

DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"

# ---------------------------------------------------------------------------
# finite references


def ref_reaches_cycle(G, start, removed=frozenset()):
    if start in removed:
        return False
    color = {start: 1}
    stack = [(start, iter(G.successors(start)))]
    while stack:
        v, it = stack[-1]
        advanced = False
        for w in it:
            if w in removed:
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


def ref_reach(G, x, n=None):
    current = frozenset([x])
    frontier = current
    steps = 0
    while True:
        if n is not None and steps >= n:
            return current
        frontier = frozenset(b for a in frontier for b in G.successors(a)) - current
        if not frontier:
            return current
        current |= frontier
        steps += 1


def ref_reach_chain(G, x, max_steps=None):
    limit = max_steps if max_steps is not None else G.space.size + 1
    chain = [ref_reach(G, x, 0)]
    for k in range(1, limit + 1):
        nxt = ref_reach(G, x, k)
        chain.append(nxt)
        if nxt == chain[-2]:
            break
    return chain


def ref_reach_grade(G, x, dense):
    prev = ref_reach(G, x, 0)
    n = 0
    while True:
        n += 1
        cur = ref_reach(G, x, n)
        if dense.dense(cur):
            return n
        if cur == prev:
            return None
        prev = cur


def ref_can_reach_live(cond):
    out = [False] * cond.count
    changed = True
    while changed:
        changed = False
        for c in range(cond.count):
            val = cond.live[c] or any(out[d] for d in cond.dag_succ[c])
            if val and not out[c]:
                out[c] = True
                changed = True
    return tuple(out)


def ref_unique_topological_order(cond):
    indeg = [0] * cond.count
    for c in range(cond.count):
        for d in cond.dag_succ[c]:
            indeg[d] += 1
    sources = [c for c in range(cond.count) if indeg[c] == 0]
    order = []
    while sources:
        if len(sources) != 1:
            return None
        c = sources.pop()
        order.append(c)
        for d in cond.dag_succ[c]:
            indeg[d] -= 1
            if indeg[d] == 0:
                sources.append(d)
    return order


def ref_trans2_exhaustive(x, cond):
    order = ref_unique_topological_order(cond)
    if order is None or order[0] != cond.scc_of[x]:
        return False
    for c, d in zip(order, order[1:]):
        if d not in cond.dag_succ[c]:
            return False
    return cond.live[order[-1]]


def ref_trans2_bounded(x, dense, cond, budget):
    reach_live = ref_can_reach_live(cond)
    start = cond.scc_of[x]
    if not reach_live[start]:
        return False
    cone, work = set(), [start]
    while work:
        c = work.pop()
        if c not in cone:
            cone.add(c)
            work.extend(cond.dag_succ[c])
    if not dense.dense(frozenset(v for c in cone for v in cond.members[c])):
        return False
    seen = 0
    stack = [(start, frozenset())]
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


def ref_trans1_exhaustive(G, x):
    return all(
        not ref_reaches_cycle(G, x, removed=frozenset([v]))
        for v in range(G.space.size)
        if v != x
    )


def ref_trans1_bounded(G, x, dense, budget):
    def cycle_within(v, allowed):
        color = {v: 1}
        stack = [(v, iter(G.successors(v)))]
        while stack:
            u, it = stack[-1]
            advanced = False
            for w in it:
                if w not in allowed:
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
                color[u] = 2
                stack.pop()
        return False

    seen_states = set()
    work = [(x, frozenset([x]))]
    while work:
        if len(seen_states) > budget:
            return None
        v, S = work.pop()
        if (v, S) in seen_states:
            continue
        seen_states.add((v, S))
        if dense.dense(S):
            continue
        if cycle_within(v, S):
            return False
        for w in G.successors(v):
            work.append((w, S | {w}))
    return True


def ref_trans1_states(G, x, dense):
    """How many states the reference visits without a budget: one density test each."""
    tested = []

    class Counted:
        def dense(self, points):
            tested.append(points)
            return dense.dense(points)

    ref_trans1_bounded(G, x, Counted(), math.inf)
    return len(tested)


def ref_classify_point(G, x, dense=None, search_budget=20000):
    if dense is None:
        dense = Exhaustive(G.space.size)
    legal = frozenset(v for v in range(G.space.size) if ref_reaches_cycle(G, v))
    if x not in legal:
        return ClassificationTag(Verdict.ILLEGAL)
    if not dense.dense(ref_reach(G, x) & legal):
        return ClassificationTag(Verdict.INTRANSITIVE)
    cond = Condensation(G)
    if isinstance(dense, Exhaustive):
        t2 = ref_trans2_exhaustive(x, cond)
        t1 = ref_trans1_exhaustive(G, x) if t2 else False
    else:
        t2 = ref_trans2_bounded(x, dense, cond, search_budget)
        t1 = ref_trans1_bounded(G, x, dense, search_budget) if t2 else (False if t2 is False else None)
    unknown = {"certainty": Certainty.UNKNOWN_AT_HORIZON, "horizon": search_budget}
    if t1:
        return ClassificationTag(Verdict.TRANS1)
    if t2:
        return ClassificationTag(Verdict.TRANS2, **(unknown if t1 is None else {}))
    if t2 is None:
        return ClassificationTag(Verdict.TRANS3, **unknown)
    return ClassificationTag(Verdict.TRANS3, reach_grade=ref_reach_grade(G, x, dense))


def ref_finite_branch_stats(G, x):
    reachable = ref_reach(G, x)
    dead = frozenset(v for v in reachable if not G.successors(v))
    if not dead:
        return 0, None
    back = set(dead)
    changed = True
    while changed:
        changed = False
        for v in reachable:
            if v not in back and any(w in back for w in G.successors(v)):
                back.add(v)
                changed = True
    relevant = back & set(reachable)
    order, state = [], {}
    for start in sorted(relevant):
        if start in state:
            continue
        stack = [(start, iter([w for w in G.successors(start) if w in relevant]))]
        state[start] = 1
        while stack:
            v, it = stack[-1]
            advanced = False
            for w in it:
                s = state.get(w)
                if s == 1:
                    return None, None
                if s is None:
                    state[w] = 1
                    stack.append((w, iter([z for z in G.successors(w) if z in relevant])))
                    advanced = True
                    break
            if not advanced:
                state[v] = 2
                order.append(v)
                stack.pop()
    counts = {v: (1 if v in dead else 0) for v in relevant}
    longest = {v: 0 for v in relevant}
    for v in order:
        for w in G.successors(v):
            if w in relevant:
                counts[v] += counts[w]
                longest[v] = max(longest[v], longest[w] + 1)
    return counts[x], longest[x]


# ---------------------------------------------------------------------------
# finite inputs


def relation(n, edges):
    return FiniteRelation(FiniteSpace([str(i) for i in range(n)]), edges)


def random_graph(rng, n):
    """Sparse random graph with a few self-loops, like the benchmark's generated inputs."""
    edges = {(a, rng.randrange(n)) for a in range(n) for _ in range(rng.choice([0, 1, 1, 2]))}
    edges |= {(a, a) for a in rng.sample(range(n), rng.randint(0, 3))}
    edges.add((rng.randrange(n), rng.randrange(n)))
    return relation(n, edges)


def path(n):
    return relation(n, [(i, i + 1) for i in range(n - 1)] + [(n - 1, n - 1)])


def cycle(n):
    return relation(n, [(i, (i + 1) % n) for i in range(n)])


def unit_net(n, eps):
    cells = [(F(k, n), F(k + 1, n)) for k in range(n)]
    return EpsNet(Space1D(intervals=[(0, 1)]), cells, eps)


def box_documents():
    return sorted(p.name for p in DATA.glob("*-boxes*.json"))


def oracle_sized(rng):
    """A relation of up to 12 points; those above 8 points are sparse, which
    keeps the oracle's (point, visited set) state space small."""
    n = rng.randint(1, 12)
    if n <= 8:
        return make_random_relation(rng, max_points=n)
    edges = {(a, rng.randrange(n)) for a in range(n) for _ in range(rng.choice([0, 1, 1, 2, 2, 3]))}
    edges.add((rng.randrange(n), rng.randrange(n)))
    return relation(n, edges)


class TestFiniteAgainstOracle:
    def test_exhaustive_tags_equal_oracle(self):
        rng = random.Random(41)
        for _ in range(800):
            G = oracle_sized(rng)
            assert classify_all(G) == [oracle_classify(G, x) for x in range(G.space.size)], G

    def test_eps_net_tags_equal_oracle(self):
        rng = random.Random(42)
        for _ in range(400):
            G = oracle_sized(rng)
            n = G.space.size
            net = unit_net(n, F(1, rng.choice([2, 3, n, 2 * n])))
            assert classify_all(G, net) == [oracle_classify(G, x, net) for x in range(n)], (G, net)


class TestFiniteAgainstReference:
    def test_random_graphs(self):
        rng = random.Random(43)
        for _ in range(12):
            G = random_graph(rng, rng.randint(30, 150))
            assert classify_all(G) == [ref_classify_point(G, x) for x in range(G.space.size)], G

    def test_random_graphs_under_nets(self):
        rng = random.Random(44)
        for _ in range(6):
            n = rng.randint(30, 60)
            G, net = random_graph(rng, n), unit_net(n, F(1, rng.choice([4, 8, n])))
            assert classify_all(G, net) == [ref_classify_point(G, x, net) for x in range(n)], G

    @pytest.mark.parametrize("n", [30, 75, 150])
    def test_paths_and_cycles(self, n):
        for G in (path(n), cycle(n // 3)):
            assert classify_all(G) == [ref_classify_point(G, x) for x in range(G.space.size)]

    @pytest.mark.parametrize("name", box_documents())
    def test_box_documents(self, name):
        G, net = parse_document((DATA / name).read_text(encoding="utf-8"))
        for dense in (None, net):
            want = [ref_classify_point(G, x, dense) for x in range(G.space.size)]
            assert classify_all(G, dense) == want

    def test_classify_all_is_classify_point_per_point(self):
        rng = random.Random(45)
        for _ in range(150):
            G = make_random_relation(rng, max_points=10)
            n = G.space.size
            for dense in (None, unit_net(n, F(1, 2 * n))):
                assert classify_all(G, dense) == [classify_point(G, x, dense) for x in range(n)]

    def test_budget_limited_tags(self):
        # every tag the reference certifies is kept; where the reference ran
        # out of budget, the lasso fallback may certify the oracle's tag
        G = relation(4, [(0, 1), (1, 2), (2, 3), (3, 3)])
        net = unit_net(4, F(1, 4))
        for budget in (1, 2, 3, 50):
            for x, got in enumerate(classify_all(G, net, budget)):
                want = ref_classify_point(G, x, net, budget)
                if want.certainty is Certainty.CERTIFIED or got.certainty is not Certainty.CERTIFIED:
                    assert got == want, (budget, x)
                else:
                    assert got == oracle_classify(G, x, net), (budget, x)

    def test_lasso_search_at_every_budget(self):
        # equal at every budget up to the reference's state count: the two
        # searches give up at the same state, not only reach the same verdict
        rng = random.Random(49)
        cases = []
        for name in box_documents():
            G, net = parse_document((DATA / name).read_text(encoding="utf-8"))
            cases += [(G, net), (G, net.with_eps(net.eps / 4))]
        for _ in range(40):
            n = rng.randint(6, 14)
            G = random_graph(rng, n)
            cases += [(G, unit_net(n, F(1, 2 * n))), (G, unit_net(n, F(1, 4)))]
        verdicts = set()
        for G, net in cases:
            for x in range(G.space.size):
                for budget in range(ref_trans1_states(G, x, net) + 1):
                    want = ref_trans1_bounded(G, x, net, budget)
                    assert _trans1_bounded(G, x, net, budget) == want, (G, net, x, budget)
                    verdicts.add(want)
        assert verdicts == {True, False, None}

    def test_reach_chain_and_grade(self):
        rng = random.Random(46)
        for _ in range(200):
            G = make_random_relation(rng, max_points=10)
            n = G.space.size
            dense_options = (Exhaustive(n), unit_net(n, F(1, 2 * n)), unit_net(n, F(1, 2)))
            for x in range(n):
                for steps in (None, 0, 1, 2, 3, 5, 20):
                    assert reach_chain(G, x, steps) == ref_reach_chain(G, x, steps)
                # a negative count is refused (the reference answered it as 0)
                with pytest.raises(ValueError, match="^max_steps must be non-negative$"):
                    reach_chain(G, x, -1)
                for dense in dense_options:
                    assert reach_grade(G, x, dense) == ref_reach_grade(G, x, dense)

    def test_branch_statistics(self):
        rng = random.Random(47)
        graphs = [make_random_relation(rng, max_points=9) for _ in range(200)]
        graphs += [random_graph(rng, 40) for _ in range(5)]
        for G in graphs:
            for x in range(G.space.size):
                s = branch_summary(G, x)
                count, longest = ref_finite_branch_stats(G, x)
                assert (s.finite_branch_count, s.max_finite_branch_length) == (count, longest)
                assert s.is_legal == ref_reaches_cycle(G, x)


# ---------------------------------------------------------------------------
# symbolic references: the four chase loops, calling the kernel through the
# module so that the counters below see their calls too


def ref_sym_reach(R, start, max_iter):
    acc = frontier = start
    for _ in range(max_iter):
        nxt = acc.union(symbolic.sym_image(R, frontier))
        if nxt == acc:
            return acc, True
        frontier = symbolic.region_difference_closure(nxt, acc)
        acc = nxt
    return acc, acc.union(symbolic.sym_image(R, frontier)) == acc


def ref_sym_reach_chain(R, start, max_iter):
    acc = frontier = start
    chain = [acc]
    for _ in range(max_iter):
        nxt = acc.union(symbolic.sym_image(R, frontier))
        chain.append(nxt)
        if nxt == acc:
            break
        frontier = symbolic.region_difference_closure(nxt, acc)
        acc = nxt
    return chain


def ref_forward_union(R, U, horizon, include_start):
    if include_start:
        acc, frontier, start = U, U, 0
    else:
        acc = symbolic.sym_image(R, U)
        frontier, start = acc, 1
    for _ in range(start, horizon):
        nxt = acc.union(symbolic.sym_image(R, frontier))
        if nxt == acc:
            break
        frontier = symbolic.region_difference_closure(nxt, acc)
        acc = nxt
    return acc


def ref_grid_transitivity_check(R, delta, horizon, positive_only=False):
    cells = grid_cells(R.space, delta)
    misses = []
    max_steps = 0
    for ui, (ulo, uhi) in enumerate(cells):
        pending = set(range(len(cells)))
        acc = frontier = Region1D.interval(ulo, uhi)
        steps = 0
        if positive_only:
            acc = frontier = symbolic.sym_image(R, frontier)
            steps = 1

        def mark(region):
            for vi in list(pending):
                vlo, vhi = cells[vi]
                if (region.contains_point(vlo) if vlo == vhi
                        else intersects_open_interval(region, vlo, vhi)):
                    pending.discard(vi)

        mark(acc)
        while pending and steps < horizon:
            nxt = acc.union(symbolic.sym_image(R, frontier))
            if nxt == acc:
                break
            frontier = symbolic.region_difference_closure(nxt, acc)
            acc = nxt
            steps += 1
            mark(frontier)
        misses.extend((ui, vi) for vi in sorted(pending))
        max_steps = max(max_steps, steps)
    return GridTransitivityReport(not misses, max_steps, tuple(misses), tuple(cells))


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts of sym_image and region_difference_closure calls, reset on read."""
    counts = {"sym_image": 0, "region_difference_closure": 0}
    for name in counts:
        original = getattr(symbolic, name)

        def counted(*args, _name=name, _original=original):
            counts[_name] += 1
            return _original(*args)

        monkeypatch.setattr(symbolic, name, counted)

    def take():
        out = dict(counts)
        counts.update(dict.fromkeys(counts, 0))
        return out

    return take


def start_regions(R):
    lo, hi = R.space.intervals[0] if R.space.intervals else (R.space.isolated[0],) * 2
    regions = [Region1D.point(lo), Region1D.point((lo + hi) / 2), Region1D.interval(lo, (3 * lo + hi) / 4)]
    regions += [Region1D.point(p) for p in R.space.isolated]
    return regions


HORIZONS = (0, 1, 2, 8)

# The references chase from G(U) even at horizon 0 when the chase starts at
# n = 1; the corrected horizon-0 answers for that mode are pinned in
# test_symbolic.py::TestHorizonZero instead.


@pytest.mark.parametrize("name,R", interval_relations(), ids=lambda v: v if isinstance(v, str) else "")
class TestSymbolicChaseAgainstReference:
    def test_reach_and_chain(self, name, R, kernel_calls):
        for start in start_regions(R):
            for n in HORIZONS:
                want = ref_sym_reach(R, start, n), kernel_calls()
                assert (sym_reach(R, start, n), kernel_calls()) == want, (name, start, n)
                want = ref_sym_reach_chain(R, start, n), kernel_calls()
                assert (sym_reach_chain(R, start, n), kernel_calls()) == want, (name, start, n)

    def test_forward_union(self, name, R, kernel_calls):
        for start in start_regions(R):
            for n in HORIZONS:
                for include_start in (True, False):
                    if n == 0 and not include_start:
                        continue
                    want = ref_forward_union(R, start, n, include_start), kernel_calls()
                    got = forward_union(R, start, n, include_start), kernel_calls()
                    assert got == want, (name, start, n, include_start)

    def test_grid_check(self, name, R, kernel_calls):
        for n in HORIZONS:
            for positive_only in (False, True):
                if n == 0 and positive_only:
                    continue
                want, ref_calls = ref_grid_transitivity_check(R, F(1, 4), n, positive_only), kernel_calls()
                got, calls = grid_transitivity_check(R, F(1, 4), n, positive_only), kernel_calls()
                assert got == want, (name, n, positive_only)
                # the check's step memo images each distinct chase state once
                assert all(calls[k] <= ref_calls[k] for k in calls), (name, n, positive_only, calls, ref_calls)


class TestGridCheckStepMemo:
    def test_exhura_images_each_distinct_state_once(self, kernel_calls):
        R = gallery.build("exhura").relation
        want = ref_grid_transitivity_check(R, F(1, 16), 64)
        assert kernel_calls()["sym_image"] == 270
        assert grid_transitivity_check(R, F(1, 16), 64) == want
        assert kernel_calls()["sym_image"] == 93

    def test_no_memo_outlives_its_check(self, kernel_calls):
        R = gallery.build("exxi").relation
        counts = []
        for _ in range(2):
            grid_transitivity_check(R, F(1, 8), 12)
            counts.append(kernel_calls()["sym_image"])
        assert counts[0] == counts[1] > 0
