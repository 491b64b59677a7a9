"""The one-pass condensation against the code it replaced.

`Condensation.__init__` reads the successor lists and takes each
component's DAG successors, liveness and reach flags as Tarjan emits it.
`ref_condensation` below is the construction it replaced: Tarjan with an
on-stack array, then a pass over the edge set for the DAG and liveness,
then an ascending pass for the reach flags.  On seeded relations every
field must be equal, and `repr(legal)` too: a branch summary's cover is
`reached & legal`, whose print order follows how `legal` was built.
"""

import random
from types import SimpleNamespace

import pytest

from conftest import make_random_relation
from crdyn.classify import Condensation
from crdyn.finite import FiniteRelation, FiniteSpace

FIELDS = (
    "scc_of", "members", "dag_succ", "live", "count",
    "reach_live", "reach_dead", "legal", "chain_source", "source",
)


def ref_condensation(G):
    n = G.space.size
    index = [None] * n
    low = [0] * n
    on_stack = [False] * n
    stack = []
    comp_of = [None] * n
    comps = []
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
    ref = SimpleNamespace(count=len(comps), scc_of=tuple(comp_of))
    ref.members = tuple(frozenset(c) for c in comps)
    dag = [set() for _ in comps]
    live = [False] * len(comps)
    for a, b in G.edges:
        ca, cb = comp_of[a], comp_of[b]
        if ca == cb:
            live[ca] = True
        else:
            dag[ca].add(cb)
    ref.dag_succ = tuple(frozenset(s) for s in dag)
    ref.live = tuple(live)
    reach_live, reach_dead = [], []
    for c, succ in enumerate(ref.dag_succ):
        reach_live.append(live[c] or any(reach_live[d] for d in succ))
        reach_dead.append(not (live[c] or succ) or any(reach_dead[d] for d in succ))
    ref.reach_live, ref.reach_dead = reach_live, reach_dead
    ref.legal = frozenset(v for v, c in enumerate(ref.scc_of) if reach_live[c])
    top = ref.count - 1
    chain = all(c - 1 in ref.dag_succ[c] for c in range(1, ref.count))
    ref.chain_source = top if chain and live[0] else None
    sole = len(set().union(*ref.dag_succ)) == top and len(ref.legal) == n
    ref.source = top if sole else None
    return ref


def relation(n, edges):
    return FiniteRelation(FiniteSpace([str(i) for i in range(n)]), edges)


def random_digraph(rng, n, density):
    edges = {(a, b) for a in range(n) for b in range(n) if rng.random() < density}
    return relation(n, edges or {(rng.randrange(n), rng.randrange(n))})


def assert_same(G):
    got, want = Condensation(G), ref_condensation(G)
    for field in FIELDS:
        assert getattr(got, field) == getattr(want, field), (field, G)
    assert repr(got.legal) == repr(want.legal), G


def test_random_relations_match_the_reference():
    rng = random.Random(3001)
    for _ in range(1500):
        assert_same(make_random_relation(rng, rng.choice([7, 16, 40])))


def test_random_digraphs_match_the_reference():
    rng = random.Random(3002)
    densities = (0.01, 0.02, 0.05, 0.1, 0.2, 0.4)
    for _ in range(150):
        n = rng.choice([1, 2, 3, rng.randint(4, 60), rng.randint(61, 200)])
        assert_same(random_digraph(rng, n, rng.choice(densities)))


@pytest.mark.parametrize("n", [1, 2, 3, 17, 64, 150])
def test_shapes_match_the_reference(n):
    rng = random.Random(3003 + n)
    order = rng.sample(range(n), n)  # points labelled off the walk order
    shapes = {
        "path": [(order[i], order[i + 1]) for i in range(n - 1)] + [(order[-1], order[-1])],
        "dead-end path": [(order[i], order[i + 1]) for i in range(n - 1)] or [(0, 0)],
        "cycle": [(order[i], order[(i + 1) % n]) for i in range(n)],
        "singleton DAG": [(a, b) for a in range(n) for b in range(a + 1, n) if rng.random() < 0.3]
        or [(0, 0)],
        "one component": [(order[i], order[(i + 1) % n]) for i in range(n)]
        + [(rng.randrange(n), rng.randrange(n)) for _ in range(2 * n)],
    }
    for name, edges in shapes.items():
        assert_same(relation(n, edges))


def test_long_path_and_cycle_build_without_recursion():
    n = 100_000
    path = Condensation(relation(n, [(i, i + 1) for i in range(n - 1)] + [(n - 1, n - 1)]))
    assert path.count == n and path.scc_of[0] == n - 1 and path.live == (True,) + (False,) * (n - 1)
    assert path.chain_source == n - 1 and path.source == n - 1 and len(path.legal) == n
    ring = Condensation(relation(n, [(i, (i + 1) % n) for i in range(n)]))
    assert ring.count == 1 and ring.members[0] == frozenset(range(n))
    assert ring.chain_source == ring.source == 0 and ring.reach_dead == [False]
