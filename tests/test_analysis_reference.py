"""The cached per-relation analysis against the code it replaced.

The references below are the tagger and branch_summary as they were before
every finite decision read one analysis kept on the relation: the tagger
built a condensation per call and ran a reach search per point, and a point
was type 1 when deleting any other vertex left it without a reachable cycle
(the vertex-deletion test, the bounded searches and the inputs come from
test_fold_reference).  The structural rules must give the same tags and
branch summaries, and the type-1 rule must agree with the brute-force oracle.
"""

import random
from fractions import Fraction as F

import pytest

from conftest import make_random_relation
from crdyn import gallery
from crdyn.classify import (
    Certainty,
    ClassificationTag,
    Condensation,
    Verdict,
    _analysis,
    classify_all,
    classify_point,
    legal_by_cycle_reach,
    oracle_classify,
    orbit_union,
    reach,
    reach_grade,
)
from crdyn.density import EpsNet, Exhaustive
from crdyn.finite import FiniteRelation
from crdyn.io import parse_document
from crdyn.region import Space1D
from crdyn.symbolic import discretize
from crdyn.tree import BranchSummary, branch_summary
from test_fold_reference import (
    DATA,
    box_documents,
    cycle,
    path,
    random_graph,
    ref_can_reach_live,
    ref_finite_branch_stats,
    ref_trans1_bounded,
    ref_trans1_exhaustive,
    ref_trans2_bounded,
    ref_unique_topological_order,
    relation,
)

# ---------------------------------------------------------------------------
# references: the parent tagger and branch_summary, over the vertex-deletion
# type-1 test and the bounded searches with their pre-checks


def ref_legal(cond):
    live = ref_can_reach_live(cond)
    return frozenset(v for v, c in enumerate(cond.scc_of) if live[c])


def ref_chain_source(cond):
    order = ref_unique_topological_order(cond)
    if order is None or not cond.live[order[-1]]:
        return None
    return order[0]


def ref_classify_point(G, x, dense=None, search_budget=20000):
    if dense is None:
        dense = Exhaustive(G.space.size)
    cond = Condensation(G)
    legal = ref_legal(cond)
    if x not in legal:
        return ClassificationTag(Verdict.ILLEGAL)
    if not dense.dense(reach(G, x) & legal):
        return ClassificationTag(Verdict.INTRANSITIVE)
    if isinstance(dense, Exhaustive):
        t2 = cond.scc_of[x] == ref_chain_source(cond)
        t1 = t2 and ref_trans1_exhaustive(G, x)
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
    return ClassificationTag(Verdict.TRANS3, reach_grade=reach_grade(G, x, dense))


def ref_branch_summary(G, x, dense=None, search_budget=20000):
    if dense is None:
        dense = Exhaustive(G.space.size)
    cond = Condensation(G)
    legal = ref_legal(cond)
    is_legal = x in legal
    cover = reach(G, x) & legal
    count, max_len = ref_finite_branch_stats(G, x)
    cover_dense = bool(cover) and dense.dense(cover)
    if not is_legal:
        some_dense = all_dense = False
    elif isinstance(dense, Exhaustive):
        some_dense = cond.scc_of[x] == ref_chain_source(cond)
        all_dense = some_dense and ref_trans1_exhaustive(G, x)
    else:
        some_dense = ref_trans2_bounded(x, dense, cond, search_budget)
        if some_dense is False:
            all_dense = False
        else:
            all_dense = ref_trans1_bounded(G, x, dense, search_budget)
            if all_dense and some_dense is None:
                some_dense = True
    return BranchSummary(
        root=x,
        is_legal=is_legal,
        finite_branch_count=count,
        max_finite_branch_length=max_len,
        height=None if is_legal else (max_len or 0),
        infinite_branch_cover=cover,
        all_infinite_branches_dense=all_dense,
        exists_infinite_dense_branch=some_dense,
        cover_dense=cover_dense,
        intransitive=is_legal and not cover_dense,
    )


# ---------------------------------------------------------------------------
# inputs


def chain_into_sink(rng):
    """A path of head points into a sink component of up to 7 points in all.

    The sink is a cycle with a few chords; the head may get a skip edge or a
    self-loop, and its last point one or more entry edges.  These are the
    shapes where type 1 is decided, which uniform random relations rarely hit.
    """
    n = rng.randint(1, 7)
    k = rng.randint(0, n - 1)
    sink = list(range(k, n))
    rng.shuffle(sink)
    edges = {(i, i + 1) for i in range(k - 1)}
    edges |= {(sink[i], sink[(i + 1) % len(sink)]) for i in range(len(sink))}
    for _ in range(rng.choice([0, 0, 1, 2, 3])):
        edges.add((rng.choice(sink), rng.choice(sink)))
    if k:
        edges |= {(k - 1, e) for e in rng.sample(sink, rng.randint(1, min(2, len(sink))))}
    if k > 1 and rng.random() < 0.2:
        a = rng.randrange(k - 1)
        edges.add((a, rng.randrange(a + 2, n)))
    if k and rng.random() < 0.15:
        a = rng.randrange(k)
        edges.add((a, a))
    return relation(n, edges)


def verdicts(G, dense=None):
    return [tag.verdict for tag in classify_all(G, dense)]


T1, T2 = Verdict.TRANS1, Verdict.TRANS2

# ---------------------------------------------------------------------------


class TestTypeOneRule:
    def test_equals_oracle_on_small_graphs(self):
        rng = random.Random(71)
        seen = {v: 0 for v in Verdict}
        for i in range(6000):
            G = make_random_relation(rng, max_points=7) if i % 2 else chain_into_sink(rng)
            tags = classify_all(G)
            assert tags == [oracle_classify(G, x) for x in range(G.space.size)], G
            for tag in tags:
                seen[tag.verdict] += 1
        # both outcomes of the type-1 rule occur often
        assert min(seen[T1], seen[T2]) > 1000, seen

    def test_strongly_connected_but_not_a_cycle(self):
        # x -> a -> b -> a, b -> x: every walk from x tours all three points,
        # but a and b can circle between each other forever
        G = relation(3, [(0, 1), (1, 2), (2, 1), (2, 0)])
        assert verdicts(G) == [T1, T2, T2]
        assert classify_all(G) == [oracle_classify(G, x) for x in range(3)]

    def test_path_with_one_skip_edge(self):
        G = relation(4, [(0, 1), (1, 2), (2, 3), (3, 3), (0, 2)])
        assert verdicts(G) == [T2, Verdict.INTRANSITIVE, Verdict.INTRANSITIVE, Verdict.INTRANSITIVE]
        assert verdicts(path(4)) == [T1] + [Verdict.INTRANSITIVE] * 3

    def test_chain_whose_head_has_a_self_loop(self):
        G = relation(2, [(0, 0), (0, 1), (1, 1)])
        assert verdicts(G) == [T2, Verdict.INTRANSITIVE]
        assert classify_all(G) == [oracle_classify(G, x) for x in range(2)]

    def test_sink_with_two_entry_points(self):
        # h enters the sink {x, a, b} of the first case at x, at a, or at both
        sink = [(1, 2), (2, 3), (3, 2), (3, 1)]
        for entries, want in (([1], T1), ([2], T2), ([1, 2], T2)):
            G = relation(4, sink + [(0, e) for e in entries])
            assert verdicts(G)[0] is want, entries
            assert classify_all(G) == [oracle_classify(G, x) for x in range(4)]
        # a simple-cycle sink is toured from any entry point
        G = relation(4, [(0, 1), (0, 3), (1, 2), (2, 3), (3, 1)])
        assert verdicts(G)[0] is T1


class TestAgainstReference:
    def test_random_graphs(self):
        rng = random.Random(72)
        for _ in range(12):
            G = random_graph(rng, rng.randint(30, 150))
            n = G.space.size
            assert classify_all(G) == [ref_classify_point(G, x) for x in range(n)], G
            assert [branch_summary(G, x) for x in range(n)] == [ref_branch_summary(G, x) for x in range(n)]

    @pytest.mark.parametrize("n", [30, 75, 150])
    def test_paths_and_cycles(self, n):
        for G in (path(n), cycle(n)):
            assert classify_all(G) == [ref_classify_point(G, x) for x in range(n)]
            assert [branch_summary(G, x) for x in range(n)] == [ref_branch_summary(G, x) for x in range(n)]

    @pytest.mark.parametrize("name", box_documents())
    def test_box_documents(self, name):
        G, net = parse_document((DATA / name).read_text(encoding="utf-8"))
        n = G.space.size
        for dense in (None, net):
            assert classify_all(G, dense) == [ref_classify_point(G, x, dense) for x in range(n)]
            got = [branch_summary(G, x, dense) for x in range(n)]
            assert got == [ref_branch_summary(G, x, dense) for x in range(n)]
            assert list(map(repr, got)) == [repr(ref_branch_summary(G, x, dense)) for x in range(n)]

    def test_budget_limited_net_with_a_sparse_cover(self):
        # a loops and steps to the dead end b: the cone {a, b} is dense, the
        # cover {a} is not.  The reference searched the cone and ran out of a
        # one-node budget; every infinite walk stays in the cover, so no walk
        # is dense and the summary now says so.
        G = relation(2, [(0, 0), (0, 1)])
        net = EpsNet(Space1D(intervals=[(0, 1)]), [(0, F(1, 2)), (F(1, 2), 1)], F(1, 8))
        ref = ref_branch_summary(G, 0, net, search_budget=1)
        assert (ref.exists_infinite_dense_branch, ref.all_infinite_branches_dense) == (None, False)
        got = branch_summary(G, 0, net, search_budget=1)
        assert not got.cover_dense
        assert (got.exists_infinite_dense_branch, got.all_infinite_branches_dense) == (False, False)
        assert got == BranchSummary(**{**ref.__dict__, "exists_infinite_dense_branch": False})


class TestOrbitUnion:
    """orbit_union reads the condensation; reach's BFS and the cycle-reach legal set
    are the independent route."""

    @staticmethod
    def check(G):
        legal = legal_by_cycle_reach(G)
        for x in range(G.space.size):
            assert orbit_union(G, x) == reach(G, x) & legal, (G, x)

    def test_random_relations(self):
        rng = random.Random(173)
        for _ in range(300):
            self.check(make_random_relation(rng, max_points=12))
        for _ in range(10):
            self.check(random_graph(rng, rng.randint(30, 150)))

    @pytest.mark.parametrize("n", [1, 2, 30, 150])
    def test_paths_and_cycles(self, n):
        self.check(path(n))
        self.check(cycle(n))

    @pytest.mark.parametrize("name", ["ex1", "exxi", "fse2"])
    def test_discretized_gallery_relations(self, name):
        G, _ = discretize(gallery.build(name).relation, F(1, 32))
        self.check(G)

    def test_a_point_outside_the_space_is_refused(self):
        G = path(3)
        for x in (-1, 3):
            with pytest.raises(ValueError, match="point outside the space"):
                orbit_union(G, x)


class TestCachedAnalysis:
    def test_built_once_and_kept(self, monkeypatch):
        builds = []
        real_init = Condensation.__init__

        def counting_init(self, G):
            builds.append(G)
            real_init(self, G)

        monkeypatch.setattr(Condensation, "__init__", counting_init)
        G = random_graph(random.Random(73), 60)
        for x in range(G.space.size):
            classify_point(G, x)
            branch_summary(G, x)
        classify_all(G)
        assert len(builds) == 1
        assert _analysis(G) is _analysis(G)

    def test_equality_hash_and_repr_unchanged(self):
        rng = random.Random(74)
        for _ in range(50):
            G = make_random_relation(rng)
            twin = FiniteRelation(G.space, G.edges)
            before = (repr(G), hash(G))
            classify_all(G)
            assert G._analysis is not None and twin._analysis is None
            assert (repr(G), hash(G)) == before == (repr(twin), hash(twin))
            assert G == twin and twin == G
            assert {G: 1}[twin] == 1
