import re
from fractions import Fraction as F

import pytest

from conftest import make_random_function, make_random_relation
from crdyn.classify import (
    BudgetExceededError,
    Certainty,
    ClassificationTag,
    IllegalPointError,
    Verdict,
    characterization_suite,
    classify_point,
    do_transitive,
    legal_by_cycle_reach,
    membership,
    minimal_dense_branch_cover,
    oracle_classify,
    projection_check,
    reach,
    reach_chain,
    system_transitive,
    trans_set,
)
from crdyn.density import EpsNet
from crdyn.finite import FiniteRelation, FiniteSpace, inverse_relation, legal_set
from crdyn.region import Space1D


def rel(labels, edges) -> FiniteRelation:
    return FiniteRelation(FiniteSpace(labels), edges)


CYCLE3 = rel(["1", "2", "3"], [(0, 1), (1, 2), (2, 0)])
DENS = rel(["0", "1"], [(0, 1), (1, 1)])
PAIR_LOOP = rel(["1", "2"], [(0, 0)])
PAIR_SINK = rel(["1", "2"], [(0, 1), (1, 1)])
FORK = rel(["0", "a", "b"], [(0, 1), (1, 1), (0, 2), (2, 2)])


class TestReach:
    def test_quotient_example(self):
        G = rel(["0", "m", "1"], [(0, 1), (0, 2), (1, 2), (2, 2), (0, 0)])
        assert reach(G, 0) == frozenset({0, 1, 2})

    def test_no_outgoing(self):
        assert reach(PAIR_LOOP, 1) == frozenset({1})

    def test_monotone_and_stabilizes_within_size(self, rng):
        for _ in range(500):
            G = make_random_relation(rng)
            x = rng.randrange(G.space.size)
            chain = reach_chain(G, x)
            for a, b in zip(chain, chain[1:]):
                assert a <= b
            assert len(chain) - 2 <= G.space.size
            assert chain[-1] == reach(G, x)
            n = rng.randint(0, 4)
            assert reach(G, x, n) <= reach(G, x, n + 1)


class TestClassifyExamples:
    def test_dens(self):
        assert classify_point(DENS, 0) == ClassificationTag(Verdict.TRANS1)
        assert classify_point(DENS, 1) == ClassificationTag(Verdict.INTRANSITIVE)

    def test_cycle_all_trans1(self):
        for x in range(3):
            assert classify_point(CYCLE3, x).verdict is Verdict.TRANS1
        assert trans_set(CYCLE3, 2) == frozenset({0, 1, 2})

    def test_pair_sink_source_is_trans1(self):
        assert classify_point(PAIR_SINK, 0).verdict is Verdict.TRANS1
        assert trans_set(PAIR_SINK, 2) == frozenset({0})

    def test_illegal_point(self):
        assert classify_point(PAIR_LOOP, 1).verdict is Verdict.ILLEGAL

    def test_degenerate_space(self):
        loop = rel(["x"], [(0, 0)])
        assert classify_point(loop, 0).verdict is Verdict.TRANS1

    def test_grade_example(self):
        # hub fans out to everything in one step but no single walk is dense
        G = rel(["h", "a", "b"], [(0, 1), (0, 2), (1, 1), (2, 2)])
        tag = classify_point(G, 0)
        assert tag == ClassificationTag(Verdict.TRANS3, reach_grade=1)


class TestOracleAgreement:
    def test_oracle_examples(self):
        assert oracle_classify(PAIR_LOOP, 1).verdict is Verdict.ILLEGAL
        assert oracle_classify(CYCLE3, 0).verdict is Verdict.TRANS1

    def test_agreement_on_random(self, rng):
        for _ in range(500):
            G = make_random_relation(rng)
            for x in range(G.space.size):
                assert oracle_classify(G, x) == classify_point(G, x), (G, x)

    def test_size_cap(self):
        big = rel([str(i) for i in range(17)], [(i, i) for i in range(17)])
        with pytest.raises(BudgetExceededError):
            oracle_classify(big, 0)

    def test_points_outside_the_space_are_rejected(self):
        for x in (3, -1):
            for classify in (classify_point, oracle_classify):
                with pytest.raises(ValueError, match="point outside the space"):
                    classify(CYCLE3, x)


class TestInvariantSuites:
    def test_chain_partition_and_walk_closure(self, rng):
        for _ in range(500):
            G = make_random_relation(rng)
            n = G.space.size
            tags = [classify_point(G, x) for x in range(n)]
            legal = legal_set(G)
            t1 = trans_set(G, 1)
            t2 = trans_set(G, 2)
            t3 = trans_set(G, 3)
            assert t1 <= t2 <= t3
            intrans = {x for x in range(n) if tags[x].verdict is Verdict.INTRANSITIVE}
            assert t3 | intrans == legal
            assert t3 & intrans == set()
            # successors and walk points of intransitive points never become
            # 3-transitive (illegal successors are possible and allowed)
            for x in intrans:
                for y in G.successors(x):
                    assert y not in t3
                    for z in reach(G, y):
                        if z in legal:
                            assert z not in t3 or z in t3 and False or True
                        assert z not in t3

    def test_isolated_feeder_forces_return(self, rng):
        # finite spaces are discrete, so every point is isolated: a type-1
        # verdict for a successor forces the feeder back into its reach set
        for _ in range(300):
            G = make_random_relation(rng)
            if G.space.size < 2:
                continue
            t1 = trans_set(G, 1)
            for (x, y) in G.edges:
                if y in t1:
                    assert x in reach(G, y)

    def test_function_graphs_have_coinciding_types(self, rng):
        for _ in range(200):
            G = make_random_function(rng)
            for x in range(G.space.size):
                m1, _ = membership(G, x, 1)
                m2, _ = membership(G, x, 2)
                m3, _ = membership(G, x, 3)
                assert m1 == m2 == m3

    def test_no_omega_grade_on_exhaustive(self, rng):
        for _ in range(500):
            G = make_random_relation(rng)
            for x in range(G.space.size):
                tag = classify_point(G, x)
                assert tag.certainty is Certainty.CERTIFIED
                if tag.verdict is Verdict.TRANS3:
                    assert tag.reach_grade is not None
                else:
                    assert tag.reach_grade is None

    def test_do_transitivity_chain(self, rng):
        for _ in range(500):
            G = make_random_relation(rng)
            d1, d2, d3 = (do_transitive(G, k) for k in (1, 2, 3))
            if d1:
                assert d2
            if d2:
                assert d3

    def test_do_transitive_examples(self):
        assert all(do_transitive(CYCLE3, k) for k in (1, 2, 3))
        assert not any(do_transitive(PAIR_LOOP, k) for k in (1, 2, 3))

    def test_levels_outside_one_to_three_are_rejected(self):
        # PAIR_SINK's point 1 is intransitive: level 4 once made it a member,
        # and level 5 put every point, illegal ones included, in trans_set
        for level in (0, 4, 5):
            with pytest.raises(ValueError, match="level must be 1, 2, or 3"):
                trans_set(PAIR_SINK, level)
            with pytest.raises(ValueError, match="level must be 1, 2, or 3"):
                membership(PAIR_SINK, 1, level)
            with pytest.raises(ValueError, match="level must be 1, 2, or 3"):
                do_transitive(PAIR_SINK, level)

    def test_projections_and_gerce(self, rng):
        assert projection_check(PAIR_LOOP) == (frozenset({0}), frozenset({0}))
        assert projection_check(CYCLE3) == (frozenset({0, 1, 2}),) * 2
        for _ in range(500):
            G = make_random_relation(rng)
            p1, _ = projection_check(G)
            if do_transitive(G, 3):
                assert p1 == G.space.all_points()


class TestSystemTransitivity:
    def test_examples(self):
        assert not system_transitive(PAIR_SINK)
        assert system_transitive(CYCLE3)
        assert system_transitive(CYCLE3, plus=True)

    def test_characterization_examples(self):
        assert characterization_suite(CYCLE3).statements == (True,) * 8
        assert characterization_suite(PAIR_SINK).statements == (False,) * 8

    def test_characterization_consistency_on_random(self, rng):
        for _ in range(500):
            G = make_random_relation(rng)
            report = characterization_suite(G)
            assert report.group1_consistent
            assert report.group2_consistent
            assert report.statements[0] == system_transitive(G)
            assert report.statements[1] == system_transitive(G, plus=True)
            assert report.inverse_invariant

    def test_plus_implies_transitive_and_inverse_invariance(self, rng):
        for _ in range(500):
            G = make_random_relation(rng)
            if system_transitive(G, plus=True):
                assert system_transitive(G)
            assert system_transitive(G) == system_transitive(inverse_relation(G))


class TestBranchCover:
    def test_trans2_point_needs_one_walk(self):
        res = minimal_dense_branch_cover(CYCLE3, 0)
        assert res.size == 1
        assert res.certainty is Certainty.CERTIFIED
        assert res.witnesses[0].points == (0, 1, 2)

    def test_fork_needs_two(self):
        res = minimal_dense_branch_cover(FORK, 0)
        assert res.size == 2
        assert [w.points for w in res.witnesses] == [(0, 1), (0, 2)]

    def test_illegal_start_rejected(self):
        with pytest.raises(IllegalPointError):
            minimal_dense_branch_cover(PAIR_LOOP, 1)

    def test_cover_impossible_is_certified(self):
        # the sink cannot see the source, so no walk family from it is dense
        res = minimal_dense_branch_cover(PAIR_SINK, 1)
        assert res.size is None
        assert res.certainty is Certainty.CERTIFIED

    def test_cover_matches_bruteforce_on_random(self, rng):
        # oracle: try all families of walks up to the space size, shortest first
        from itertools import combinations

        from crdyn.finite import walks_from

        for _ in range(60):
            G = make_random_relation(rng, max_points=4)
            legal = legal_by_cycle_reach(G)
            if not legal:
                continue
            x = sorted(legal)[rng.randrange(len(legal))]
            res = minimal_dense_branch_cover(G, x, horizon=24)
            full = G.space.all_points()
            horizon = 8  # enough to tour any 4-point component chain
            orbits = sorted(
                {frozenset(w) for w in walks_from(G, x, 0)}
                | {frozenset(w) for n in range(1, horizon + 1) for w in walks_from(G, x, n)}
            , key=sorted)
            best = None
            for k in range(1, G.space.size + 1):
                if any(
                    frozenset().union(*combo) == full
                    for combo in combinations(orbits, k)
                ):
                    best = k
                    break
            assert res.size == best, (G, x)


class TestEpsNetClassification:
    def _geometry(self):
        sp = Space1D(intervals=[(0, 1)])
        cells = [(F(k, 4), F(k + 1, 4)) for k in range(4)]
        return sp, cells

    def test_trans2_under_coarse_net(self):
        # one-way sweep over the four cells; at radius 1/5 the tail {b,c,d}
        # leaves 0 uncovered (distance 1/4), at radius 1/2 it covers
        sp, cells = self._geometry()
        G = rel(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3), (3, 3)])
        fine = EpsNet(sp, cells, F(1, 5))
        assert classify_point(G, 0, fine).verdict is Verdict.TRANS1
        assert classify_point(G, 1, fine).verdict is Verdict.INTRANSITIVE
        coarse = EpsNet(sp, cells, F(1, 2))
        assert classify_point(G, 1, coarse).verdict is Verdict.TRANS1

    def test_grades_under_net(self):
        # hub fans into eight absorbing cells: the one-step reach covers
        # everything, but any single walk sees two cells only
        sp = Space1D(intervals=[(0, 1)])
        cells = [(F(k, 8), F(k + 1, 8)) for k in range(8)]
        edges = [(0, k) for k in range(8)] + [(k, k) for k in range(8)]
        hub = rel([str(i) for i in range(8)], edges)
        net = EpsNet(sp, cells, F(1, 8))
        tag = classify_point(hub, 0, net)
        assert tag == ClassificationTag(Verdict.TRANS3, reach_grade=1)
        assert oracle_classify(hub, 0, net) == tag

    def test_budget_exhaustion_is_flagged(self):
        sp, cells = self._geometry()
        G = rel(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3), (3, 3)])
        net = EpsNet(sp, cells, F(1, 4))
        tag = classify_point(G, 0, net, search_budget=1)
        assert tag.certainty is Certainty.UNKNOWN_AT_HORIZON
        assert tag.verdict is Verdict.TRANS3

    def test_membership_below_an_unknown_verdict_is_unknown(self):
        # the budget-1 tag says trans3, unknown at horizon: trans3 holds, and
        # types 1 and 2 stay undecided rather than refuted
        sp, cells = self._geometry()
        G = rel(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3), (3, 3)])
        net = EpsNet(sp, cells, F(1, 4))
        assert membership(G, 0, 3, net, search_budget=1) == (True, Certainty.CERTIFIED)
        for level in (1, 2):
            assert membership(G, 0, level, net, search_budget=1) == (None, Certainty.UNKNOWN_AT_HORIZON)
        assert membership(G, 0, 1, net) == (True, Certainty.CERTIFIED)

    def test_lasso_search_settles_an_exhausted_dense_walk_search(self):
        # the dense-walk search runs out at these budgets, but the lasso
        # search finds every walk dense; tag and branch summary say so alike
        from crdyn.classify import classify_all
        from crdyn.tree import branch_summary

        sp, cells = self._geometry()
        G = rel(["a", "b", "c", "d"], [(0, 1), (1, 2), (2, 3), (3, 3)])
        net = EpsNet(sp, cells, F(1, 4))
        unknown = ClassificationTag(Verdict.TRANS3, certainty=Certainty.UNKNOWN_AT_HORIZON, horizon=1)
        for budget in (1, 2, 3):
            tags = classify_all(G, net, search_budget=budget)
            oracle = [oracle_classify(G, x, net) for x in range(4)]
            assert tags == (oracle if budget > 1 else [unknown] + oracle[1:]), budget
            for x, tag in enumerate(tags):
                s = branch_summary(G, x, net, search_budget=budget)
                decided = tag.certainty is Certainty.CERTIFIED
                assert s.all_infinite_branches_dense == (tag.verdict is Verdict.TRANS1 if decided else None)
                assert s.exists_infinite_dense_branch == (
                    tag.verdict in (Verdict.TRANS1, Verdict.TRANS2) if decided else None
                )

    def test_oracle_agrees_under_nets(self, rng):
        sp = Space1D(intervals=[(0, 1)])
        for _ in range(120):
            n = rng.randint(1, 5)
            cells = [(F(k, n), F(k + 1, n)) for k in range(n)]
            G = make_random_relation(rng, max_points=n)
            while G.space.size != n:
                G = make_random_relation(rng, max_points=n)
            net = EpsNet(sp, cells, F(1, rng.choice([2, 3, n, 2 * n])))
            for x in range(n):
                fast = classify_point(G, x, net)
                slow = oracle_classify(G, x, net)
                assert fast == slow, (G, x, net.eps)


class TestPredicateSizedForTheSpace:
    """A density predicate sized for another space is refused, not misread."""

    G = rel(["a", "b"], [(0, 1), (1, 1)])

    def _nets(self):
        sp = Space1D(intervals=[(0, 1)])
        return [EpsNet(sp, [(F(k, m), F(k + 1, m)) for k in range(m)], F(1, 4)) for m in (1, 3)]

    def test_wrong_exhaustive_size(self):
        from crdyn.classify import classify_all
        from crdyn.density import Exhaustive
        from crdyn.tree import branch_summary

        for size in (1, 3):
            with pytest.raises(ValueError, match="sized for"):
                classify_all(self.G, Exhaustive(size))
            with pytest.raises(ValueError, match="sized for"):
                classify_point(self.G, 0, Exhaustive(size))
            with pytest.raises(ValueError, match="sized for"):
                branch_summary(self.G, 0, Exhaustive(size))
            with pytest.raises(ValueError, match="sized for"):
                minimal_dense_branch_cover(self.G, 0, Exhaustive(size))

    def test_wrong_extent_count(self):
        from crdyn.classify import classify_all
        from crdyn.tree import branch_summary

        for net in self._nets():
            for call in (
                lambda: classify_all(self.G, net),
                lambda: classify_point(self.G, 1, net),
                lambda: branch_summary(self.G, 0, net),
                lambda: minimal_dense_branch_cover(self.G, 0, net),
            ):
                with pytest.raises(ValueError, match="sized for"):
                    call()

    def test_the_oracle_refuses_a_wrong_extent_count(self):
        # misread, a 3-extent net makes a certified intransitive verdict for a
        # on the 2-cycle, and a 1-extent net an IndexError
        G = rel(["a", "b"], [(0, 1), (1, 0)])
        for net in self._nets():
            message = f"{net!r} is sized for {net.size} points, the space has 2"
            with pytest.raises(ValueError, match=re.escape(message)):
                oracle_classify(G, 0, net)

    def test_matching_sizes_are_accepted(self):
        from crdyn.classify import classify_all
        from crdyn.density import Exhaustive

        sp = Space1D(intervals=[(0, 1)])
        net = EpsNet(sp, [(0, F(1, 2)), (F(1, 2), 1)], F(1, 4))
        assert classify_all(self.G, Exhaustive(2)) == classify_all(self.G)
        assert [t.verdict for t in classify_all(self.G, net)] == [Verdict.TRANS1, Verdict.INTRANSITIVE]
