"""The horizon-limited routes of minimal_dense_branch_cover.

When the condensation has more than max_paths paths, a greedy walk family
gives an upper bound; when the horizon cuts a touring walk short, the
realized walks give one.  Either bound is certified only when it cannot be
beaten: the greedy one at size 1, the truncated one when it meets the
structural lower bound (the fewest condensation paths whose members are
dense).  The exact route, untruncated at a long horizon, is the reference:
its size is that lower bound.
"""

import random

import pytest

from conftest import make_random_relation
from crdyn.classify import (
    BudgetExceededError,
    Certainty,
    legal_by_cycle_reach,
    minimal_dense_branch_cover,
)
from crdyn.density import Exhaustive
from crdyn.finite import FiniteRelation, FiniteSpace

LONG = 1000  # longer than any tour of a 7-point relation


class Covers:
    """dense(S) when S holds every target point: monotone, sized for the space."""

    def __init__(self, size: int, target):
        self.size = size
        self.target = frozenset(target)

    def dense(self, points) -> bool:
        return self.target <= points


def rel(labels, edges) -> FiniteRelation:
    return FiniteRelation(FiniteSpace(labels), edges)


CYCLE3 = rel(["1", "2", "3"], [(0, 1), (1, 2), (2, 0)])
FORK = rel(["0", "a", "b"], [(0, 1), (1, 1), (0, 2), (2, 2)])
PAIR_SINK = rel(["1", "2"], [(0, 1), (1, 1)])
# x -> a -> b and x -> b, with a loop at b: one path tours everything
SHORTCUT = rel(["x", "a", "b"], [(0, 1), (1, 2), (0, 2), (2, 2)])
# x -> a, then the cycle a -> b -> c -> a
TAIL_CYCLE = rel(["x", "a", "b", "c"], [(0, 1), (1, 2), (2, 3), (3, 1)])
# a hub and three sinks with loops: three paths, three distinct orbits
HUB = rel(["h", "a", "b", "c"], [(0, 1), (0, 2), (0, 3), (1, 1), (2, 2), (3, 3)])


def points(res):
    return [w.points for w in res.witnesses]


def check_bound(G, x, dense, horizon, res, exact):
    """A horizon-limited result against the exact one, as the module docstring states."""
    assert exact.certainty is Certainty.CERTIFIED
    if res.size is None:
        assert res.witnesses == ()
        if res.certainty is Certainty.CERTIFIED:
            assert exact.size is None
        return
    assert len(res.witnesses) == res.size
    for walk in res.witnesses:
        assert walk.points[0] == x and len(walk) <= horizon
    assert dense.dense(frozenset().union(*(w.points for w in res.witnesses)))
    assert exact.size is not None and res.size >= exact.size
    if res.certainty is Certainty.CERTIFIED:
        assert res.size == exact.size


# ---------------------------------------------------------------------------
# the greedy route: more condensation paths than max_paths


def test_greedy_single_walk_is_certified():
    res = minimal_dense_branch_cover(CYCLE3, 0, max_paths=0)
    assert (res.size, points(res), res.certainty) == (1, [(0, 1, 2)], Certainty.CERTIFIED)


def test_greedy_family_of_two_stays_unknown():
    res = minimal_dense_branch_cover(FORK, 0, max_paths=0)
    assert (res.size, points(res), res.certainty) == (2, [(0, 1), (0, 2)], Certainty.UNKNOWN_AT_HORIZON)
    # two is the exact minimum, but the greedy route cannot know it
    assert minimal_dense_branch_cover(FORK, 0).size == 2


def test_greedy_failure_with_a_sparse_reach_is_certified_impossible():
    res = minimal_dense_branch_cover(PAIR_SINK, 1, max_paths=0)
    assert (res.size, res.certainty) == (None, Certainty.CERTIFIED)


def test_greedy_failure_with_a_dense_reach_stays_unknown():
    res = minimal_dense_branch_cover(CYCLE3, 0, horizon=0, max_paths=0)
    assert (res.size, res.certainty) == (None, Certainty.UNKNOWN_AT_HORIZON)


# ---------------------------------------------------------------------------
# the truncated route: a horizon shorter than a tour


def test_truncated_cover_at_the_lower_bound_is_certified():
    # at horizon 1 the tour of x, a, b, c stops at a, yet {x, a} is all the target
    dense = Covers(4, {0, 1})
    res = minimal_dense_branch_cover(TAIL_CYCLE, 0, dense, horizon=1)
    assert (res.size, points(res), res.certainty) == (1, [(0, 1)], Certainty.CERTIFIED)


def test_truncated_cover_above_the_lower_bound_stays_unknown():
    # at horizon 1 the tour x, a, b stops at a, so b needs the second walk
    res = minimal_dense_branch_cover(SHORTCUT, 0, horizon=1)
    assert (res.size, points(res), res.certainty) == (2, [(0, 1), (0, 2)], Certainty.UNKNOWN_AT_HORIZON)
    exact = minimal_dense_branch_cover(SHORTCUT, 0, horizon=LONG)
    assert (exact.size, points(exact), exact.certainty) == (1, [(0, 1, 2)], Certainty.CERTIFIED)


def test_truncated_walks_that_cover_nothing_stay_unknown():
    res = minimal_dense_branch_cover(FORK, 0, horizon=0)
    assert (res.size, res.certainty) == (None, Certainty.UNKNOWN_AT_HORIZON)


@pytest.mark.parametrize("max_paths", [4096, 0])
def test_a_negative_horizon_is_refused(max_paths):
    # a one-point loop once answered size 1 with the 0-step walk (0,), certified
    loop = rel(["0"], [(0, 0)])
    for horizon in (-1, -5):
        with pytest.raises(ValueError, match="horizon must be non-negative"):
            minimal_dense_branch_cover(loop, 0, horizon=horizon, max_paths=max_paths)
    assert minimal_dense_branch_cover(loop, 0, horizon=0, max_paths=max_paths).size == 1


def test_too_many_orbit_candidates_are_refused():
    with pytest.raises(BudgetExceededError, match="too many distinct orbit candidates"):
        minimal_dense_branch_cover(HUB, 0, max_candidates=1)
    assert minimal_dense_branch_cover(HUB, 0, Covers(4, {0}), max_candidates=3).size == 1


# ---------------------------------------------------------------------------
# seeded sweep against the exact route


def test_horizon_limited_routes_never_contradict_the_exact_one():
    rng = random.Random(20261019)
    for _ in range(600):
        G = make_random_relation(rng)
        n = G.space.size
        # a non-empty target, as every real predicate has: none is dense on no points
        target = frozenset(v for v in range(n) if rng.random() < 0.6) or {rng.randrange(n)}
        for dense in (Exhaustive(n), Covers(n, target)):
            for x in sorted(legal_by_cycle_reach(G)):
                exact = minimal_dense_branch_cover(G, x, dense, horizon=LONG)
                greedy = minimal_dense_branch_cover(G, x, dense, horizon=LONG, max_paths=0)
                check_bound(G, x, dense, LONG, greedy, exact)
                if greedy.certainty is Certainty.CERTIFIED and greedy.size is not None:
                    assert greedy.size == 1
                for horizon in (0, 1, 2, 3):
                    short = minimal_dense_branch_cover(G, x, dense, horizon=horizon)
                    check_bound(G, x, dense, horizon, short, exact)
                    short_greedy = minimal_dense_branch_cover(G, x, dense, horizon=horizon, max_paths=0)
                    check_bound(G, x, dense, horizon, short_greedy, exact)
