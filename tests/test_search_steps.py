"""Walk searches that step through lone successors, against the Fraction reference.

`_orbit_dfs` goes straight on from a state with exactly one successor
instead of pushing that successor and popping it again.  A lone pushed child
is always popped next, so the nodes, their order, the memo decisions, the
budget stops and the witnesses must stay those of
`fraction_reference.ref_orbit_dfs`, which pushes every child.  The starts
below have long one-successor runs (exhura, and fse2's isolated points,
which only map to each other) and columns to choose from (ex1's vertical
segment at 1/2).  Every budget from 1 to one past the reference's largest
node count is tried, so budget stops land inside the runs as well as at
branch points.

`_farthest_last` orders successors with one call per successor; a seeded
check pins its order to the sort by distance of the descending list.
"""

import random
from fractions import Fraction as F

import pytest

from crdyn import gallery
from crdyn.region import OrbitCover, _CoverFrame, _distance
from crdyn.symbolic import (
    _farthest_last,
    bounded_walk_search,
    classify_interval_point,
    nondense_loop_search,
    successor_choices,
)
from fraction_reference import (
    assert_same_searches,
    ref_bounded_walk_search,
    ref_nondense_loop_search,
    ref_orbit_dfs,
    ref_search_args,
)

HORIZONS = (0, 1, 50)
COVER_CAP = 200  # past this many nodes the branch cover's walk family is cut off

# (instance, eps, starts): exhura and fse2 run through lone successors; ex1
# has a column at 1/2, sampled on eps/2 (5 choices at eps 1/2, 33 at 1/16)
CASES = [
    ("exhura", F(1, 16), (F(1, 8), F(5, 8), F(29, 64))),
    ("fse2", F(1, 16), (F(2), F(3), F(5, 64), F(45, 64))),
    ("ex1", F(1, 2), (F(1, 2), F(1, 4), F(1))),
    ("ex1", F(1, 16), (F(1, 2), F(17, 64))),
]


def reference_nodes(R, x, eps, horizon):
    """The largest node count any of the three reference searches reaches, the branch cover's capped."""
    _, _, step = ref_search_args(R, x, eps, None)
    _, _, cover = ref_orbit_dfs(R, x, eps, horizon, step, COVER_CAP, lambda *state: None)
    walk = ref_bounded_walk_search(R, x, eps, horizon)[2]
    loop = ref_nondense_loop_search(R, x, eps, horizon)[2]
    return max(walk, loop, cover)


@pytest.mark.parametrize("name,eps,starts", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_every_budget_agrees_with_the_reference(name, eps, starts):
    R = gallery.build(name).relation
    for x in starts:
        for horizon in HORIZONS:
            for budget in range(1, reference_nodes(R, x, eps, horizon) + 2):
                assert_same_searches(R, x, eps, horizon, budget=budget)


def test_the_cases_have_runs_and_columns():
    fse2, ex1 = gallery.build("fse2").relation, gallery.build("ex1").relation
    assert [len(successor_choices(fse2, p, F(1, 32))) for p in (2, 3)] == [1, 1]
    assert len(successor_choices(ex1, F(1, 2), F(1, 4))) == 5


def test_a_budget_stop_inside_a_lone_run():
    R, eps = gallery.build("fse2").relation, F(1, 16)
    full = bounded_walk_search(R, F(2), eps, 50)
    assert full.found and full.nodes == len(full.witness) == 30
    # every state on the witness has one successor: the search never branches
    assert all(len(successor_choices(R, p, eps / 2)) == 1 for p in full.witness)
    for budget in range(1, full.nodes):
        got = bounded_walk_search(R, F(2), eps, 50, budget=budget)
        assert (got.status, got.witness, got.nodes) == ("budget", None, budget + 1)
        assert (got.status, got.witness, got.nodes) == ref_bounded_walk_search(R, F(2), eps, 50, budget=budget)


@pytest.mark.parametrize("name,eps,starts", CASES, ids=[f"{c[0]}-{c[1]}" for c in CASES])
def test_the_tagger_runs_the_two_searches(name, eps, starts):
    R = gallery.build(name).relation
    searched = 0
    for x in starts:
        for horizon in HORIZONS:
            tag = classify_interval_point(R, x, eps, horizon)
            if tag.walk is None:
                assert tag.loop is None
                continue
            searched += 1
            assert tag.walk == bounded_walk_search(R, x, eps, horizon)
            assert tag.loop == nondense_loop_search(R, x, eps, horizon)
    assert searched


def test_farthest_last_sorts_the_descending_list_by_distance():
    rng = random.Random(25)
    frame = _CoverFrame([(0, 200)], 1)
    ties = 0
    for _ in range(500):
        pts = rng.sample(range(201), rng.randint(1, 8))
        succs = sorted(rng.sample(range(201), rng.randint(1, 12)))
        cover = OrbitCover._over(frame, pts)
        got = _farthest_last(cover, succs)
        key = cover.points
        assert got == sorted(succs[::-1], key=lambda v: _distance(key, key, v))
        # on a tie the larger successor comes first in the list, so the
        # smaller one is pushed last and explored first
        for v, w in zip(got, got[1:]):
            if _distance(key, key, v) == _distance(key, key, w):
                ties += 1
                assert v > w
    assert ties  # the seeded lists hold ties
