"""OrbitCover against Region1D, and the symbolic walk searches against references.

The references are the walk and loop searches as they were before the orbit
was carried incrementally: they rebuild Region1D.from_points(orbit) at every
node and decide density with eps_dense.  The searches must agree with them on
status, witness and node count.
"""

import random
from fractions import Fraction as F

import pytest

from crdyn import gallery
from crdyn.region import OrbitCover, Region1D, Space1D, eps_dense
from crdyn.symbolic import (
    SymbolicRelation,
    WalkSearchResult,
    bounded_walk_search,
    nondense_loop_search,
    successor_choices,
)
from region_helpers import isolated_points

# ---------------------------------------------------------------------------
# references: full rebuild of the orbit region at every node


def reference_walk_search(R, x, eps, horizon, budget):
    step = eps / 2
    nodes = 0
    best = {}
    stack = [((x,), frozenset([x]))]
    while stack:
        walk, orbit = stack.pop()
        used = len(walk) - 1
        key = (walk[-1], orbit)
        prev = best.get(key)
        if prev is not None and prev <= used:
            continue
        best[key] = used
        nodes += 1
        if nodes > budget:
            return WalkSearchResult("budget", None, nodes)
        if eps_dense(R.space, Region1D.from_points(orbit), eps):
            return WalkSearchResult("found", walk, nodes)
        if used >= horizon:
            continue
        covered = Region1D.from_points(orbit)
        succs = successor_choices(R, walk[-1], step)
        ordered = sorted(succs, key=lambda v: (covered.distance_to(v), -v))
        for v in ordered:
            stack.append((walk + (v,), orbit | {v}))
    return WalkSearchResult("exhausted", None, nodes)


def reference_loop_search(R, x, eps, horizon, budget):
    step = eps / 2
    nodes = 0
    best = {}
    stack = [((x,), frozenset([x]))]
    while stack:
        walk, orbit = stack.pop()
        nodes += 1
        if nodes > budget:
            return WalkSearchResult("budget", None, nodes)
        if eps_dense(R.space, Region1D.from_points(orbit), eps):
            continue
        if len(walk) > 1 and walk[-1] in walk[:-1]:
            return WalkSearchResult("found", walk, nodes)
        used = len(walk) - 1
        key = (walk[-1], orbit)
        prev = best.get(key)
        if prev is not None and prev <= used:
            continue
        best[key] = used
        if used >= horizon:
            continue
        for v in sorted(successor_choices(R, walk[-1], step), reverse=True):
            stack.append((walk + (v,), orbit | {v}))
    return WalkSearchResult("exhausted", None, nodes)


# ---------------------------------------------------------------------------
# the cover against eps_dense and distance_to


SPACES = [
    Space1D(intervals=[(0, 1)]),
    Space1D(intervals=[(0, 1)], isolated=[2, 3]),
    Space1D(intervals=[(0, F(1, 4)), (F(1, 2), 1)], isolated=[F(3, 8), 2]),
    Space1D(intervals=[(-1, F(-1, 2)), (0, F(1, 8)), (F(3, 4), 1)], isolated=[F(5, 16), F(9, 8)]),
    Space1D(isolated=[0, F(1, 3), 1]),
]


def space_points(space: Space1D) -> list[F]:
    """Grid points k/64 inside the space, plus every isolated point."""
    pts = list(space.isolated)
    for lo, hi in space.intervals:
        k = -((-lo * 64) // 1)
        while F(k, 64) <= hi:
            pts.append(F(k, 64))
            k += 1
    return pts


def assert_cover_agrees(space, eps, cover, points):
    region = Region1D.from_points(points)
    assert cover.points == isolated_points(region)
    assert cover.dense() == eps_dense(space, region, eps)


@pytest.mark.parametrize("space", SPACES, ids=repr)
def test_density_and_distance_match_region_on_random_sequences(space):
    rng = random.Random(f"orbit-cover:{space!r}")
    pool = space_points(space)
    for trial in range(60):
        eps = rng.choice([F(1, 64), F(1, 32), F(1, 16), F(1, 8), F(3, 16), F(1, 4)])
        cover = OrbitCover(space, eps)
        assert not cover.dense()
        points = []
        for _ in range(rng.randint(1, 70)):
            v = rng.choice(pool)
            points.append(v)
            cover = cover.insert(v)
            assert_cover_agrees(space, eps, cover, points)
            region = Region1D.from_points(points)
            for q in rng.choices(pool, k=5) + [F(rng.randint(-80, 250), 64)]:
                assert cover.distance(q) == region.distance_to(q)
        assert OrbitCover(space, eps, reversed(points)).points == cover.points
        assert OrbitCover(space, eps, reversed(points)).bad == cover.bad


def test_gap_of_exactly_two_eps_is_not_bad():
    space = Space1D(intervals=[(0, 1)])
    eps = F(1, 8)
    cover = OrbitCover(space, eps, [F(k, 4) for k in range(5)])
    assert cover.bad == 0 and cover.dense()
    assert eps_dense(space, Region1D.from_points(cover.points), eps)
    wider = OrbitCover(space, eps, [0, F(1, 4), F(1, 2), F(3, 4) + F(1, 64), 1])
    assert wider.bad == 1 and not wider.dense()
    assert not eps_dense(space, Region1D.from_points(wider.points), eps)


def test_gap_with_midpoint_between_components_is_not_bad():
    # the gap 1/8 .. 7/8 has midpoint 1/2, outside [0, 1/8] u [7/8, 1]
    space = Space1D(intervals=[(0, F(1, 8)), (F(7, 8), 1)])
    eps = F(1, 16)
    cover = OrbitCover(space, eps, [0, F(1, 8), F(7, 8), 1])
    assert cover.bad == 0 and cover.dense()
    assert eps_dense(space, Region1D.from_points(cover.points), eps)
    # the gap 0 .. 7/8 has midpoint 7/16, between the components, yet the
    # endpoint 1/8 is 1/8 away from the orbit
    lopsided = OrbitCover(space, eps, [0, F(7, 8), 1])
    assert lopsided.bad == 0 and not lopsided.dense()
    assert not eps_dense(space, Region1D.from_points(lopsided.points), eps)


def test_isolated_point_gap_and_insert_of_a_known_point():
    space = Space1D(intervals=[(0, 1)], isolated=[2])
    eps = F(1, 4)
    cover = OrbitCover(space, eps, [F(1, 4), F(3, 4), 2])
    # the gap 3/4 .. 2 has midpoint 11/8, outside the space; 2 is covered
    assert cover.bad == 0 and cover.dense()
    assert cover.insert(F(3, 4)) is cover
    split = OrbitCover(space, eps, [F(1, 4), 2])
    # the gap 1/4 .. 2 has midpoint 9/8 outside the space, yet 1 is 3/4 away
    assert split.bad == 0 and not split.dense()
    assert not eps_dense(space, Region1D.from_points(split.points), eps)


def test_rejects_non_positive_eps():
    with pytest.raises(ValueError):
        OrbitCover(Space1D(intervals=[(0, 1)]), 0)


# ---------------------------------------------------------------------------
# the searches against the references on the gallery's interval relations


def interval_relations() -> list[tuple[str, SymbolicRelation]]:
    out = []
    for name in gallery.names():
        relation = gallery.build(name).relation
        if isinstance(relation, SymbolicRelation):
            out.append((name, relation))
    return out


HORIZONS = (20, 50, 100)
EPS_VALUES = (F(1, 8), F(1, 16), F(1, 32))
BUDGET = 400  # keeps the references fast; budget stops are compared too


def search_cases():
    for name, R in interval_relations():
        rng = random.Random(f"orbit-dfs:{name}")
        starts = [F(2 * rng.randrange(32) + 1, 64)] + list(R.space.isolated)
        for x in starts:
            for eps in EPS_VALUES:
                yield name, R, x, eps


@pytest.mark.parametrize("horizon", HORIZONS)
def test_walk_search_matches_reference(horizon):
    for name, R, x, eps in search_cases():
        got = bounded_walk_search(R, x, eps, horizon, budget=BUDGET)
        want = reference_walk_search(R, x, eps, horizon, BUDGET)
        assert got == want, (name, x, eps, horizon)


@pytest.mark.parametrize("horizon", HORIZONS)
def test_loop_search_matches_reference(horizon):
    for name, R, x, eps in search_cases():
        got = nondense_loop_search(R, x, eps, horizon, budget=BUDGET)
        want = reference_loop_search(R, x, eps, horizon, BUDGET)
        assert got == want, (name, x, eps, horizon)
