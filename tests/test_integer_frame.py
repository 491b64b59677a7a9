"""The walk searches on a frame's ints against the Fraction searches they replaced.

The references (in fraction_reference) are `_orbit_dfs` and the three
searches as they were before a search ran on the ints n of the values n/S:
every number a Fraction, successors recomputed at every node, and the
farthest-first order sorting by (distance, -v).  The new code must give the
same status, witness and node count, and witnesses made of Fractions.  The
division-free gap test is checked against the midpoint form it replaced.
"""

import random
from fractions import Fraction as F

import pytest

from conftest import interval_relations
from crdyn import gallery
from crdyn.region import Region1D, Space1D, _CoverFrame
from crdyn.symbolic import (
    Segment,
    SinglePoint,
    SymbolicRelation,
    _orbit_dfs,
    _PrimitiveTable,
    _SearchFrame,
    successor_choices,
)
from fraction_reference import assert_same_searches as assert_same

# ---------------------------------------------------------------------------
# reference: the gap test's midpoint form


def ref_bad_gap(components, eps, p, q):
    """The midpoint form: wider than 2 eps, with (p + q) / 2 in a component."""
    if q - p <= 2 * eps:
        return False
    mid = (p + q) / 2
    return any(lo <= mid <= hi for lo, hi in components)


# ---------------------------------------------------------------------------
# inputs


def interval_instances():
    """(name, instance) for every gallery instance on an interval space, in gallery order."""
    return [(name, gallery.build(name)) for name, _ in interval_relations()]


def gallery_starts(inst):
    """The space's least point, a point a third of the way into its first
    component, every isolated point, and every point among the parameters
    (the surrogate starts carry long denominators)."""
    space = inst.relation.space
    lo, hi = space._components[0]
    params = [v for v in inst.params.values() if isinstance(v, F) and space.contains_point(v)]
    return sorted({lo, lo + (hi - lo) / 3, *space.isolated, *params})


def random_integer_slope_relation(seed):
    """Integer slopes -3..3, columns, single points and isolated points, on
    coordinates in sixths; the space is [0, 2] u [3, 4] u {5/2, 5}."""
    rng = random.Random(seed)
    space = Space1D(intervals=[(0, 2), (3, 4)], isolated=[F(5, 2), 5])
    region = space.region()
    xs = [F(k, 6) for k in range(13)] + [F(k, 6) for k in range(18, 25)] + [F(5, 2), F(5)]

    def inside(lo, hi):
        return region.contains_region(Region1D.interval(lo, hi))

    prims = []
    count = rng.randint(4, 9)
    while len(prims) < count:
        kind = rng.choice(("sloped", "sloped", "sloped", "column", "point"))
        ax = rng.choice(xs)
        if kind == "point":
            prims.append(SinglePoint(ax, rng.choice(xs)))
            continue
        if kind == "column":
            ay, by = sorted((rng.choice(xs), rng.choice(xs)))
            if ay < by and inside(ay, by):
                prims.append(Segment(ax, ay, ax, by))
            continue
        width, slope, ay = F(rng.randint(1, 6), 6), rng.randint(-3, 3), rng.choice(xs)
        bx, by = ax + width, ay + slope * width
        if inside(ax, bx) and inside(min(ay, by), max(ay, by)):
            prims.append(Segment(ax, ay, bx, by))
    # a tent on [0, 2], a flip on [3, 4] and links through the isolated
    # points: every point has a successor, and some walks are dense
    prims += [Segment(0, 0, 1, 2), Segment(1, 2, 2, 0), Segment(3, 4, 4, 3)]
    prims += [SinglePoint(2, 3), SinglePoint(4, F(5, 2)), SinglePoint(F(5, 2), 5)]
    prims.append(SinglePoint(5, rng.choice(xs)))
    return SymbolicRelation(space, prims)


RANDOM = [(f"random{seed}", random_integer_slope_relation(seed)) for seed in range(10)]


# ---------------------------------------------------------------------------
# the searches


@pytest.mark.parametrize("name,inst", interval_instances(), ids=lambda v: v if isinstance(v, str) else "")
def test_gallery_relations(name, inst):
    for eps in (F(1, 8), F(1, 16), F(1, 32)):
        for horizon in (20, 50, 100):
            for x in gallery_starts(inst):
                assert_same(inst.relation, x, eps, horizon)


@pytest.mark.parametrize("name,R", RANDOM, ids=[name for name, _ in RANDOM])
def test_random_integer_slope_relations(name, R):
    assert R._table.q == 1
    rng = random.Random(name)
    starts = [F(1, 3), F(7, 5), F(10, 3), F(5, 2), F(5), F(rng.randint(0, 12), 6)]
    steps = ((F(1, 3), None), (F(1, 5), F(1, 7)), (F(1, 6), F(1, 10)), (F(1, 4), F(1, 3)))
    for eps, step in steps:
        for horizon in (8, 20):
            for x in starts:
                assert_same(R, x, eps, horizon, step, budget=300)


def test_ex4_runs_on_ints_at_d_times_q_to_the_horizon():
    ex4 = gallery.build("ex4").relation
    R = SymbolicRelation(ex4.space, ex4.primitives)  # a fresh table, holding no scale yet
    assert R._table.q == 32  # the slope 243/32
    frame = _SearchFrame(R, F(1, 2), F(1, 16), 10)
    assert R._table.denominator == 7776  # 2**5 * 3**5: every other value's denominator divides it
    assert frame.scale == 7776 * 32**10
    assert all(type(v) is int for row in frame._table.rows for v in row[:4])
    assert {row[4:] for row in frame._table.rows if row[4]} == {(243, 32)}
    for x in (F(0), F(1, 3), F(1, 2)):
        for eps, step in ((F(1, 16), None), (F(1, 5), F(1, 7))):
            assert_same(R, x, eps, 50, step)


def test_integer_slope_relations_run_on_ints():
    tent = SymbolicRelation(
        Space1D(intervals=[(0, 1)]), [Segment(0, 0, F(1, 2), 1), Segment(F(1, 2), 1, 1, 0)]
    )
    frame = _SearchFrame(tent, F(1, 3), F(1, 32), 10, F(1, 10))
    assert frame.scale == 480  # the lcm of 2 (the rows), 3, 32 and 10, at every depth since q = 1
    assert (frame.x, frame.step, frame.cover.eps) == (160, 48, 15)
    assert frame._table.rows == [(0, 240, 0, 480, 2, 1), (240, 480, 480, 0, -2, 1)]
    # the held scale serves every divisor of it, and a new scale replaces it
    assert tent._table.scaled(480) == (480, frame._table)
    assert tent._table.scaled(96) == (480, frame._table)
    assert tent._table.scaled(7)[1] is not frame._table
    assert tent._table.scaled(7) == (7, tent._table.scaled(7)[1])
    # the surrogate points of exhura give a long common denominator, still exact
    R = gallery.build("exhura").relation
    frame = _SearchFrame(R, F(1, 3), F(1, 32), 10)
    assert frame.scale % R._table.denominator == 0 and frame.scale % 192 == 0
    assert all(type(v) is int for row in frame._table.rows for v in row[:4])


def test_successor_lists_are_computed_once_and_never_changed():
    R = gallery.build("ex1").relation
    frame = _SearchFrame(R, F(1, 2), F(1, 8), 6)
    table = frame._table
    first = table.choices(frame.x, frame.step)
    assert table.choices(frame.x, frame.step) is first
    assert first == [v * frame.scale for v in successor_choices(R, F(1, 2), F(1, 16))]
    _orbit_dfs(frame, 2000, lambda walk, orbit, cover: None)
    assert table.choices(frame.x, frame.step) is first
    assert frame.step in table.memo
    lists = table.memo[frame.step]
    fresh = _PrimitiveTable(table.rows)  # same rows, empty memo
    for v, succs in lists.items():
        assert succs == fresh.choices(v, frame.step)


# ---------------------------------------------------------------------------
# the gap test


def test_division_free_gap_test_matches_the_midpoint_form():
    rng = random.Random(11)
    for _ in range(300):
        count = rng.randint(2, 8)
        ends = sorted({F(rng.randint(-20, 60), rng.choice((1, 2, 3, 7))) for _ in range(count)})
        # disjoint sorted components, some of them single points
        comps = [(lo, hi if rng.random() < 0.7 else lo) for lo, hi in zip(ends[::2], ends[1::2])]
        eps = F(rng.randint(1, 9), rng.choice((2, 3, 5, 8)))
        frame = _CoverFrame(comps, eps)
        D = 840  # a multiple of every denominator drawn here
        scaled = _CoverFrame([(int(lo * D), int(hi * D)) for lo, hi in comps], int(eps * D))
        for _ in range(40):
            p, q = sorted(F(rng.randint(-40, 130), rng.choice((1, 2, 4, 5, 6))) for _ in range(2))
            want = ref_bad_gap(comps, eps, p, q)
            assert frame.bad_gap(p, q) == want, (comps, eps, p, q)
            assert scaled.bad_gap(int(p * D), int(q * D)) == want, (comps, eps, p, q)
