"""Frames for every rational slope against the Fraction reference.

A walk of at most h steps from a start in (1/D)Z stays in (1/(D q^h))Z, with
q the lcm of the slopes' denominators, so a search runs on the ints of the
frame D * q**horizon and a chase on those of D * q**depth, depth the number
of images it takes.  Here q > 1: gallery ex4 (slope 243/32), a mirrored tent
(slopes 1/2 and -1/2) and seeded random relations whose slopes are p/q with
q in 2..7.  The three searches must give the reference's status, witness and
node count at horizons up to 150, and the four chases the reference's
regions and reports.  Two relations whose frames have no factor q to spare
check that the last step of a search and the last image of a chase are
exact in the frame of their depth.
"""

import random
from fractions import Fraction as F

import pytest

from crdyn import gallery
from crdyn.region import Region1D, Space1D
from crdyn.symbolic import (
    Segment,
    SinglePoint,
    SymbolicRelation,
    _Frame,
    point_successors,
    successor_choices,
    sym_image,
    sym_preimage,
    sym_reach,
)
from fraction_reference import assert_same_grid, assert_same_reach, assert_same_searches, ref_chain
from test_compiled_relation import (
    ref_point_successors,
    ref_successor_choices,
    ref_sym_image,
    ref_sym_preimage,
)

HORIZONS = (20, 50, 100, 150)

TENT = SymbolicRelation(
    Space1D(intervals=[(0, 1)]), [Segment(0, 0, F(1, 2), 1), Segment(F(1, 2), 1, 1, 0)]
)
MIRRORED_TENT = TENT.mirrored()


def random_rational_slope_relation(seed):
    """Slopes p/q for q = 2 + seed % 6, columns, single points and isolated
    points, on coordinates in sixths; the space is [0, 2] u [3, 4] u {5/2, 5}.

    A backbone keeps every point alive: slopes (q - 1)/q and 1/q on the two
    intervals and an integer tent on [0, 2], with links through the isolated
    points.
    """
    rng = random.Random(seed)
    q = 2 + seed % 6
    space = Space1D(intervals=[(0, 2), (3, 4)], isolated=[F(5, 2), 5])
    region = space.region()
    xs = [F(k, 6) for k in range(13)] + [F(k, 6) for k in range(18, 25)] + [F(5, 2), F(5)]

    def inside(lo, hi):
        return region.contains_region(Region1D.interval(lo, hi))

    prims = []
    count = rng.randint(3, 7)
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
        width, slope, ay = F(rng.randint(1, 6), 6), F(rng.randint(-2 * q, 2 * q), q), rng.choice(xs)
        bx, by = ax + width, ay + slope * width
        if inside(ax, bx) and inside(min(ay, by), max(ay, by)):
            prims.append(Segment(ax, ay, bx, by))
    prims += [Segment(0, 0, 2, 2 * F(q - 1, q)), Segment(3, 3, 4, 3 + F(1, q))]
    prims += [Segment(0, 0, 1, 2), Segment(1, 2, 2, 0)]
    prims += [SinglePoint(2, 3), SinglePoint(4, F(5, 2)), SinglePoint(F(5, 2), 5)]
    prims.append(SinglePoint(5, rng.choice(xs)))
    return SymbolicRelation(space, prims)


RANDOM = [(f"random{seed}", random_rational_slope_relation(seed)) for seed in range(6)]


def test_the_relations_have_non_integer_slopes():
    assert gallery.build("ex4").relation._table.q == 32
    assert MIRRORED_TENT._table.q == 2
    assert [R._table.q for _, R in RANDOM] == [2, 3, 4, 5, 6, 7]


def test_the_frame_scales_by_d_times_q_to_the_depth():
    for depth in (0, 1, 7, 150):
        R = SymbolicRelation(MIRRORED_TENT.space, MIRRORED_TENT.primitives)  # holds no scale yet
        # 1/3 and the rows' halves give D = 6, then each step a factor q = 2
        assert _Frame(R, (F(1, 3),), depth).scale == 6 * 2**depth
    # a depth-one frame takes one image exactly, and maps it back to Fractions
    for A in (Region1D.point(F(1, 3)), Region1D.interval(F(1, 5), F(2, 7))):
        assert sym_image(MIRRORED_TENT, A) == ref_sym_image(MIRRORED_TENT, A)
        assert sym_preimage(TENT, A) == ref_sym_image(MIRRORED_TENT, A)


@pytest.mark.parametrize("name,R", RANDOM, ids=[name for name, _ in RANDOM])
def test_one_step_questions_take_a_depth_one_frame(name, R):
    rng = random.Random(name)
    points = sorted({F(rng.randint(0, 84), 42) for _ in range(30)} | {F(3), F(4), F(5, 2), F(5)})
    for p in points:
        assert point_successors(R, p) == ref_point_successors(R, p), p
        for step in (F(1, 5), F(1, 6)):
            assert successor_choices(R, p, step) == ref_successor_choices(R, p, step), (p, step)
    for lo, hi in zip(points, points[3:]):
        A = Region1D([(lo, lo), (hi, hi + F(1, 7))]) if hi + F(1, 7) <= 2 else Region1D.interval(lo, hi)
        assert sym_image(R, A) == ref_sym_image(R, A), A
        assert sym_preimage(R, A) == ref_sym_preimage(R, A), A


# ---------------------------------------------------------------------------
# the searches


def test_ex4_searches():
    R = gallery.build("ex4").relation
    for horizon in HORIZONS:
        for eps in (F(1, 16), F(1, 32)):
            for x in (F(0), F(1, 3), F(1, 2), F(5, 7)):
                assert_same_searches(R, x, eps, horizon)


def test_mirrored_tent_searches():
    for horizon in HORIZONS:
        for eps, step in ((F(1, 16), None), (F(1, 32), F(1, 24)), (F(1, 5), F(1, 7))):
            for x in (F(0), F(1, 3), F(1, 2), F(3, 4)):
                assert_same_searches(MIRRORED_TENT, x, eps, horizon, step)


@pytest.mark.parametrize("name,R", RANDOM, ids=[name for name, _ in RANDOM])
def test_random_rational_slope_searches(name, R):
    rng = random.Random(name)
    starts = [F(1, 3), F(7, 5), F(10, 3), F(5, 2), F(5), F(rng.randint(0, 12), 6)]
    for horizon in (8, 150):
        for eps, step in ((F(1, 3), None), (F(1, 6), F(1, 10))):
            for x in starts:
                assert_same_searches(R, x, eps, horizon, step, budget=300)


# ---------------------------------------------------------------------------
# the chases


def test_ex4_chases():
    R = gallery.build("ex4").relation
    for start in (Region1D.point(F(1, 3)), Region1D.point(F(1, 2)), Region1D.interval(F(1, 5), F(2, 5))):
        for horizon in (0, 1, 12, 40):
            assert_same_reach(R, start, horizon)
    assert_same_grid(R, F(1, 5), (0, 3, 20))


def test_mirrored_tent_chases():
    # backward reaches double their pieces at each step, so they stay short
    for start in (Region1D.point(F(1, 3)), Region1D.point(0), Region1D.interval(F(1, 5), F(2, 5))):
        for horizon in (0, 1, 4, 8):
            assert_same_reach(MIRRORED_TENT, start, horizon)
    assert_same_grid(MIRRORED_TENT, F(1, 5), (0, 2, 6))


def test_each_step_of_a_search_is_within_its_horizon():
    # x -> x/2 and x -> 2 - x/2 have integer ends, and the start, eps and
    # step all have denominator 16, so the frame has no factor 2 to spare:
    # the last step of a walk of h halvings needs the whole of 16 * 2**h
    R = SymbolicRelation(Space1D(intervals=[(0, 2)]), [Segment(0, 0, 2, 1), Segment(0, 2, 2, 1)])
    eps = F(1, 16)
    for horizon in range(1, 13):
        for x in (F(1, 16), F(3, 16), F(31, 16)):
            assert_same_searches(R, x, eps, horizon, eps)


def test_each_image_of_a_chase_is_within_its_depth():
    # x -> (1 + x)/2 moves the reach's top end half as far at each step, so
    # the top of the image after the last step is the chase's finest value:
    # it is 1/2 above the reach in the ints of a frame one factor q short,
    # and a floor would put it inside and report a reach that stabilised
    R = SymbolicRelation(Space1D(intervals=[(0, 1)]), [Segment(0, F(1, 2), 1, 1)])
    for horizon in range(8):
        assert sym_reach(R, Region1D.interval(0, F(1, 2)), horizon)[1] is False
        assert_same_reach(R, Region1D.interval(0, F(1, 2)), horizon)
    assert_same_grid(R, F(1, 4), range(6))


@pytest.mark.parametrize("name,R", RANDOM, ids=[name for name, _ in RANDOM])
def test_random_rational_slope_chases(name, R):
    rng = random.Random(name)
    lo = F(rng.randint(0, 5), 3)
    starts = [Region1D.point(F(1, 3)), Region1D.interval(F(1, 3), F(2, 5)),
              Region1D.interval(lo, lo + F(1, 3)), *map(Region1D.point, R.space.isolated)]
    for start in starts:
        for horizon in (0, 1, 6):
            assert_same_reach(R, start, horizon)
        # a reach that grows by a few pieces a step is chased to depth 150 as
        # well; the others double their pieces at each step
        if len(ref_chain(R, start, 6)[-1].pieces) <= 20:
            assert_same_reach(R, start, 150)
    assert_same_grid(R, F(1, 3), (0, 1, 4))
