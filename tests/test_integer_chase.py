"""The reach chase on a frame's ints against the Fraction chase.

`forward_union`, `sym_reach`, `sym_reach_chain` and
`grid_transitivity_check` chase the ints n of the values n/S.  Each answer is
compared with the Fraction references of fraction_reference, built on the
independent chase of `test_compiled_relation`.  The starts and grid widths
are not dyadic, the spaces have isolated points, and ex31's chains have
denominators of about 2,400 bits.  ex4 and mirrored relations have
non-integer slopes, and their frames scale by D * q**depth (their chases are
checked in test_rational_frame).
"""

import math
import random
from fractions import Fraction as F

import pytest

from crdyn import gallery
from crdyn.region import Region1D, Space1D
from crdyn.symbolic import (
    Segment,
    SymbolicRelation,
    _Frame,
    region_difference_closure,
    sym_preimage,
)
from fraction_reference import assert_same_grid, assert_same_reach
from test_compiled_relation import ref_difference_closure, ref_sym_image
from test_integer_frame import random_integer_slope_relation

# ---------------------------------------------------------------------------
# inputs

RANDOM = [(f"random{seed}", random_integer_slope_relation(seed)) for seed in range(10)]


def starts(R, rng):
    """Non-dyadic points and pieces, the isolated points, and a seeded piece in thirds."""
    lo = F(rng.randint(0, 5), 3)
    out = [
        Region1D.point(F(1, 3)), Region1D.point(F(7, 5)), Region1D.interval(F(1, 3), F(2, 5)),
        Region1D([(F(1, 7), F(2, 7)), (F(10, 3), F(18, 5))]), Region1D.interval(lo, lo + F(1, 3)),
    ]
    out += [Region1D.point(p) for p in R.space.isolated]
    return out


# ---------------------------------------------------------------------------
# the chases


@pytest.mark.parametrize("name,R", RANDOM, ids=[name for name, _ in RANDOM])
def test_random_integer_slope_relations(name, R):
    assert R._table.q == 1
    rng = random.Random(name)
    for start in starts(R, rng):
        for horizon in (0, 1, 4, 12):
            assert_same_reach(R, start, horizon)
    for delta in (F(1, 3), F(1, 5), F(1, 12)):
        assert_same_grid(R, delta, (0, 1, 3, 8))


def test_ex31_chains_with_long_denominators():
    inst = gallery.build("ex31")
    R = inst.relation
    assert R._table.q == 1 and R._table.denominator.bit_length() > 2000
    for x in (F(0), inst.params["x1"], inst.params["x2"], F(1, 3)):
        for horizon in (10, 30):
            assert_same_reach(R, Region1D.point(x), horizon)


@pytest.mark.parametrize("name", ["exxi", "exhura", "fse2", "tistile"])
def test_gallery_relations(name):
    R = gallery.build(name).relation
    assert R._table.q == 1
    points = (F(1, 3), *R.space.isolated)
    for start in (Region1D.interval(F(1, 5), F(2, 5)), *map(Region1D.point, points)):
        assert_same_reach(R, start, 20)
    assert_same_grid(R, F(1, 6), (0, 2, 12))


def test_non_integer_slopes_run_on_ints_at_d_times_q_to_the_depth():
    ex4 = gallery.build("ex4").relation
    ex4 = SymbolicRelation(ex4.space, ex4.primitives)  # a fresh table, holding no scale yet
    tent = SymbolicRelation(
        Space1D(intervals=[(0, 1)], isolated=[2]),
        [Segment(0, 0, F(1, 2), 1), Segment(F(1, 2), 1, 1, 0), Segment(2, 0, 2, F(1, 3))],
    )
    back = tent.mirrored()  # the slopes 1/2 and -1/2 of the preimages
    assert tent._table.q == 1
    # their chases against the reference are in test_rational_frame
    for R, q, horizon in ((ex4, 32, 12), (back, 2, 6)):
        assert R._table.q == q
        frame = _Frame(R, (F(1, 3),), horizon)
        assert frame.scale == math.lcm(3, R._table.denominator) * q**horizon
    for A in (Region1D.point(F(1, 3)), Region1D.interval(F(1, 5), F(2, 5)), Region1D.point(F(1, 2))):
        assert sym_preimage(tent, A) == ref_sym_image(back, A)


def test_reference_difference_matches_the_sweep():
    rng = random.Random(5)
    for _ in range(500):
        a, b = (Region1D((lo, lo + F(rng.choice((0, 0, 1, 2, 3)), 3))
                         for lo in (F(rng.randint(0, 24), 3) for _ in range(rng.randint(0, 5))))
                for _ in range(2))
        assert region_difference_closure(a, b) == ref_difference_closure(a, b), (a, b)
