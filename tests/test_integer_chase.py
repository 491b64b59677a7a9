"""The reach chase on the integer frame against the Fraction chase and a reference.

On a relation whose slopes are all integers, `forward_union`, `sym_reach`,
`sym_reach_chain` and `grid_transitivity_check` chase the ints n of the
values n/D.  Each answer is compared with the same function on a copy of
the relation whose table is marked non-integral, so that it chases its own
Fractions at D = 1, and with the independent Fraction chase of
`test_compiled_relation`.  The starts and grid widths are not dyadic, the
spaces have isolated points, and ex31's chains have denominators of about
2,400 bits.  ex4 and mirrored relations have non-integer slopes and stay on
the Fraction path.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from crdyn import gallery
from crdyn.region import Region1D, Space1D
from crdyn.symbolic import (
    Segment,
    SymbolicRelation,
    _Frame,
    forward_union,
    grid_transitivity_check,
    region_difference_closure,
    sym_preimage,
    sym_reach,
    sym_reach_chain,
)
from test_compiled_relation import (
    ref_difference_closure,
    ref_frontier_chase,
    ref_grid_transitivity_check,
    ref_sym_image,
)
from test_integer_frame import random_integer_slope_relation

# ---------------------------------------------------------------------------
# references


def ref_chain(R, start, max_iter):
    chain = [start]
    chain += (acc for acc, _ in itertools.islice(ref_frontier_chase(R, start), max_iter))
    if len(chain) <= max_iter:
        chain.append(chain[-1])
    return chain


def ref_forward_union(R, U, horizon, include_start):
    if not include_start:
        if horizon < 1:
            return Region1D.empty()
        U, horizon = ref_sym_image(R, U), horizon - 1
    return ref_chain(R, U, horizon)[-1]


def ref_sym_reach(R, start, max_iter):
    chain = ref_chain(R, start, max_iter + 1)
    chain += chain[-1:] * (max_iter + 2 - len(chain))  # a chain that stopped early stays put
    return chain[max_iter], chain[max_iter] == chain[max_iter + 1]


def on_fractions(R):
    """A copy of R that chases its own Fractions, at D = 1."""
    copy = SymbolicRelation(R.space, R.primitives)
    copy._table.integral = False
    assert _Frame(copy, ()).scale is None
    return copy


def assert_fractions(region):
    assert all(type(v) is F for piece in region.pieces for v in piece), region


def assert_same_reach(R, start, horizon):
    """The four chases agree with the Fraction path and with the reference."""
    plain = on_fractions(R)
    chain = sym_reach_chain(R, start, horizon)
    assert chain == sym_reach_chain(plain, start, horizon) == ref_chain(R, start, horizon), start
    for region in chain:
        assert_fractions(region)
    for include_start in (True, False):
        got = forward_union(R, start, horizon, include_start)
        assert got == forward_union(plain, start, horizon, include_start), (start, include_start)
        assert got == ref_forward_union(R, start, horizon, include_start), (start, include_start)
        assert_fractions(got)
    got = sym_reach(R, start, horizon)
    assert got == sym_reach(plain, start, horizon) == ref_sym_reach(R, start, horizon), start
    assert_fractions(got[0])


def assert_same_grid(R, delta, horizons):
    plain = on_fractions(R)
    for horizon in horizons:
        for plus in (False, True):
            got = grid_transitivity_check(R, delta, horizon, plus)
            assert got == grid_transitivity_check(plain, delta, horizon, plus), (delta, horizon, plus)
            assert got == ref_grid_transitivity_check(R, delta, horizon, plus), (delta, horizon, plus)
            for cell in got.cells:
                assert all(type(v) is F for v in cell)


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
    assert R._table.integral
    rng = random.Random(name)
    for start in starts(R, rng):
        for horizon in (0, 1, 4, 12):
            assert_same_reach(R, start, horizon)
    for delta in (F(1, 3), F(1, 5), F(1, 12)):
        assert_same_grid(R, delta, (0, 1, 3, 8))


def test_ex31_chains_with_long_denominators():
    inst = gallery.build("ex31")
    R = inst.relation
    assert R._table.integral and R._table.denominator.bit_length() > 2000
    for x in (F(0), inst.params["x1"], inst.params["x2"], F(1, 3)):
        for horizon in (10, 30):
            assert_same_reach(R, Region1D.point(x), horizon)


@pytest.mark.parametrize("name", ["exxi", "exhura", "fse2", "tistile"])
def test_gallery_relations(name):
    R = gallery.build(name).relation
    assert R._table.integral
    points = (F(1, 3), *R.space.isolated)
    for start in (Region1D.interval(F(1, 5), F(2, 5)), *map(Region1D.point, points)):
        assert_same_reach(R, start, 20)
    assert_same_grid(R, F(1, 6), (0, 2, 12))


def test_non_integer_slopes_stay_on_fractions():
    ex4 = gallery.build("ex4").relation
    tent = SymbolicRelation(
        Space1D(intervals=[(0, 1)], isolated=[2]),
        [Segment(0, 0, F(1, 2), 1), Segment(F(1, 2), 1, 1, 0), Segment(2, 0, 2, F(1, 3))],
    )
    back = tent.mirrored()  # the slopes 1/2 and -1/2 of the preimages
    assert tent._table.integral
    # backward reaches double their pieces at each step, so they stay short
    for R, horizon in ((ex4, 12), (back, 6)):
        assert not R._table.integral
        assert _Frame(R, (F(1, 3),)).scale is None
        for start in (Region1D.point(F(1, 3)), Region1D.interval(F(1, 5), F(2, 5))):
            assert_same_reach(R, start, horizon)
        assert_same_grid(R, F(1, 5), (0, 3))
    for A in (Region1D.point(F(1, 3)), Region1D.interval(F(1, 5), F(2, 5)), Region1D.point(F(1, 2))):
        assert sym_preimage(tent, A) == ref_sym_image(back, A)


def test_reference_difference_matches_the_sweep():
    rng = random.Random(5)
    for _ in range(500):
        a, b = (Region1D((lo, lo + F(rng.choice((0, 0, 1, 2, 3)), 3))
                         for lo in (F(rng.randint(0, 24), 3) for _ in range(rng.randint(0, 5))))
                for _ in range(2))
        assert region_difference_closure(a, b) == ref_difference_closure(a, b), (a, b)
