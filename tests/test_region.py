import random
from fractions import Fraction as F

import pytest

from crdyn.density import EpsNet
from crdyn.region import (
    Region1D,
    Space1D,
    eps_dense,
    format_fraction,
    grid_cells,
    parse_fraction,
)
from crdyn.symbolic import Segment

UNIT = Space1D(intervals=[(0, 1)])


def random_region(rng: random.Random) -> Region1D:
    pieces = []
    for _ in range(rng.randint(0, 5)):
        a = F(rng.randint(0, 64), 64)
        b = a + F(rng.randint(0, 16), 64)
        pieces.append((a, min(b, F(1))))
    return Region1D(pieces)


def test_canonical_merges_touching_and_overlapping():
    r = Region1D([(F(0), F(1, 2)), (F(1, 2), F(3, 4)), (F(7, 8), F(7, 8))])
    assert r.pieces == ((F(0), F(3, 4)), (F(7, 8), F(7, 8)))


def test_union_intersect_roundtrip(rng):
    for _ in range(200):
        a, b = random_region(rng), random_region(rng)
        u = a.union(b)
        assert u.contains_region(a) and u.contains_region(b)
        i = a.intersect(b)
        assert a.contains_region(i) and b.contains_region(i)
        assert a.intersect(a) == a
        assert a.union(a) == a


def test_membership_and_distance():
    r = Region1D([(F(0), F(1, 4)), (F(1, 2), F(1, 2))])
    assert r.contains_point(F(1, 8))
    assert not r.contains_point(F(3, 8))
    assert r.distance_to(F(3, 8)) == F(1, 8)
    assert r.distance_to(F(1, 2)) == 0
    assert Region1D.empty().distance_to(F(1)) is None


def test_space_rejects_bad_shapes():
    with pytest.raises(ValueError):
        Space1D(intervals=[(0, 1), (F(1, 2), 2)])
    with pytest.raises(ValueError):
        Space1D(intervals=[(0, 1)], isolated=[F(1, 2)])
    with pytest.raises(ValueError):
        Space1D()


def test_space_isolated_points_are_the_listed_ones():
    sp = Space1D(intervals=[(0, 1)], isolated=[2, 3])
    assert sp.isolated == (F(2), F(3))
    assert sp.contains_point(2) and sp.contains_point(F(1, 3))
    assert not sp.contains_point(F(3, 2))


def test_eps_dense_whole_space_any_eps():
    assert eps_dense(UNIT, Region1D.interval(0, 1), F(1, 1000))


def test_eps_dense_single_point_fails():
    # the point 0 sits at distance 1/2 from the center
    assert not eps_dense(UNIT, Region1D.point(F(1, 2)), F(1, 8))


def test_eps_dense_grid_sixteenths():
    # max gap between consecutive sixteenths is 1/16, so radius 1/16 suffices
    grid = Region1D.from_points([F(k, 16) for k in range(17)])
    assert eps_dense(UNIT, grid, F(1, 16))
    assert not eps_dense(UNIT, grid, F(1, 33))


def test_eps_dense_monotone_in_set_and_antitone_in_eps(rng):
    for _ in range(200):
        small = random_region(rng)
        big = small.union(random_region(rng))
        eps = F(rng.randint(1, 32), 64)
        if eps_dense(UNIT, small, eps):
            assert eps_dense(UNIT, big, eps)
            assert eps_dense(UNIT, small, eps * 2)


def test_eps_dense_empty_is_never_dense():
    assert not eps_dense(UNIT, Region1D.empty(), F(1))


def test_eps_dense_isolated_points_must_be_covered():
    sp = Space1D(intervals=[(0, 1)], isolated=[2])
    assert not eps_dense(sp, Region1D.interval(0, 1), F(1, 4))
    assert eps_dense(sp, Region1D([(F(0), F(1)), (F(2), F(2))]), F(1, 4))


def test_eps_dense_agrees_with_bruteforce(rng):
    # oracle: evaluate the distance on a fine sample plus all candidate points
    for _ in range(100):
        region = random_region(rng)
        if region.is_empty():
            continue
        eps = F(rng.randint(1, 24), 64)
        fast = eps_dense(UNIT, region, eps)
        sample = [F(k, 256) for k in range(257)]
        brute = all(region.distance_to(x) <= eps for x in sample)
        if fast:
            assert brute
        # the 1/256 sample can miss a violation by at most 1/512
        if not brute:
            assert not eps_dense(UNIT, region, eps + F(1, 512)) or fast is False


def test_grid_cells_cover_and_width():
    cells = grid_cells(Space1D(intervals=[(0, 1)], isolated=[2]), F(1, 3))
    widths = [hi - lo for lo, hi in cells]
    assert all(w <= F(1, 3) for w in widths)
    assert cells[-1] == (F(2), F(2))
    assert cells[0][0] == 0 and cells[-2][1] == 1


def test_fraction_text_roundtrip():
    assert parse_fraction("3/6") == F(1, 2)
    assert parse_fraction(7) == F(7)
    assert format_fraction(F(4, 2)) == "2"
    assert format_fraction(F(-1, 3)) == "-1/3"
    with pytest.raises(ValueError):
        parse_fraction("0.5x")
    with pytest.raises(ValueError):
        parse_fraction(1.5)
    with pytest.raises(ValueError):
        parse_fraction("1/0")


@pytest.mark.parametrize("text", [
    "0.5", "1e-3", "1_000", " 1/2 ", "1/2\n", "+1", "1/-2", "1/2/3", "", "/2", "1/",
    "\u0661", "inf", "nan", "1 /2",
])
def test_parse_fraction_rejects_non_rational_strings(text):
    with pytest.raises(ValueError):
        parse_fraction(text)


def test_parse_fraction_strict_grammar_accepts_and_reduces():
    assert parse_fraction("-3/6") == F(-1, 2)
    assert parse_fraction("12") == 12
    assert parse_fraction("-0") == 0
    assert parse_fraction("007/14") == F(1, 2)
    with pytest.raises(ValueError):
        parse_fraction(True)


@pytest.mark.parametrize("text", ["0.5", " 1/2 ", "1e-3", "1_000"])
def test_library_constructors_use_the_strict_grammar(text):
    with pytest.raises(ValueError, match="malformed rational"):
        Segment(text, 0, 1, "1/2")
    with pytest.raises(ValueError, match="malformed rational"):
        Region1D.point(text)
    with pytest.raises(ValueError, match="malformed rational"):
        Space1D(intervals=[(0, text)])
    assert Segment("1/2", 0, 1, "2/4") == Segment(F(1, 2), 0, 1, F(1, 2))


def test_eps_net_takes_an_exact_eps():
    sp = Space1D(intervals=[(0, 1)])
    with pytest.raises(TypeError, match="not an exact rational"):
        EpsNet(sp, [(0, 1)], 0.1)
    with pytest.raises(ValueError, match="malformed rational"):
        EpsNet(sp, [(0, 1)], "0.1")
    assert EpsNet(sp, [(0, 1)], "1/10").eps == F(1, 10)


def test_booleans_are_not_rationals():
    for value in (True, False):
        with pytest.raises(TypeError, match="booleans"):
            Segment(value, 0, 1, 1)
        with pytest.raises(TypeError, match="booleans"):
            Region1D.point(value)
        with pytest.raises(TypeError, match="booleans"):
            EpsNet(Space1D(intervals=[(0, 1)]), [(0, 1)], value)


def test_eps_net_rejects_reversed_extents():
    sp = Space1D(intervals=[(0, 1)])
    with pytest.raises(ValueError, match="out of order"):
        EpsNet(sp, [(1, 0)], 1)
    with pytest.raises(ValueError, match="out of order"):
        EpsNet(sp, [(0, F(1, 2)), (F(3, 4), F(1, 2))], F(1, 4))
    assert EpsNet(sp, [(F(1, 2), F(1, 2))], 1).dense(frozenset({0}))


def test_eps_net_rejects_an_extent_across_a_gap():
    sp = Space1D(intervals=[(0, 1), (2, 3)], isolated=[4])
    for extent in [(F(1, 2), F(5, 2)), (1, 2), (3, 4)]:
        with pytest.raises(ValueError, match="leaves the space"):
            EpsNet(sp, [extent], F(1, 2))
    net = EpsNet(sp, [(F(1, 2), 1), (2, F(5, 2)), (4, 4)], F(1, 2))
    assert net.dense(frozenset({0, 1, 2})) and not net.dense(frozenset({0, 1}))
