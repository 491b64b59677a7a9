"""EpsNet checks its extents on ints.

D is taken from every denominator first (eps, the extent ends, the space's
component ends); then each extent is checked in turn on the ints n of n/D:
its ends in order, then the extent inside the one component that can hold
it, found by one bisect against the scaled component starts.  On seeded
random spaces and extents the containment check must refuse exactly the
extents that the region route (`Space1D.contains_region`) refuses, and each
bad extent must give its own message, the order check first.
"""

import random
from fractions import Fraction as F

import pytest

from crdyn.density import EpsNet
from crdyn.region import Region1D, Space1D
from test_cover_kernel import random_space


def near(rng, component):
    """A point of the component on its eighths grid, or 1/9 off it."""
    lo, hi = component
    return lo + (hi - lo) * F(rng.randint(0, 8), 8) + rng.choice((0, 0, 0, F(-1, 9), F(1, 9)))


def test_containment_matches_the_region_route():
    rng = random.Random(62)
    refused = accepted = 0
    for _ in range(400):
        space = random_space(rng, rng.choice((None, [3, 7], [12, 64])))
        comps = space._components
        for _ in range(8):
            # both ends near one component, or near two (across a gap)
            first = rng.choice(comps)
            second = first if rng.random() < 0.7 else rng.choice(comps)
            lo, hi = sorted((near(rng, first), near(rng, second)))
            if space.contains_region(Region1D._wrap(((lo, hi),))):
                accepted += 1
                assert EpsNet(space, [(lo, hi)], F(1, 5)).extents == ((lo, hi),)
            else:
                refused += 1
                with pytest.raises(ValueError, match=r"^extent \[.*\] leaves the space$"):
                    EpsNet(space, [(lo, hi)], F(1, 5))
    assert accepted > 1000 and refused > 1000


def test_an_extent_out_of_order_is_refused():
    sp = Space1D(intervals=[(0, 1)])
    with pytest.raises(ValueError, match=r"^extent bounds out of order: \[3/4,1/2\]$"):
        EpsNet(sp, [(0, F(1, 2)), (F(3, 4), F(1, 2))], F(1, 4))


def test_an_extent_leaving_the_space_is_refused():
    sp = Space1D(intervals=[(0, 1), (2, 3)], isolated=[4])
    for extent, text in [((F(1, 2), F(5, 2)), r"\[1/2,5/2\]"), ((-1, 0), r"\[-1,0\]"),
                         ((3, 4), r"\[3,4\]"), ((F(9, 2), 5), r"\[9/2,5\]"), ((4, 5), r"\[4,5\]")]:
        with pytest.raises(ValueError, match=rf"^extent {text} leaves the space$"):
            EpsNet(sp, [(0, 1), extent], F(1, 2))


def test_each_extent_is_checked_in_turn_order_first():
    sp = Space1D(intervals=[(0, 1)])
    # out of order and outside: the order check comes first
    with pytest.raises(ValueError, match="out of order"):
        EpsNet(sp, [(3, 2)], 1)
    # an earlier extent that leaves the space is reported before a later reversed one
    with pytest.raises(ValueError, match="leaves the space"):
        EpsNet(sp, [(0, 2), (1, 0)], 1)
    with pytest.raises(ValueError, match="out of order"):
        EpsNet(sp, [(1, 0), (0, 2)], 1)
