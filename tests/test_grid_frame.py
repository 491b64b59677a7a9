"""Grid discretization and the grid check on frame ints against the Fraction code.

`discretize` sweeps rows and cells scaled into a depth-one frame, and is
compared with `ref_discretize` of fraction_reference, the sweep on
Fractions: the same labels, edges and eps-net extents on every gallery
interval relation and on seeded relations with integer and with rational
slopes, at grid widths that are and are not dyadic.
`grid_transitivity_check` chases every cell in one frame, with one step
memo for the call that several cells' chases share, and finds met cells by
bisection; on the seeded relations it gives the reports of the chase loop
and per-cell mark of test_fold_reference, misses in the same order.
"""

from fractions import Fraction as F

import pytest

from conftest import interval_relations
from crdyn.symbolic import discretize, grid_transitivity_check
from fraction_reference import outcome, ref_discretize
from test_fold_reference import ref_grid_transitivity_check
from test_integer_frame import random_integer_slope_relation
from test_rational_frame import random_rational_slope_relation

DELTAS = (F(1, 3), F(1, 8), F(1, 16), F(2, 7))


def seeded_relations(count):
    return [(f"int{seed}", random_integer_slope_relation(seed)) for seed in range(count)] + [
        (f"rat{seed}", random_rational_slope_relation(seed)) for seed in range(count)
    ]


def grid(call):
    """(labels, edges, net extents, net eps) of a discretization, or the budget error it raised."""
    got = outcome(call)
    if isinstance(got, tuple) and got[0] == "raised":
        return got
    finite, net = got
    return finite.space.labels, finite.edges, net.extents, net.eps


@pytest.mark.parametrize("name,R", interval_relations(), ids=lambda v: v if isinstance(v, str) else "")
def test_discretize_gallery_relations(name, R):
    for delta in DELTAS:
        assert grid(lambda: discretize(R, delta)) == grid(lambda: ref_discretize(R, delta)), (name, delta)


def test_discretize_seeded_relations():
    for name, R in seeded_relations(100):
        for delta in DELTAS:
            got = grid(lambda: discretize(R, delta))
            assert got == grid(lambda: ref_discretize(R, delta)), (name, delta)
            assert got[0] != "raised"


def test_grid_check_seeded_relations():
    """The reference chases from G(U) even at horizon 0 when the chase starts
    at n = 1; the horizon-0 answers of that mode are pinned in
    test_symbolic.py::TestHorizonZero instead.
    """
    for name, R in seeded_relations(10):
        for delta in (F(1, 4), F(1, 8)):
            for horizon, plus in ((0, False), (3, False), (3, True), (12, False), (12, True)):
                want = ref_grid_transitivity_check(R, delta, horizon, plus)
                assert grid_transitivity_check(R, delta, horizon, plus) == want, (name, delta, horizon, plus)
