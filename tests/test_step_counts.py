"""Step counts that are not ints are refused before any step is taken.

A symbolic horizon or max_iter is the depth of a `_Frame`, whose scale is
D * q**depth, so a float would reach the frame's int arithmetic, and on
either backend a bool would pass for 0 or 1.  Every entry point refuses
both with one TypeError that names the parameter, raised by
`finite._check_steps`, and an int below the parameter's least value with a
ValueError: a negative one (`reach` and `reach_chain` used to answer it as
0), or a walk count `m` of 0.  Where None means "to stabilisation"
(`reach`, `reach_chain`) or "every walk" (`mahavier_enumerate`'s `limit`)
it still runs.  Node budgets and size caps are counts too, refused the
same way: a search's `budget`, `sym_branch_cover`'s `max_candidates` and
`discretize`'s `box_cap` (a cap of True used to pass for 1).
"""

from fractions import Fraction as F

import pytest

from crdyn import classify, finite, gallery, symbolic, tree
from crdyn.region import Region1D

R = gallery.build("exhura").relation
START = Region1D.point(F(1, 8))
G = finite.FiniteRelation(finite.FiniteSpace(["a", "b", "c"]), [(0, 1), (1, 2), (2, 0)])
# walks are enumerated on a path, whose walks all end, so a count no walk length equals cannot hang a search
PATH = finite.FiniteRelation(finite.FiniteSpace(["a", "b", "c"]), [(0, 1), (1, 2)])


def stopped(call):
    """The call, with a budget stop counted as a run: a small cap may refuse the work, not the count."""

    def run(n):
        try:
            call(n)
        except classify.BudgetExceededError:
            pass

    return run


# entry point, its step parameter, that parameter's least value, and a call with its value
CALLS = [
    ("bounded_walk_search", "horizon", 0, lambda h: symbolic.bounded_walk_search(R, F(1, 8), F(1, 4), h)),
    ("nondense_loop_search", "horizon", 0, lambda h: symbolic.nondense_loop_search(R, F(1, 8), F(1, 4), h)),
    ("sym_branch_cover", "horizon", 0, lambda h: symbolic.sym_branch_cover(R, F(1, 8), F(1, 4), h)),
    ("classify_interval_point", "horizon", 0, lambda h: symbolic.classify_interval_point(R, F(1, 8), F(1, 4), h)),
    ("forward_union", "horizon", 0, lambda h: symbolic.forward_union(R, START, h, True)),
    ("forward_union without start", "horizon", 0, lambda h: symbolic.forward_union(R, START, h, False)),
    ("grid_transitivity_check", "horizon", 0, lambda h: symbolic.grid_transitivity_check(R, F(1, 4), h)),
    ("sym_reach", "max_iter", 0, lambda n: symbolic.sym_reach(R, START, n)),
    ("sym_reach_chain", "max_iter", 0, lambda n: symbolic.sym_reach_chain(R, START, n)),
    ("image", "n", 0, lambda n: finite.image(G, frozenset({0}), n)),
    ("reach", "n", 0, lambda n: classify.reach(G, 0, n)),
    ("reach_chain", "max_steps", 0, lambda n: classify.reach_chain(G, 0, n)),
    ("minimal_dense_branch_cover", "horizon", 0, lambda h: classify.minimal_dense_branch_cover(G, 0, None, h)),
    ("TransTree", "depth", 0, lambda d: tree.TransTree(G, 0, d)),
    ("mahavier_count", "m", 1, lambda m: finite.mahavier_count(PATH, m)),
    ("mahavier_enumerate", "m", 1, lambda m: finite.mahavier_enumerate(PATH, m)),
    ("mahavier_enumerate limit", "limit", 0, lambda k: finite.mahavier_enumerate(PATH, 1, k)),
    ("walks_from", "steps", 0, lambda s: finite.walks_from(PATH, 0, s)),
    ("bounded_walk_search budget", "budget", 0, lambda b: symbolic.bounded_walk_search(R, F(1, 8), F(1, 4), 3, budget=b)),
    ("nondense_loop_search budget", "budget", 0, lambda b: symbolic.nondense_loop_search(R, F(1, 8), F(1, 4), 3, budget=b)),
    ("sym_branch_cover budget", "budget", 0, stopped(lambda b: symbolic.sym_branch_cover(R, F(1, 8), F(1, 4), 3, budget=b))),
    ("sym_branch_cover max_candidates", "max_candidates", 0,
     stopped(lambda c: symbolic.sym_branch_cover(R, F(1, 8), F(1, 4), 3, max_candidates=c))),
    ("discretize box_cap", "box_cap", 0, stopped(lambda c: symbolic.discretize(R, F(1, 4), c))),
]
OPEN_ENDED = {"reach", "reach_chain", "mahavier_enumerate limit"}  # None runs to stabilisation, or lists every walk
IDS = [name for name, _, _, _ in CALLS]


@pytest.fixture
def no_frames(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a frame was built")

    monkeypatch.setattr(symbolic._Frame, "__init__", refuse)


@pytest.mark.parametrize("name,param,least,call", CALLS, ids=IDS)
@pytest.mark.parametrize("value", [1.5, 2.0, float("nan"), True, False, F(2), "2", None])
def test_a_step_count_that_is_not_an_int_is_refused(name, param, least, call, value, no_frames):
    if value is None and name in OPEN_ENDED:
        call(value)
        return
    with pytest.raises(TypeError, match=f"^{param} must be an int, not {type(value).__name__}$"):
        call(value)


@pytest.mark.parametrize("name,param,least,call", CALLS, ids=IDS)
def test_a_negative_step_count_is_refused(name, param, least, call, no_frames):
    """A count below its least value: -1, or 0 where a walk needs a step."""
    with pytest.raises(ValueError, match=f"^{param} must be {'positive' if least else 'non-negative'}$"):
        call(least - 1)


@pytest.mark.parametrize("name,param,least,call", CALLS, ids=IDS)
def test_an_int_step_count_runs(name, param, least, call):
    for n in (least, least + 1, 3):
        call(n)
