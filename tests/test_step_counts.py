"""Step counts that are not ints are refused before any frame is built.

A horizon or max_iter is the depth of a `_Frame`, whose scale is
D * q**depth, so a float would reach the frame's int arithmetic and a bool
would pass for 0 or 1.  Every entry point refuses both with one TypeError
that names the parameter, raised by `symbolic._check_steps`; a negative int
still gives the ValueError it gave before.
"""

from fractions import Fraction as F

import pytest

from crdyn import gallery, symbolic
from crdyn.region import Region1D

R = gallery.build("exhura").relation
START = Region1D.point(F(1, 8))

# entry point, its step parameter, and a call with that parameter's value
CALLS = [
    ("bounded_walk_search", "horizon", lambda h: symbolic.bounded_walk_search(R, F(1, 8), F(1, 4), h)),
    ("nondense_loop_search", "horizon", lambda h: symbolic.nondense_loop_search(R, F(1, 8), F(1, 4), h)),
    ("sym_branch_cover", "horizon", lambda h: symbolic.sym_branch_cover(R, F(1, 8), F(1, 4), h)),
    ("classify_interval_point", "horizon", lambda h: symbolic.classify_interval_point(R, F(1, 8), F(1, 4), h)),
    ("forward_union", "horizon", lambda h: symbolic.forward_union(R, START, h, True)),
    ("forward_union without start", "horizon", lambda h: symbolic.forward_union(R, START, h, False)),
    ("grid_transitivity_check", "horizon", lambda h: symbolic.grid_transitivity_check(R, F(1, 4), h)),
    ("sym_reach", "max_iter", lambda n: symbolic.sym_reach(R, START, n)),
    ("sym_reach_chain", "max_iter", lambda n: symbolic.sym_reach_chain(R, START, n)),
]
IDS = [name for name, _, _ in CALLS]


@pytest.fixture
def no_frames(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a frame was built")

    monkeypatch.setattr(symbolic._Frame, "__init__", refuse)


@pytest.mark.parametrize("name,param,call", CALLS, ids=IDS)
@pytest.mark.parametrize("value", [1.5, 2.0, float("nan"), True, False, F(2), "2", None])
def test_a_step_count_that_is_not_an_int_is_refused(name, param, call, value, no_frames):
    with pytest.raises(TypeError, match=f"^{param} must be an int, not {type(value).__name__}$"):
        call(value)


@pytest.mark.parametrize("name,param,call", CALLS, ids=IDS)
def test_a_negative_step_count_is_refused(name, param, call, no_frames):
    with pytest.raises(ValueError, match=f"^{param} must be non-negative$"):
        call(-1)


@pytest.mark.parametrize("name,param,call", CALLS, ids=IDS)
def test_an_int_step_count_runs(name, param, call):
    for n in (0, 1, 3):
        call(n)
