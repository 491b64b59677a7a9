"""Step counts and points that are not ints are refused before any step is taken.

A symbolic horizon or max_iter is the depth of a `_Frame`, whose scale is
D * q**depth, so a float would reach the frame's int arithmetic, and on
either backend a bool would pass for 0 or 1.  Every entry point refuses
both with one TypeError that names the parameter, raised by
`finite._check_steps`, and an int below the parameter's least value with a
ValueError: a negative one (`reach` and `reach_chain` used to answer it as
0), or a walk count `m` of 0.  Where None means "to stabilisation"
(`reach`, `reach_chain`) or "every walk" (`mahavier_enumerate`'s `limit`)
it still runs.  Node budgets and size caps are counts too, refused the
same way: a search's `budget`, the finite `search_budget` and
`discretize`'s `box_cap` (a cap of True used to pass for 1).  A guard
walks every callable `crdyn` exports and every name the benchmark's traced
run wraps, so a count parameter without a row here fails the suite.

A point of a finite space is checked the same way, by `finite._check_point`:
a bool, a float, a Fraction or a str raises a TypeError that names the
parameter (a float once answered `tree_height`, or failed deep inside
with "tuple indices must be integers"), and an int outside the space a
ValueError.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from fractions import Fraction as F
from pathlib import Path

import pytest

import crdyn
from crdyn import classify, finite, gallery, symbolic, tree
from crdyn.density import Exhaustive
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
    ("preimage", "n", 0, lambda n: finite.preimage(G, frozenset({0}), n)),
    ("reach", "n", 0, lambda n: classify.reach(G, 0, n)),
    ("reach_chain", "max_steps", 0, lambda n: classify.reach_chain(G, 0, n)),
    ("minimal_dense_branch_cover", "horizon", 0, lambda h: classify.minimal_dense_branch_cover(G, 0, None, h)),
    ("TransTree", "depth", 0, lambda d: tree.TransTree(G, 0, d)),
    ("build_tree", "depth", 0, lambda d: tree.build_tree(G, 0, d)),
    ("mahavier_count", "m", 1, lambda m: finite.mahavier_count(PATH, m)),
    ("mahavier_enumerate", "m", 1, lambda m: finite.mahavier_enumerate(PATH, m)),
    ("mahavier_enumerate limit", "limit", 0, lambda k: finite.mahavier_enumerate(PATH, 1, k)),
    ("walks_from", "steps", 0, lambda s: finite.walks_from(PATH, 0, s)),
    ("bounded_walk_search budget", "budget", 0, lambda b: symbolic.bounded_walk_search(R, F(1, 8), F(1, 4), 3, budget=b)),
    ("nondense_loop_search budget", "budget", 0, lambda b: symbolic.nondense_loop_search(R, F(1, 8), F(1, 4), 3, budget=b)),
    ("sym_branch_cover budget", "budget", 0, stopped(lambda b: symbolic.sym_branch_cover(R, F(1, 8), F(1, 4), 3, budget=b))),
    ("classify_point search_budget", "search_budget", 0, lambda b: classify.classify_point(G, 0, None, b)),
    ("classify_all search_budget", "search_budget", 0, lambda b: classify.classify_all(G, None, b)),
    ("membership search_budget", "search_budget", 0, lambda b: classify.membership(G, 0, 1, None, b)),
    ("branch_summary search_budget", "search_budget", 0, lambda b: tree.branch_summary(G, 0, None, b)),
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


@pytest.mark.parametrize("entry", [classify.classify_point, tree.branch_summary], ids=lambda f: f.__name__)
def test_a_search_budget_is_refused_before_the_condensation_is_built(entry):
    fresh = finite.FiniteRelation(G.space, G.edges)
    with pytest.raises(ValueError, match="^search_budget must be non-negative$"):
        entry(fresh, 0, None, -5)
    assert fresh._analysis is None


# the names a count parameter goes by; a parameter so named must have a CALLS row
COUNT_NAMES = {
    "n", "m", "steps", "depth", "horizon", "max_iter", "max_steps", "limit", "budget", "search_budget", "box_cap",
}
TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"


def traced_entries():
    """(name, callable) for each name in the TARGETS of the benchmark's traced run."""
    spec = importlib.util.spec_from_file_location("perfbench_trace_targets", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    for module_name, attr, _ in module.TARGETS:
        obj = importlib.import_module(module_name)
        for part in attr.split("."):
            obj = getattr(obj, part)
        yield attr.removesuffix(".__init__").split(".")[-1], obj


def count_parameters():
    """(entry, parameter) for each count parameter of an exported or traced callable.

    Result records (dataclasses) store a count that a query already
    checked, and exceptions take a message, so neither is an entry.
    """
    exported = [(name, obj) for name, obj in vars(crdyn).items() if not name.startswith("_") and callable(obj)]
    found = set()
    for name, obj in exported + list(traced_entries()):
        if dataclasses.is_dataclass(obj) or (isinstance(obj, type) and issubclass(obj, BaseException)):
            continue
        found |= {(name, p) for p in inspect.signature(obj).parameters if p in COUNT_NAMES}
    return found


def test_every_count_parameter_has_a_row():
    rows = {(name.split()[0], param) for name, param, _, _ in CALLS}
    missing = count_parameters() - rows
    assert not missing, f"count parameters with no CALLS row: {sorted(missing)}"


@pytest.mark.parametrize("name,param,least,call", CALLS, ids=IDS)
def test_every_row_names_a_parameter_of_its_entry(name, param, least, call):
    entry = name.split()[0]
    owner = next(m for m in (finite, classify, tree, symbolic) if hasattr(m, entry))
    assert param in inspect.signature(getattr(owner, entry)).parameters


# finite entry, the name its point goes by in messages, and a call with that point;
# G's points are 0, 1 and 2
POINTS = [
    ("reach", "point", lambda x: classify.reach(G, x)),
    ("reach with n", "point", lambda x: classify.reach(G, x, 2)),
    ("reach_chain", "point", lambda x: classify.reach_chain(G, x)),
    ("reach_grade", "point", lambda x: classify.reach_grade(G, x, Exhaustive(3))),
    ("orbit_union", "point", lambda x: classify.orbit_union(G, x)),
    ("classify_point", "point", lambda x: classify.classify_point(G, x)),
    ("membership", "point", lambda x: classify.membership(G, x, 1)),
    ("oracle_classify", "point", lambda x: classify.oracle_classify(G, x)),
    ("minimal_dense_branch_cover", "point", lambda x: classify.minimal_dense_branch_cover(G, x)),
    ("branch_summary", "point", lambda x: tree.branch_summary(G, x)),
    ("tree_height", "point", lambda x: tree.tree_height(G, x)),
    ("unique_branch", "point", lambda x: tree.unique_branch(G, x)),
    ("unique_infinite_branch", "point", lambda x: tree.unique_infinite_branch(G, x)),
    ("walks_from", "point", lambda x: finite.walks_from(G, x, 2)),
    ("TransTree", "root", lambda x: tree.TransTree(G, x, 2)),
    ("build_tree", "root", lambda x: tree.build_tree(G, x, 2)),
]
POINT_IDS = [name for name, _, _ in POINTS]


@pytest.mark.parametrize("name,param,call", POINTS, ids=POINT_IDS)
@pytest.mark.parametrize("value", [True, False, 1.0, F(1), "1"])
def test_a_point_that_is_not_an_int_is_refused(name, param, call, value):
    with pytest.raises(TypeError, match=f"^{param} must be an int, not {type(value).__name__}$"):
        call(value)


@pytest.mark.parametrize("name,param,call", POINTS, ids=POINT_IDS)
@pytest.mark.parametrize("value", [-1, 3])
def test_a_point_outside_the_space_is_refused(name, param, call, value):
    with pytest.raises(ValueError, match=f"^{param} outside the space$"):
        call(value)


@pytest.mark.parametrize("name,param,call", POINTS, ids=POINT_IDS)
def test_every_point_of_the_space_runs(name, param, call):
    for x in range(3):
        call(x)
