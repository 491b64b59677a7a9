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

A predicate's `size`, a membership `level` (`k` for `do_transitive`) and
a tree index `n` are refused the same way.  A level is one of 1, 2 and
3, so any other int is refused with the one message "level must be 1, 2,
or 3", before a point is classified; a tree index past the tree's depth
is refused too (`level(-1)` once answered the last level).

A point of a finite space is checked the same way, by `finite._check_point`:
a bool, a float, a Fraction or a str raises a TypeError that names the
parameter (a float once answered `tree_height`, or failed deep inside
with "tuple indices must be integers"), and an int outside the space a
ValueError.  A point set or a walk is checked element by element by
`finite._check_points`, with the same messages: `Exhaustive(3).dense`
once counted {0.5, 1, 2} as the whole space, and `image` answered {True}.
"""

import dataclasses
import importlib
import importlib.util
import inspect
from fractions import Fraction as F
from pathlib import Path

import pytest

import crdyn
from crdyn import classify, density, finite, gallery, symbolic, tree
from crdyn.density import EpsNet, Exhaustive
from crdyn.region import Region1D, Space1D

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
    ("Exhaustive", "size", 1, lambda s: Exhaustive(s)),
    ("membership level", "level", 1, lambda l: classify.membership(G, 0, l)),
    ("trans_set level", "level", 1, lambda l: classify.trans_set(G, l)),
    ("do_transitive k", "k", 1, lambda k: classify.do_transitive(G, k)),
    ("TransTree.level", "n", 0, lambda n: tree.TransTree(G, 0, 3).level(n)),
    ("TransTree.cumulative_level", "n", 0, lambda n: tree.TransTree(G, 0, 3).cumulative_level(n)),
]
OPEN_ENDED = {"reach", "reach_chain", "mahavier_enumerate limit"}  # None runs to stabilisation, or lists every walk
LEVELS = {"membership level", "trans_set level", "do_transitive k"}  # any int but 1, 2 and 3 has one message
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
    bound = "positive" if least else "non-negative"
    message = "level must be 1, 2, or 3" if name in LEVELS else f"{param} must be {bound}"
    with pytest.raises(ValueError, match=f"^{message}$"):
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


def test_reach_grade_reads_its_predicate_like_classify_point():
    """None is the exhaustive predicate, and one sized for another space is refused."""
    one = finite.FiniteRelation(finite.FiniteSpace(["a"]), [(0, 0)])
    with pytest.raises(ValueError, match="^Exhaustive\\(size=5\\) is sized for 5 points, the space has 1$"):
        classify.reach_grade(one, 0, Exhaustive(5))
    assert classify.reach_grade(G, 0, None) == classify.reach_grade(G, 0, Exhaustive(3)) == 2


@pytest.mark.parametrize(
    "name,param,least,call", [row for row in CALLS if row[0] in LEVELS], ids=[name for name in IDS if name in LEVELS]
)
@pytest.mark.parametrize("value", [4, True])
def test_a_level_is_refused_before_any_point_is_classified(name, param, least, call, value, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a point was classified")

    monkeypatch.setattr(classify, "classify_point", refuse)
    with pytest.raises((TypeError, ValueError), match="^(level|k) must be"):
        call(value)


@pytest.mark.parametrize("entry", ["level", "cumulative_level"])
def test_a_tree_index_past_the_depth_is_refused(entry):
    index = getattr(tree.TransTree(G, 0, 3), entry)
    index(3)
    with pytest.raises(ValueError, match=r"^n must be at most the tree's depth, 3$"):
        index(4)


def test_a_tree_checks_its_root_once_and_calls_no_image(monkeypatch):
    checked = []
    check = finite._check_points

    def counted(*args):
        checked.append(args)
        check(*args)

    def refuse(*args, **kwargs):
        raise AssertionError("image was called")

    monkeypatch.setattr(finite, "_check_points", counted)
    monkeypatch.setattr(finite, "image", refuse)
    built = tree.build_tree(G, 0, 6)
    assert checked == [((0,), 3, "root")]
    assert built.levels == tuple(frozenset({n % 3}) for n in range(7))


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
    head, *attrs = name.split()[0].split(".")  # an entry, or a Class.method
    entry = getattr(next(m for m in (finite, classify, tree, symbolic, density) if hasattr(m, head)), head)
    for attr in attrs:
        entry = getattr(entry, attr)
    assert param in inspect.signature(entry).parameters


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


# a net of three extents on [0, 1], each point's extent a third of it
NET = EpsNet(Space1D(intervals=[(0, 1)]), [(0, F(1, 3)), (F(1, 3), F(2, 3)), (F(2, 3), 1)], F(1, 8))
# finite entry taking a point set or a walk, and a call with a set or walk holding a value between 0 and 2;
# on G, 0 -> value -> 2 is a walk when the value equals 1
SETS = [
    ("image", lambda v: finite.image(G, frozenset({0, v, 2}), 1)),
    ("preimage", lambda v: finite.preimage(G, frozenset({0, v, 2}), 1)),
    ("Walk", lambda v: finite.Walk((0, v, 2), G)),
    ("Exhaustive.dense", lambda v: Exhaustive(3).dense(frozenset({0, v, 2}))),
    ("EpsNet.dense", lambda v: NET.dense(frozenset({0, v, 2}))),
]
SET_IDS = [name for name, _ in SETS]


@pytest.mark.parametrize("name,call", SETS, ids=SET_IDS)
@pytest.mark.parametrize("value", [True, 1.0, F(1), "1", 0.5])
def test_a_set_element_that_is_not_an_int_is_refused(name, call, value):
    with pytest.raises(TypeError, match=f"^point must be an int, not {type(value).__name__}$"):
        call(value)


@pytest.mark.parametrize("name,call", SETS, ids=SET_IDS)
@pytest.mark.parametrize("value", [-1, 3])
def test_a_set_element_outside_the_space_is_refused(name, call, value):
    with pytest.raises(ValueError, match="^point outside the space$"):
        call(value)


@pytest.mark.parametrize("name,call", SETS, ids=SET_IDS)
def test_a_set_of_points_runs(name, call):
    call(1)
