"""The successor memo on the compiled table, shared by every search on a relation.

Each search below runs on one relation per gallery interval instance, whose
table memo is kept from search to search, and again on a freshly parsed copy
of the relation, whose memo starts empty.  The searches interleave two choice
steps as a, b, a at one eps, so both steps run on the same scaled table and
only the memo's step key tells their column grids apart; the starts change
the frame's denominator, which rebuilds the scaled table unless the scale it
holds is a multiple of the new one.  Status,
witness and node count must not depend on what the memo already held.  The
reach chases run at the scale the table holds, so they keep the searches'
scaled table and its memo.
"""

from fractions import Fraction as F

import pytest

from crdyn import gallery, symbolic
from crdyn.classify import BudgetExceededError
from crdyn.io import parse_instance
from crdyn.region import Region1D
from crdyn.symbolic import (
    SymbolicRelation,
    bounded_walk_search,
    classify_interval_point,
    nondense_loop_search,
    successor_choices,
    sym_branch_cover,
    sym_reach_chain,
)

INTERVAL_NAMES = [
    name for name in gallery.names() if isinstance(gallery.build(name).relation, SymbolicRelation)
]
EPS = F(1, 16)
STEPS = (F(1, 8), F(1, 16), F(1, 8))  # a, b, a: one frame denominator, two choice grids


def fresh(name: str) -> SymbolicRelation:
    return parse_instance(gallery.build(name).document())


def branch_cover(R, x, step):
    # a small candidate cap keeps the cover selection short; a refusal is compared as a result
    try:
        return sym_branch_cover(R, x, EPS, 4, step, budget=2000, max_candidates=16)
    except BudgetExceededError as exc:
        return str(exc)


SEARCHES = (
    lambda R, x, step: bounded_walk_search(R, x, EPS, 40, step),
    lambda R, x, step: nondense_loop_search(R, x, EPS, 40, step),
    branch_cover,
)


def test_the_interval_instances_are_all_here():
    assert len(INTERVAL_NAMES) == 12


@pytest.mark.parametrize("name", INTERVAL_NAMES)
def test_searches_sharing_a_memo_match_searches_on_a_fresh_copy(name):
    shared = fresh(name)
    space = shared.space
    starts = [space.intervals[0][0], F(1, 2), F(1, 3), *space.isolated]
    for x in starts:
        for step in STEPS:
            for search in SEARCHES:
                assert search(shared, x, step) == search(fresh(name), x, step), (x, step)


@pytest.mark.parametrize("name", ["ex1", "ex4", "ff"])
def test_editing_a_successor_list_changes_no_later_answer(name):
    R = fresh(name)
    x = F(1, 2)
    got = successor_choices(R, x, STEPS[0])
    want = list(got)
    got.clear()
    got.append(F(7))
    assert successor_choices(R, x, STEPS[0]) == want
    # on ex4 the search reads the same table as successor_choices
    assert bounded_walk_search(R, x, EPS, 40, STEPS[0]) == bounded_walk_search(
        fresh(name), x, EPS, 40, STEPS[0]
    )


def test_a_new_step_keeps_the_lists_of_the_others():
    # the memo holds every step asked for, so its hits do not depend on query order
    S, table = fresh("ex4")._table.scaled(7776 * 32)  # depth one: the rows' 7776 times q = 32
    a, b = S * STEPS[0], S * STEPS[1]
    x = S // 2
    first = table.choices(x, a)
    table.choices(x, b)
    assert table.choices(x, a) is first
    assert set(table.memo) == {a, b}


def count_table_builds(monkeypatch) -> list:
    """The sizes of the tables built from here on, one entry per build."""
    builds = []

    class Counted(symbolic._PrimitiveTable):
        __slots__ = ()

        def __init__(self, rows):
            builds.append(len(rows))
            super().__init__(rows)

    monkeypatch.setattr(symbolic, "_PrimitiveTable", Counted)
    return builds


def test_classifying_points_builds_the_scaled_table_once(monkeypatch):
    # ex1's rows need D = 2 and the searches at eps 1/16 need D = 32: every
    # chase runs at the scale the table already holds
    R = fresh("ex1")
    builds = count_table_builds(monkeypatch)
    for x in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1, 16)):
        classify_interval_point(R, x, EPS, 30)
    assert builds == [2]
    D, table = R._table.scaled(1)  # the held table: every scale is a multiple of 1
    assert D == 32 and table.memo


def test_a_chase_between_searches_keeps_their_memo(monkeypatch):
    R = fresh("exxi")
    first = bounded_walk_search(R, F(1, 3), EPS, 40)
    D, table = R._table.scaled(1)
    builds = count_table_builds(monkeypatch)
    for x in (F(1, 3), F(1, 2), F(2)):
        sym_reach_chain(R, Region1D.point(x), 20)
    assert R._table.scaled(1) == (D, table) and builds == []
    assert bounded_walk_search(R, F(1, 3), EPS, 40) == first
    assert builds == []
