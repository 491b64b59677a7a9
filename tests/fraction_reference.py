"""Fraction references for the walk searches and the reach chases.

Every number here is a Fraction, and nothing is scaled.  Successors come from
`ref_successor_choices`, which asks every primitive about the window [p, p]
on every call; images from `ref_sym_image`, which asks every primitive about
every piece; the chases from `ref_frontier_chase` and the grid check from
`ref_grid_transitivity_check` (all in test_compiled_relation), and the grid
discretization from `ref_discretize`, the sweep of Fraction rows over
Fraction cells.  The searches are `_orbit_dfs` and the three searches as they
were before any search ran on a frame's ints, with the farthest-first order
sorting by (distance, -v).

`assert_same_searches`, `assert_same_reach` and `assert_same_grid` compare
the library with these references: status, witness and node count for the
searches, regions and reports for the chases, and Fractions in every answer.
"""

import itertools
from fractions import Fraction as F

import pytest

from crdyn import symbolic
from crdyn.classify import BranchCoverResult, BudgetExceededError, Certainty, _min_cover
from crdyn.density import EpsNet
from crdyn.finite import FiniteRelation, FiniteSpace
from crdyn.region import OrbitCover, Region1D, _as_fraction, _distance
from crdyn.symbolic import (
    _BOX_CAP,
    _capped_cells,
    _meeting,
    _window_image,
    bounded_walk_search,
    forward_union,
    grid_transitivity_check,
    nondense_loop_search,
    sym_branch_cover,
    sym_reach,
    sym_reach_chain,
)
from test_compiled_relation import (
    ref_frontier_chase,
    ref_grid_transitivity_check,
    ref_successor_choices,
    ref_sym_image,
)

# ---------------------------------------------------------------------------
# the searches

_PRUNE = object()


def ref_search_args(R, x, eps, choice_step):
    x = _as_fraction(x)
    eps = _as_fraction(eps)
    if not R.space.contains_point(x):
        raise ValueError(f"{x} is not a point of the space")
    step = _as_fraction(choice_step) if choice_step is not None else eps / 2
    return x, eps, step


def ref_descending(cover, succs):
    return sorted(succs, reverse=True)


def ref_orbit_dfs(R, x, eps, horizon, step, budget, visit, order=ref_descending, memo_first=True):
    best = {}

    def stale(v, orbit, used):
        key = (v, orbit)
        prev = best.get(key)
        if prev is not None and prev <= used:
            return True
        best[key] = used
        return False

    nodes = 0
    stack = [((), frozenset(), OrbitCover(R.space, eps), x)]
    while stack:
        prefix, seen, parent, v = stack.pop()
        walk = prefix + (v,)
        orbit = seen | {v}
        cover = parent.insert(v)
        used = len(walk) - 1
        if memo_first and stale(v, orbit, used):
            continue
        nodes += 1
        if nodes > budget:
            return "budget", None, nodes
        got = visit(walk, orbit, cover)
        if got is _PRUNE:
            continue
        if got is not None:
            return "found", got, nodes
        if not memo_first and stale(v, orbit, used):
            continue
        if used >= horizon:
            continue
        for w in order(cover, ref_successor_choices(R, v, step)):
            stack.append((walk, orbit, cover, w))
    return "exhausted", None, nodes


def ref_bounded_walk_search(R, x, eps, horizon, choice_step=None, budget=100000):
    x, eps, step = ref_search_args(R, x, eps, choice_step)

    def visit(walk, orbit, cover):
        return walk if cover.dense() else None

    def farthest_last(cover, succs):
        pts = cover.points
        return sorted(succs, key=lambda v: (_distance(pts, pts, v), -v))

    return ref_orbit_dfs(R, x, eps, horizon, step, budget, visit, farthest_last)


def ref_nondense_loop_search(R, x, eps, horizon, choice_step=None, budget=100000):
    x, eps, step = ref_search_args(R, x, eps, choice_step)

    def visit(walk, orbit, cover):
        if cover.dense():
            return _PRUNE
        return walk if len(orbit) < len(walk) else None

    return ref_orbit_dfs(R, x, eps, horizon, step, budget, visit, memo_first=False)


def ref_sym_branch_cover(R, x, eps, horizon, choice_step=None, budget=50000, max_candidates=128):
    x, eps, step = ref_search_args(R, x, eps, choice_step)
    achieved = {}

    def visit(walk, orbit, cover):
        known = achieved.get(orbit)
        if known is None or (len(walk), walk) < (len(known), known):
            achieved[orbit] = walk
        return None

    status, _, _ = ref_orbit_dfs(R, x, eps, horizon, step, budget, visit)
    if status == "budget":
        raise BudgetExceededError("walk family too large for branch cover search")
    pairs = sorted(achieved.items(), key=lambda item: item[1])
    kept = []
    for orbit, walk in pairs:
        if any(orbit < other for other, _ in kept):
            continue
        kept = [(o, w) for o, w in kept if not (o < orbit)]
        kept.append((orbit, walk))
    if len(kept) > max_candidates:
        raise BudgetExceededError("too many candidate walks for branch cover search")
    kept.sort(key=lambda item: item[1])
    tests = itertools.count(1)

    def dense(orbit):
        # the budget bounds the cover selection's density tests too
        if next(tests) > budget:
            raise BudgetExceededError("cover selection too large for branch cover search")
        return OrbitCover(R.space, eps, orbit).dense()

    picked = _min_cover(kept, dense)
    if picked is None:
        return BranchCoverResult(None, (), horizon, Certainty.UNKNOWN_AT_HORIZON)
    size, idx = picked
    return BranchCoverResult(size, tuple(kept[i][1] for i in idx), horizon, Certainty.CERTIFIED)


# ---------------------------------------------------------------------------
# the chases


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


def ref_discretize(R, delta, box_cap=_BOX_CAP):
    """The sweep on Fractions: each row over the cells its x-range meets, then the rows its window image meets."""
    cells = _capped_cells(R.space, _as_fraction(delta), box_cap)
    edges = set()
    for row in R._table.rows:
        for i in _meeting(cells, row[0], row[1]):
            ylo, yhi = _window_image(row, *cells[i])
            edges.update((i, j) for j in _meeting(cells, ylo, yhi))
    space = FiniteSpace([f"b{i}" for i in range(len(cells))])
    return FiniteRelation(space, edges), EpsNet(R.space, cells, delta)


# ---------------------------------------------------------------------------
# comparison


def outcome(call):
    try:
        return call()
    except BudgetExceededError as exc:
        return ("raised", str(exc))


def assert_fractions(values):
    assert all(type(v) is F for v in values), values


def assert_region_fractions(region):
    assert_fractions([v for piece in region.pieces for v in piece])


def assert_same_searches(R, x, eps, horizon, step=None, budget=400):
    """All three searches give the reference's status, witness and node count."""
    for new, ref in ((bounded_walk_search, ref_bounded_walk_search),
                     (nondense_loop_search, ref_nondense_loop_search)):
        got = new(R, x, eps, horizon, step, budget)
        want = ref(R, x, eps, horizon, step, budget)
        assert (got.status, got.witness, got.nodes) == want, (new.__name__, x, eps, horizon, step)
        if got.witness is not None:
            assert_fractions(got.witness)
    # few candidates keep the exact cover selection, exponential in them, small
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(symbolic, "_COVER_CANDIDATE_CAP", 10)
        got = outcome(lambda: sym_branch_cover(R, x, eps, horizon, step, budget))
    want = outcome(lambda: ref_sym_branch_cover(R, x, eps, horizon, step, budget, max_candidates=10))
    assert got == want, ("sym_branch_cover", x, eps, horizon, step)
    if isinstance(got, BranchCoverResult):
        for walk in got.witnesses:
            assert_fractions(walk)


def assert_same_reach(R, start, horizon):
    """sym_reach_chain, forward_union and sym_reach agree with the references."""
    chain = sym_reach_chain(R, start, horizon)
    assert chain == ref_chain(R, start, horizon), start
    for region in chain:
        assert_region_fractions(region)
    for include_start in (True, False):
        got = forward_union(R, start, horizon, include_start)
        assert got == ref_forward_union(R, start, horizon, include_start), (start, include_start)
        assert_region_fractions(got)
    got = sym_reach(R, start, horizon)
    assert got == ref_sym_reach(R, start, horizon), start
    assert_region_fractions(got[0])


def assert_same_grid(R, delta, horizons):
    for horizon in horizons:
        for plus in (False, True):
            got = grid_transitivity_check(R, delta, horizon, plus)
            assert got == ref_grid_transitivity_check(R, delta, horizon, plus), (delta, horizon, plus)
            for cell in got.cells:
                assert_fractions(cell)
