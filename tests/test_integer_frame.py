"""The walk searches on the integer frame against the Fraction searches they replaced.

The references below are `_orbit_dfs` and the three searches as they were
before a search on an integer-slope relation ran on the ints n of the values
n/D: every number a Fraction, successors recomputed at every node, and the
farthest-first order sorting by (distance, -v).  The new code must give the
same status, witness and node count, and witnesses made of Fractions.  The
division-free gap test is checked against the midpoint form it replaced.
"""

import random
from fractions import Fraction as F

import pytest

from crdyn import gallery
from crdyn.classify import BranchCoverResult, BudgetExceededError, Certainty, _min_cover
from crdyn.region import OrbitCover, Region1D, Space1D, _CoverFrame, _as_fraction, _distance
from crdyn.symbolic import (
    Segment,
    SinglePoint,
    SymbolicRelation,
    _orbit_dfs,
    _PrimitiveTable,
    _search_frame,
    bounded_walk_search,
    nondense_loop_search,
    successor_choices,
    sym_branch_cover,
)

# ---------------------------------------------------------------------------
# references

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
        for w in order(cover, successor_choices(R, v, step)):
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
    picked = _min_cover(kept, lambda orbit: OrbitCover(R.space, eps, orbit).dense())
    if picked is None:
        return BranchCoverResult(None, (), horizon, Certainty.UNKNOWN_AT_HORIZON)
    size, idx = picked
    return BranchCoverResult(size, tuple(kept[i][1] for i in idx), horizon, Certainty.CERTIFIED)


def ref_bad_gap(components, eps, p, q):
    """The midpoint form: wider than 2 eps, with (p + q) / 2 in a component."""
    if q - p <= 2 * eps:
        return False
    mid = (p + q) / 2
    return any(lo <= mid <= hi for lo, hi in components)


# ---------------------------------------------------------------------------
# comparison


def outcome(call):
    try:
        return call()
    except BudgetExceededError as exc:
        return ("raised", str(exc))


def assert_fractions(walk):
    assert all(type(v) is F for v in walk), walk


def assert_same(R, x, eps, horizon, step=None, budget=400):
    """All three searches give the reference's status, witness and node count."""
    for new, ref in ((bounded_walk_search, ref_bounded_walk_search),
                     (nondense_loop_search, ref_nondense_loop_search)):
        got = new(R, x, eps, horizon, step, budget)
        want = ref(R, x, eps, horizon, step, budget)
        assert (got.status, got.witness, got.nodes) == want, (new.__name__, x, eps, horizon, step)
        if got.witness is not None:
            assert_fractions(got.witness)
    # few candidates keep the exact cover selection, exponential in them, small
    got = outcome(lambda: sym_branch_cover(R, x, eps, horizon, step, budget, max_candidates=10))
    want = outcome(lambda: ref_sym_branch_cover(R, x, eps, horizon, step, budget, max_candidates=10))
    assert got == want, ("sym_branch_cover", x, eps, horizon, step)
    if isinstance(got, BranchCoverResult):
        for walk in got.witnesses:
            assert_fractions(walk)


# ---------------------------------------------------------------------------
# inputs


def interval_relations():
    out = []
    for name in gallery.names():
        inst = gallery.build(name)
        if isinstance(inst.relation, SymbolicRelation):
            out.append((name, inst))
    return out


def gallery_starts(inst):
    """The space's least point, a point a third of the way into its first
    component, every isolated point, and every point among the parameters
    (the surrogate starts carry long denominators)."""
    space = inst.relation.space
    lo, hi = space._components[0]
    params = [v for v in inst.params.values() if isinstance(v, F) and space.contains_point(v)]
    return sorted({lo, lo + (hi - lo) / 3, *space.isolated, *params})


def random_integer_slope_relation(seed):
    """Integer slopes -3..3, columns, single points and isolated points, on
    coordinates in sixths; the space is [0, 2] u [3, 4] u {5/2, 5}."""
    rng = random.Random(seed)
    space = Space1D(intervals=[(0, 2), (3, 4)], isolated=[F(5, 2), 5])
    region = space.region()
    xs = [F(k, 6) for k in range(13)] + [F(k, 6) for k in range(18, 25)] + [F(5, 2), F(5)]

    def inside(lo, hi):
        return region.contains_region(Region1D.interval(lo, hi))

    prims = []
    count = rng.randint(4, 9)
    while len(prims) < count:
        kind = rng.choice(("sloped", "sloped", "sloped", "column", "point"))
        ax = rng.choice(xs)
        if kind == "point":
            prims.append(SinglePoint(ax, rng.choice(xs)))
            continue
        if kind == "column":
            ay, by = sorted((rng.choice(xs), rng.choice(xs)))
            if ay < by and inside(ay, by):
                prims.append(Segment(ax, ay, ax, by))
            continue
        width, slope, ay = F(rng.randint(1, 6), 6), rng.randint(-3, 3), rng.choice(xs)
        bx, by = ax + width, ay + slope * width
        if inside(ax, bx) and inside(min(ay, by), max(ay, by)):
            prims.append(Segment(ax, ay, bx, by))
    # a tent on [0, 2], a flip on [3, 4] and links through the isolated
    # points: every point has a successor, and some walks are dense
    prims += [Segment(0, 0, 1, 2), Segment(1, 2, 2, 0), Segment(3, 4, 4, 3)]
    prims += [SinglePoint(2, 3), SinglePoint(4, F(5, 2)), SinglePoint(F(5, 2), 5)]
    prims.append(SinglePoint(5, rng.choice(xs)))
    return SymbolicRelation(space, prims)


RANDOM = [(f"random{seed}", random_integer_slope_relation(seed)) for seed in range(10)]


# ---------------------------------------------------------------------------
# the searches


@pytest.mark.parametrize("name,inst", interval_relations(), ids=lambda v: v if isinstance(v, str) else "")
def test_gallery_relations(name, inst):
    for eps in (F(1, 8), F(1, 16), F(1, 32)):
        for horizon in (20, 50, 100):
            for x in gallery_starts(inst):
                assert_same(inst.relation, x, eps, horizon)


@pytest.mark.parametrize("name,R", RANDOM, ids=[name for name, _ in RANDOM])
def test_random_integer_slope_relations(name, R):
    assert R._table.integral
    rng = random.Random(name)
    starts = [F(1, 3), F(7, 5), F(10, 3), F(5, 2), F(5), F(rng.randint(0, 12), 6)]
    steps = ((F(1, 3), None), (F(1, 5), F(1, 7)), (F(1, 6), F(1, 10)), (F(1, 4), F(1, 3)))
    for eps, step in steps:
        for horizon in (8, 20):
            for x in starts:
                assert_same(R, x, eps, horizon, step, budget=300)


def test_ex4_runs_on_fractions_at_scale_one():
    R = gallery.build("ex4").relation
    assert not R._table.integral
    frame = _search_frame(R, F(1, 2), F(1, 16), 10, None)
    assert frame.scale is None and frame._table is R._table
    for x in (F(0), F(1, 3), F(1, 2)):
        for eps, step in ((F(1, 16), None), (F(1, 5), F(1, 7))):
            assert_same(R, x, eps, 50, step)


def test_integer_slope_relations_run_on_ints():
    tent = SymbolicRelation(
        Space1D(intervals=[(0, 1)]), [Segment(0, 0, F(1, 2), 1), Segment(F(1, 2), 1, 1, 0)]
    )
    frame = _search_frame(tent, F(1, 3), F(1, 32), 10, F(1, 10))
    assert frame.scale == 480  # the lcm of 2 (the rows), 3, 32 and 10
    assert (frame.x, frame.step, frame.cover.eps) == (160, 48, 15)
    assert frame._table.rows == [(0, 240, 0, 480, 2), (240, 480, 480, 0, -2)]
    # the held scale serves every divisor of it, and a new scale replaces it
    assert tent._table.scaled(480) == (480, frame._table)
    assert tent._table.scaled(96) == (480, frame._table)
    assert tent._table.scaled(7)[1] is not frame._table
    assert tent._table.scaled(7) == (7, tent._table.scaled(7)[1])
    # the surrogate points of exhura give a long common denominator, still exact
    R = gallery.build("exhura").relation
    frame = _search_frame(R, F(1, 3), F(1, 32), 10, None)
    assert frame.scale % R._table.denominator == 0 and frame.scale % 192 == 0
    assert all(type(v) is int for row in frame._table.rows for v in row[:4])


def test_successor_lists_are_computed_once_and_never_changed():
    R = gallery.build("ex1").relation
    frame = _search_frame(R, F(1, 2), F(1, 8), 6, None)
    table = frame._table
    first = table.choices(frame.x, frame.step)
    assert table.choices(frame.x, frame.step) is first
    assert first == [v * frame.scale for v in successor_choices(R, F(1, 2), F(1, 16))]
    _orbit_dfs(frame, 6, 2000, lambda walk, orbit, cover: None)
    assert table.choices(frame.x, frame.step) is first
    assert frame.step in table.memo
    lists = table.memo[frame.step]
    fresh = _PrimitiveTable(table.rows)  # same rows, empty memo
    for v, succs in lists.items():
        assert succs == fresh.choices(v, frame.step)


# ---------------------------------------------------------------------------
# the gap test


def test_division_free_gap_test_matches_the_midpoint_form():
    rng = random.Random(11)
    for _ in range(300):
        count = rng.randint(2, 8)
        ends = sorted({F(rng.randint(-20, 60), rng.choice((1, 2, 3, 7))) for _ in range(count)})
        # disjoint sorted components, some of them single points
        comps = [(lo, hi if rng.random() < 0.7 else lo) for lo, hi in zip(ends[::2], ends[1::2])]
        eps = F(rng.randint(1, 9), rng.choice((2, 3, 5, 8)))
        frame = _CoverFrame(comps, eps)
        D = 840  # a multiple of every denominator drawn here
        scaled = _CoverFrame([(int(lo * D), int(hi * D)) for lo, hi in comps], int(eps * D))
        for _ in range(40):
            p, q = sorted(F(rng.randint(-40, 130), rng.choice((1, 2, 4, 5, 6))) for _ in range(2))
            want = ref_bad_gap(comps, eps, p, q)
            assert frame.bad_gap(p, q) == want, (comps, eps, p, q)
            assert scaled.bad_gap(int(p * D), int(q * D)) == want, (comps, eps, p, q)
