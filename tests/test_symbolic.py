import random
from fractions import Fraction as F

import pytest

from crdyn import gallery
from crdyn.classify import BudgetExceededError
from crdyn.region import Region1D, Space1D, eps_dense
from crdyn.symbolic import (
    Segment,
    SinglePoint,
    SymbolicRelation,
    bounded_walk_search,
    classify_interval_point,
    discretize,
    forward_union,
    grid_transitivity_check,
    nondense_loop_search,
    point_successors,
    projections,
    region_difference_closure,
    successor_choices,
    sym_branch_cover,
    sym_image,
    sym_preimage,
    sym_reach,
    sym_reach_chain,
)
from region_helpers import covered_region

UNIT = Space1D(intervals=[(0, 1)])
CROSS_MID = SymbolicRelation(
    UNIT, [Segment(0, F(1, 2), 1, F(1, 2)), Segment(F(1, 2), 0, F(1, 2), 1)]
)
CROSS_ZERO = SymbolicRelation(UNIT, [Segment(0, 1, 1, 1), Segment(0, 0, 0, 1)])


def segment_meets_box(seg: Segment, x0, x1, y0, y1) -> bool:
    """Exact closed segment vs closed axis box test (Liang-Barsky clipping).

    The box test discretize made for every cell pair before it swept columns
    per primitive; kept as the reference for its edges.
    """
    px, py = seg.x1, seg.y1
    dx, dy = seg.x2 - seg.x1, seg.y2 - seg.y1
    t0, t1 = F(0), F(1)
    for p, q in (
        (-dx, px - x0),
        (dx, x1 - px),
        (-dy, py - y0),
        (dy, y1 - py),
    ):
        if p == 0:
            if q < 0:
                return False
        else:
            r = F(q, 1) / p
            if p < 0:
                if r > t0:
                    t0 = r
            else:
                if r < t1:
                    t1 = r
    return t0 <= t1


def random_segments(rng: random.Random, count: int) -> list[Segment]:
    out = []
    while len(out) < count:
        x1, y1, x2, y2 = (F(rng.randint(0, 32), 32) for _ in range(4))
        if (x1, y1) != (x2, y2):
            out.append(Segment(x1, y1, x2, y2))
    return out


class TestConstruction:
    def test_rejects_primitives_outside_space(self):
        with pytest.raises(ValueError):
            SymbolicRelation(UNIT, [Segment(0, 0, 2, 1)])
        with pytest.raises(ValueError):
            SymbolicRelation(UNIT, [SinglePoint(0, 2)])
        with pytest.raises(ValueError):
            SymbolicRelation(UNIT, [])

    def test_rejects_degenerate_segment(self):
        with pytest.raises(ValueError):
            Segment(0, 0, 0, 0)

    def test_segment_spanning_a_gap_is_rejected(self):
        sp = Space1D(intervals=[(0, F(1, 4)), (F(1, 2), 1)])
        with pytest.raises(ValueError):
            SymbolicRelation(sp, [Segment(0, 0, 1, 1)])


class TestImages:
    def test_column_fans_out(self):
        assert sym_image(CROSS_ZERO, Region1D.point(0)) == Region1D.interval(0, 1)

    def test_interior_point_maps_to_one(self):
        assert sym_image(CROSS_ZERO, Region1D.point(F(3, 10))) == Region1D.point(1)

    def test_sloped_segment_interpolates(self):
        R = SymbolicRelation(UNIT, [Segment(0, 0, 1, 1)])
        got = sym_image(R, Region1D.interval(F(1, 4), F(1, 2)))
        assert got == Region1D.interval(F(1, 4), F(1, 2))

    def test_empty_region_propagates(self):
        assert sym_image(CROSS_ZERO, Region1D.empty()) == Region1D.empty()

    def test_preimage_is_mirrored_image_on_random(self, rng):
        for _ in range(200):
            segs = random_segments(rng, rng.randint(1, 4))
            R = SymbolicRelation(UNIT, segs)
            a = F(rng.randint(0, 16), 16)
            b = min(a + F(rng.randint(0, 8), 16), F(1))
            A = Region1D.interval(a, b)
            assert sym_preimage(R, A) == sym_image(R.mirrored(), A)

    def test_projections(self):
        p1, p2 = projections(CROSS_MID)
        assert p1 == Region1D.interval(0, 1)
        assert p2 == Region1D.interval(0, 1)
        sp = Space1D(intervals=[(0, 1)], isolated=[2])
        tent_plus = SymbolicRelation(
            sp,
            [Segment(0, 0, F(1, 2), 1), Segment(F(1, 2), 1, 1, 0), SinglePoint(2, F(1, 3))],
        )
        p1, p2 = projections(tent_plus)
        assert p1 == sp.region()
        assert p2 == Region1D.interval(0, 1)  # nothing reaches 2


class TestRegionDifference:
    def test_closure_keeps_endpoints(self):
        a = Region1D.interval(0, 1)
        b = Region1D.interval(0, F(1, 2))
        assert region_difference_closure(a, b) == Region1D.interval(F(1, 2), 1)

    def test_removing_interior_point_changes_nothing(self):
        a = Region1D.interval(0, 1)
        b = Region1D.point(F(1, 2))
        assert region_difference_closure(a, b) == a

    def test_total_removal(self):
        a = Region1D.interval(0, F(1, 2))
        assert region_difference_closure(a, Region1D.interval(0, 1)) == Region1D.empty()


class TestReach:
    def test_cross_zero_one_step(self):
        region, stabilized = sym_reach(CROSS_ZERO, Region1D.point(0), 1)
        assert region == Region1D.interval(0, 1)
        assert stabilized

    def test_interior_points_stabilize_at_pair(self):
        region, stabilized = sym_reach(CROSS_ZERO, Region1D.point(F(3, 10)), 10)
        assert region == Region1D.from_points([F(3, 10), F(1)])
        assert stabilized

    def test_unstabilized_is_flagged(self):
        # 1/11 has period five under the tent map, so three steps cannot close it
        R = SymbolicRelation(UNIT, [Segment(0, 0, F(1, 2), 1), Segment(F(1, 2), 1, 1, 0)])
        region, stabilized = sym_reach(R, Region1D.point(F(1, 11)), 3)
        assert not stabilized
        full, stab = sym_reach(R, Region1D.point(F(1, 11)), 8)
        assert stab
        assert full == Region1D.from_points(
            [F(1, 11), F(2, 11), F(4, 11), F(8, 11), F(6, 11), F(10, 11)]
        )

    def test_matches_naive_iteration(self, rng):
        for _ in range(50):
            segs = random_segments(rng, rng.randint(1, 3))
            R = SymbolicRelation(UNIT, segs)
            start = Region1D.point(F(rng.randint(0, 8), 8))
            fast, _ = sym_reach(R, start, 4)
            slow = start
            acc = start
            for _ in range(4):
                acc = acc.union(sym_image(R, acc))
            assert fast == acc


class TestDiscretize:
    def test_cross_mid_column_box_reaches_all(self):
        finite, pred = discretize(CROSS_MID, F(1, 4))
        assert finite.space.size == 4
        mid_boxes = [i for i, (a, b) in enumerate(pred.extents) if a <= F(1, 2) <= b]
        for box in mid_boxes:
            assert finite.successors(box) == (0, 1, 2, 3)

    def test_single_point_relation(self):
        sp = Space1D(intervals=[(0, 1)])
        R = SymbolicRelation(sp, [SinglePoint(F(1, 8), F(7, 8))])
        finite, pred = discretize(R, F(1, 2))
        assert finite.edges == frozenset({(0, 1)})

    def test_box_cap(self):
        with pytest.raises(BudgetExceededError):
            discretize(CROSS_MID, F(1, 10000))

    def test_soundness_on_random_sloped_segments(self, rng):
        # every exact n-step image lands inside the union of boxes reachable
        # in n box steps, for n up to 4
        from crdyn.finite import image as fimage

        for _ in range(100):
            segs = random_segments(rng, rng.randint(1, 3))
            R = SymbolicRelation(UNIT, segs)
            finite, pred = discretize(R, F(1, 8))
            start = F(rng.randint(0, 16), 16)
            start_boxes = frozenset(
                i for i, (a, b) in enumerate(pred.extents) if a <= start <= b
            )
            exact = Region1D.point(start)
            for n in range(1, 5):
                exact = sym_image(R, exact)
                boxes = fimage(finite, start_boxes, n)
                cover = covered_region(pred, boxes)
                assert cover.contains_region(exact), (segs, start, n)


class TestSegmentBoxIntersection:
    def test_touching_corner_counts(self):
        seg = Segment(0, 0, 1, 1)
        assert segment_meets_box(seg, F(1, 2), 1, 0, F(1, 2))

    def test_disjoint(self):
        seg = Segment(0, 0, F(1, 4), F(1, 4))
        assert not segment_meets_box(seg, F(1, 2), 1, 0, F(1, 2))

    def test_vertical_segment(self):
        seg = Segment(F(1, 2), 0, F(1, 2), 1)
        assert segment_meets_box(seg, F(1, 4), F(3, 4), F(1, 4), F(1, 2))
        assert not segment_meets_box(seg, F(5, 8), F(3, 4), 0, 1)

    def test_agrees_with_sampling(self, rng):
        for _ in range(300):
            seg = random_segments(rng, 1)[0]
            x0 = F(rng.randint(0, 3), 4)
            y0 = F(rng.randint(0, 3), 4)
            box = (x0, x0 + F(1, 4), y0, y0 + F(1, 4))
            fast = segment_meets_box(seg, *box)
            hits = False
            for k in range(33):
                t = F(k, 32)
                px = seg.x1 + t * (seg.x2 - seg.x1)
                py = seg.y1 + t * (seg.y2 - seg.y1)
                if box[0] <= px <= box[1] and box[2] <= py <= box[3]:
                    hits = True
                    break
            if hits:
                assert fast  # sampling can miss, but never the other way


class TestWalkSearch:
    def test_cross_mid_finds_dense_walk(self):
        res = bounded_walk_search(CROSS_MID, F(1, 2), F(1, 64), 200)
        assert res.found
        walk = res.witness
        assert len(walk) - 1 <= 200
        # verify the witness is a genuine walk with a dense orbit
        for a, b in zip(walk, walk[1:]):
            singles, ranges = point_successors(CROSS_MID, a)
            assert b in singles or any(lo <= b <= hi for lo, hi in ranges)
        assert eps_dense(UNIT, Region1D.from_points(walk), F(1, 64))

    def test_forced_orbit_is_never_dense(self):
        res = bounded_walk_search(CROSS_ZERO, F(3, 10), F(1, 5), 50)
        assert not res.found
        assert res.status == "exhausted"

    def test_constant_relation(self):
        R = SymbolicRelation(UNIT, [Segment(0, 1, 1, 1)])
        res = bounded_walk_search(R, F(1, 3), F(1, 5), 50)
        assert not res.found

    def test_budget_is_reported(self):
        res = bounded_walk_search(CROSS_MID, F(1, 2), F(1, 64), 200, budget=5)
        assert res.status == "budget"

    def test_loop_search_finds_constant_loop(self):
        res = nondense_loop_search(CROSS_MID, F(1, 2), F(1, 8), 20)
        assert res.found
        assert res.witness[-1] in res.witness[:-1]

    def test_loop_search_exhausts_on_loopless_walks(self):
        # strictly increasing map: no walk can revisit a point
        R = SymbolicRelation(UNIT, [Segment(0, F(1, 2), 1, 1)])
        res = nondense_loop_search(R, F(1, 4), F(1, 16), 30)
        assert not res.found
        assert res.status == "exhausted"


class TestBranchCover:
    def test_fork_needs_two_walks(self):
        sp = Space1D(intervals=[(0, 1)])
        R = SymbolicRelation(
            sp,
            [
                SinglePoint(F(1, 2), F(1, 8)),
                SinglePoint(F(1, 2), F(7, 8)),
                Segment(0, 0, F(1, 2), F(1, 2)),  # identity-ish left ramp
                Segment(F(1, 2), F(1, 2), 1, 1),
            ],
        )
        res = sym_branch_cover(R, F(1, 2), F(1, 2), 4)
        assert res.size is not None

    def test_single_dense_walk_gives_one(self):
        res = sym_branch_cover(CROSS_MID, F(1, 2), F(1, 4), 30)
        assert res.size == 1

    def test_start_outside_the_space_is_rejected(self):
        # the same argument checks as the walk and loop searches
        with pytest.raises(ValueError, match="not a point of the space"):
            sym_branch_cover(CROSS_MID, 5, F(1, 4), 3)


class TestGridTransitivity:
    def test_cross_mid_is_grid_transitive(self):
        report = grid_transitivity_check(CROSS_MID, F(1, 4), 8)
        assert report.transitive
        assert report.max_steps_needed <= 8

    def test_cross_zero_is_not(self):
        report = grid_transitivity_check(CROSS_ZERO, F(1, 4), 16)
        assert not report.transitive

    def test_oversized_grid_is_refused_before_any_chase(self, monkeypatch):
        def no_image(*args):
            raise AssertionError("the grid was chased")

        monkeypatch.setattr("crdyn.symbolic.sym_image", no_image)
        with pytest.raises(BudgetExceededError, match="^100000 grid boxes exceed the cap of 4096$"):
            grid_transitivity_check(gallery.build("ex1").relation, F(1, 100000), 60)
        # the cap counts isolated points: [0, 1] u {2} has 4095 + 1 cells at 1/4095
        ff = gallery.build("ff").relation
        with pytest.raises(BudgetExceededError, match="^4097 grid boxes"):
            grid_transitivity_check(ff, F(1, 4096), 1)
        with pytest.raises(AssertionError, match="chased"):
            grid_transitivity_check(ff, F(1, 4095), 1)

    def test_forward_union_modes(self):
        # from the top cell the chain never leaves {1}, so the positive union
        # is a single point while the zero-step union keeps the cell
        u = forward_union(CROSS_ZERO, Region1D.interval(F(3, 4), 1), 10, include_start=False)
        assert u == Region1D.point(1)
        u0 = forward_union(CROSS_ZERO, Region1D.interval(F(3, 4), 1), 10, include_start=True)
        assert u0 == Region1D.interval(F(3, 4), 1)


class TestHorizonZero:
    """A chase that starts at n = 1 reaches nothing within horizon 0."""

    def test_positive_forward_union_is_empty(self):
        for R in (CROSS_MID, CROSS_ZERO):
            for U in (Region1D.point(F(1, 2)), Region1D.interval(F(3, 4), 1)):
                assert forward_union(R, U, 0, include_start=False) == Region1D.empty()
                assert forward_union(R, U, 1, include_start=False) == sym_image(R, U)
                assert forward_union(R, U, 0, include_start=True) == U

    def test_positive_grid_check_misses_every_pair(self):
        for R in (CROSS_MID, CROSS_ZERO):
            report = grid_transitivity_check(R, F(1, 4), 0, positive_only=True)
            n = len(report.cells)
            assert n == 4
            assert not report.transitive
            assert report.max_steps_needed == 0
            assert report.misses == tuple((u, v) for u in range(n) for v in range(n))


class TestNegativeHorizon:
    """Every chase refuses a negative horizon, as sym_reach does."""

    def ex1(self):
        return gallery.build("ex1").relation

    def test_sym_reach(self):
        with pytest.raises(ValueError, match="non-negative"):
            sym_reach(self.ex1(), Region1D.point(0), -1)

    def test_forward_union(self):
        for include_start in (True, False):
            with pytest.raises(ValueError, match="non-negative"):
                forward_union(self.ex1(), Region1D.point(0), -1, include_start=include_start)

    def test_grid_transitivity_check(self):
        for positive_only in (False, True):
            with pytest.raises(ValueError, match="non-negative"):
                grid_transitivity_check(self.ex1(), F(1, 4), -1, positive_only=positive_only)

    def test_sym_reach_chain(self):
        with pytest.raises(ValueError, match="non-negative"):
            sym_reach_chain(self.ex1(), Region1D.point(0), -1)


class TestSearchArguments:
    """The three searches refuse a bad start, horizon, eps or step, checked in that order."""

    SEARCHES = (bounded_walk_search, nondense_loop_search, sym_branch_cover)

    def test_negative_horizon(self):
        for search in self.SEARCHES:
            for horizon in (-1, -2):
                with pytest.raises(ValueError, match="non-negative"):
                    search(CROSS_MID, F(1, 2), F(1, 4), horizon)

    def test_step_that_is_not_positive(self):
        # a negative step used to count down forever, and 0 to divide by zero
        for search in self.SEARCHES:
            for step in (F(-1, 4), 0):
                with pytest.raises(ValueError, match="choice_step must be positive"):
                    search(CROSS_MID, F(1, 2), F(1, 4), 5, choice_step=step)
        for step in (F(-1, 4), 0):
            with pytest.raises(ValueError, match="choice_step must be positive"):
                successor_choices(CROSS_MID, F(1, 2), step)

    def test_eps_that_is_not_positive(self):
        for search in self.SEARCHES:
            for eps in (0, F(-1, 4)):
                with pytest.raises(ValueError, match="eps must be positive"):
                    search(CROSS_MID, F(1, 2), eps, 5)

    def test_the_query_is_checked_in_one_order(self):
        # x, then horizon, then eps, then the choice step: each case breaks
        # every check from its own on, and only the first may speak
        cases = (
            (F(2), -1, 0, 0, "is not a point of the space"),
            (F(1, 2), -1, 0, 0, "horizon must be non-negative"),
            (F(1, 2), 5, 0, 0, "eps must be positive"),
            (F(1, 2), 5, F(1, 4), 0, "choice_step must be positive"),
        )
        for search in self.SEARCHES:
            for x, horizon, eps, step, message in cases:
                with pytest.raises(ValueError, match=message):
                    search(CROSS_MID, x, eps, horizon, choice_step=step)
        for x, horizon, eps, _, message in cases[:3]:
            with pytest.raises(ValueError, match=message):
                classify_interval_point(CROSS_MID, x, eps, horizon)

    def test_horizon_zero_is_the_start_alone(self):
        assert bounded_walk_search(CROSS_MID, F(1, 2), 1, 0).witness == (F(1, 2),)
        assert nondense_loop_search(CROSS_MID, F(1, 2), F(1, 4), 0).status == "exhausted"
        assert sym_branch_cover(CROSS_MID, F(1, 2), F(1, 4), 0).size is None
