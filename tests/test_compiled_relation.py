"""The compiled primitive table against the per-primitive code it replaced.

Each SymbolicRelation compiles its primitives once into rows sorted by
x-range start.  The references below are the code from before that: a
sym_image that asks every primitive about every piece and builds its result
through the public Region1D constructor, point successors that ask every
primitive about the window [p, p], choice grids rebuilt on every call, the
grid check's per-cell mark over the whole frontier, chased on Fractions with
that sym_image and a piece-by-piece closure difference, and preimages
through a freshly built mirrored relation.  The compiled code must give the
same answers on every gallery interval relation and on seeded random
relations that mix every primitive kind, with pieces that touch and
degenerate pieces.
"""

import itertools
import random
from fractions import Fraction as F

import pytest

from crdyn import gallery
from crdyn.region import Region1D, Space1D, grid_cells
from crdyn.symbolic import (
    GridTransitivityReport,
    Segment,
    SinglePoint,
    SymbolicRelation,
    _met,
    _range_choices,
    grid_transitivity_check,
    point_successors,
    successor_choices,
    sym_image,
    sym_preimage,
)
from region_helpers import intersects_open_interval

# ---------------------------------------------------------------------------
# references: the per-primitive code


def ref_sym_image(R, A):
    pieces = []
    for prim in R.primitives:
        for lo, hi in A.pieces:
            got = prim.image_over(lo, hi)
            if got is not None:
                pieces.append(got)
    return Region1D(pieces)


def ref_point_successors(R, p):
    singles, ranges = [], []
    for prim in R.primitives:
        got = prim.image_over(p, p)
        if got is None:
            continue
        if got[0] == got[1]:
            singles.append(got[0])
        else:
            ranges.append(got)
    return sorted(set(singles)), ranges


def ref_successor_choices(R, p, step):
    singles, ranges = ref_point_successors(R, p)
    out = set(singles)
    for lo, hi in ranges:
        out.update(_range_choices(lo, hi, step))
    return sorted(out)


def ref_sym_preimage(R, A):
    mirror = SymbolicRelation(R.space, [p.mirrored() for p in R.primitives])
    return ref_sym_image(mirror, A)


def ref_mark(cells, pending, region):
    """The old per-cell scan: drop from the pending set every cell the region meets."""
    done = []
    for vi in pending:
        vlo, vhi = cells[vi]
        if vlo == vhi:
            if region.contains_point(vlo):
                done.append(vi)
        elif intersects_open_interval(region, vlo, vhi):
            done.append(vi)
    pending.difference_update(done)


def ref_difference_closure(a, b):
    """Closure of a minus b: every piece of a cut by every piece of b in turn."""
    out = []
    for lo, hi in a.pieces:
        parts = [(lo, hi)]
        for blo, bhi in b.pieces:
            cut = []
            for plo, phi in parts:
                if bhi < plo or blo > phi:
                    cut.append((plo, phi))
                    continue
                if plo < blo:
                    cut.append((plo, blo))
                if bhi < phi:
                    cut.append((bhi, phi))
            parts = cut
        out += parts
    return Region1D(out)


def ref_frontier_chase(R, start):
    """The Fraction chase: the new part of each image, closed, until an image adds nothing."""
    acc = frontier = start
    while True:
        frontier = ref_difference_closure(ref_sym_image(R, frontier), acc)
        if frontier.is_empty():
            return
        acc = Region1D(acc.pieces + frontier.pieces)
        yield acc, frontier


def ref_grid_transitivity_check(R, delta, horizon, positive_only=False):
    cells = grid_cells(R.space, delta)
    misses, max_steps = [], 0
    for ui, (ulo, uhi) in enumerate(cells):
        pending = set(range(len(cells)))
        start = Region1D.interval(ulo, uhi)
        steps = 0
        if positive_only:
            start, steps = (ref_sym_image(R, start), 1) if horizon >= 1 else (Region1D.empty(), 0)
        ref_mark(cells, pending, start)
        if pending:
            chase = itertools.islice(ref_frontier_chase(R, start), max(horizon - steps, 0))
            for steps, (_, frontier) in enumerate(chase, steps + 1):
                ref_mark(cells, pending, frontier)
                if not pending:
                    break
        misses.extend((ui, vi) for vi in sorted(pending))
        max_steps = max(max_steps, steps)
    return GridTransitivityReport(not misses, max_steps, tuple(misses), tuple(cells))


# ---------------------------------------------------------------------------
# inputs


def interval_relations():
    out = []
    for name in gallery.names():
        relation = gallery.build(name).relation
        if isinstance(relation, SymbolicRelation):
            out.append((name, relation))
    return out


def dyadic(rng, denominators=(1, 2, 4, 8)):
    return F(rng.randint(0, 8), rng.choice(denominators))


def random_relation(seed, count):
    """Primitives of every kind on [0, 8]; end points repeat, so pieces touch and coincide."""
    rng = random.Random(seed)
    prims = []
    while len(prims) < count:
        kind = rng.choice(("point", "vertical", "horizontal", "sloped", "sloped"))
        x, y, x2, y2 = dyadic(rng), dyadic(rng), dyadic(rng), dyadic(rng)
        if kind == "point":
            prims.append(SinglePoint(x, y))
            continue
        if kind == "vertical":
            x2 = x
        elif kind == "horizontal":
            y2 = y
        if (x, y) != (x2, y2):
            prims.append(Segment(x, y, x2, y2))
    return SymbolicRelation(Space1D(intervals=[(0, 8)]), prims)


def random_region(rng):
    """Closed pieces and single points on [-1, 9], touching ones included."""
    pieces = []
    for _ in range(rng.randint(0, 5)):
        lo = F(rng.randint(-2, 18), 2)
        pieces.append((lo, lo + F(rng.choice((0, 0, 1, 2, 5)), 4)))
    return Region1D(pieces)


def probe_points(R):
    """Every row end, the midpoint of every x-range, and a grid of sixteenths."""
    lo, hi = R.space._components[0][0], R.space._components[-1][1]
    pts = {F(k, 16) for k in range(int(lo * 16) - 4, int(hi * 16) + 5)}
    for prim in R.primitives:
        xlo, xhi = prim.x_extent()
        pts.update((xlo, xhi, (xlo + xhi) / 2))
    return sorted(pts)


def probe_regions(R, rng):
    regions = [R.space.region(), Region1D.empty()]
    for prim in R.primitives:
        xlo, xhi = prim.x_extent()
        mid = (xlo + xhi) / 2
        regions += [
            Region1D.interval(xlo, xhi), Region1D.point(xlo), Region1D.point(xhi),
            Region1D([(xlo - 1, xlo), (xhi, xhi + 1)]),  # touching from outside
            Region1D([(xlo, mid), (mid + F(1, 64), xhi)]),
        ]
    regions += [random_region(rng) for _ in range(20)]
    return regions


RELATIONS = interval_relations() + [(f"random{seed}", random_relation(seed, 5 + seed)) for seed in range(12)]
IDS = [name for name, _ in RELATIONS]


# ---------------------------------------------------------------------------
# the compiled functions


@pytest.mark.parametrize("name,R", RELATIONS, ids=IDS)
class TestAgainstReference:
    def test_images_and_preimages(self, name, R):
        rng = random.Random(name)
        for A in probe_regions(R, rng):
            assert sym_image(R, A) == ref_sym_image(R, A), (name, A)
            assert sym_preimage(R, A) == ref_sym_preimage(R, A), (name, A)

    def test_point_successors(self, name, R):
        for p in probe_points(R):
            assert point_successors(R, p) == ref_point_successors(R, p), (name, p)

    def test_choice_steps_in_sequence(self, name, R):
        """Several steps, revisited, so the one-step grid cache is refilled and reused."""
        points = probe_points(R)
        for step in (F(1, 4), F(1, 8), F(1, 4), F(1, 3), F(1, 3), F(1, 16)):
            for p in points:
                assert successor_choices(R, p, step) == ref_successor_choices(R, p, step), (name, p, step)

    def test_grid_check(self, name, R):
        delta = F(1, 4) if R.space.intervals and R.space.intervals[0][1] <= 1 else F(1)
        for horizon, plus in ((0, False), (0, True), (1, True), (3, False), (6, True)):
            want = ref_grid_transitivity_check(R, delta, horizon, plus)
            assert grid_transitivity_check(R, delta, horizon, plus) == want, (name, horizon, plus)


class TestTable:
    def test_one_row_per_primitive_sorted_by_start(self):
        R = random_relation(99, 40)
        starts = R._table.starts
        assert starts == sorted(starts)
        assert len(R._table.rows) == len(R.primitives)

    def test_columns_keep_primitive_order(self):
        space = Space1D(intervals=[(0, 2)])
        prims = [Segment(1, 2, 1, 1), SinglePoint(0, 0), Segment(1, 0, 1, F(1, 2)), Segment(0, 0, 2, 2)]
        R = SymbolicRelation(space, prims)
        assert point_successors(R, 1) == ([1], [(1, 2), (0, F(1, 2))])
        assert point_successors(R, 1) == ref_point_successors(R, F(1))

    def test_mirror_is_built_once(self):
        R = random_relation(7, 10)
        assert R.mirrored() is R.mirrored()
        assert R.mirrored().mirrored() is R
        assert R.mirrored().primitives == tuple(p.mirrored() for p in R.primitives)

    def test_repr_unchanged(self):
        R = random_relation(3, 6)
        assert repr(R) == f"SymbolicRelation({R.space!r}, 6 primitives)"

    def test_met_cells_touching_and_degenerate(self):
        cells = [(F(0), F(1)), (F(1), F(2)), (F(2), F(2)), (F(3), F(4))]
        for region in (
            Region1D.point(1), Region1D.point(2), Region1D([(F(1, 2), 1), (2, 3)]),
            Region1D([(1, 1), (F(5, 2), 3)]), Region1D([(-1, 0), (4, 5)]), Region1D.interval(0, 4),
            Region1D.empty(), Region1D([(-2, -1), (F(5, 2), F(5, 2)), (6, 7)]),
        ):
            pending = set(range(len(cells)))
            ref_mark(cells, pending, region)
            assert set(range(len(cells))).difference(_met(cells, region)) == pending, region
