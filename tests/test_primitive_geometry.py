"""Primitive geometry against the per-kind code it replaced.

Segment and SinglePoint each answer their own x-extent, y-extent and image
of an x-window.  The references below are the code from before that: one
segment-image function that re-orients its segment and divides the slope on
every call, and the versions of sym_image, point_successors, projections and
map_value that branched on the primitive kind.  The new code must give the
same answers on every gallery interval relation and on seeded random
primitives, over windows inside, outside, touching an endpoint and
degenerate.
"""

import dataclasses
import random
from fractions import Fraction as F

import pytest

from crdyn import gallery
from crdyn.builders import (
    cantor_staircase,
    left_half_tent_graph,
    map_value,
    right_half_tent_graph,
    tent_map_graph,
)
from crdyn.io import parse_instance, serialize_instance
from crdyn.region import Region1D, Space1D
from crdyn.symbolic import (
    Segment,
    SinglePoint,
    SymbolicRelation,
    point_successors,
    projections,
    sym_image,
)

# ---------------------------------------------------------------------------
# references: the per-kind code


def ref_segment_image_over(seg, lo, hi):
    if seg.x1 == seg.x2:
        if lo <= seg.x1 <= hi:
            return seg.y_extent()
        return None
    (ax, ay), (bx, by) = ((seg.x1, seg.y1), (seg.x2, seg.y2))
    if ax > bx:
        ax, ay, bx, by = bx, by, ax, ay
    c, d = max(ax, lo), min(bx, hi)
    if c > d:
        return None
    slope = (by - ay) / (bx - ax)
    yc = ay + (c - ax) * slope
    yd = ay + (d - ax) * slope
    return (min(yc, yd), max(yc, yd))


def ref_image_over(prim, lo, hi):
    if isinstance(prim, Segment):
        return ref_segment_image_over(prim, lo, hi)
    return (prim.y, prim.y) if lo <= prim.x <= hi else None


def ref_extents(prim):
    if isinstance(prim, Segment):
        return (min(prim.x1, prim.x2), max(prim.x1, prim.x2)), (min(prim.y1, prim.y2), max(prim.y1, prim.y2))
    return (prim.x, prim.x), (prim.y, prim.y)


def ref_sym_image(R, A):
    pieces = []
    for prim in R.primitives:
        for lo, hi in A.pieces:
            if isinstance(prim, Segment):
                got = ref_segment_image_over(prim, lo, hi)
                if got is not None:
                    pieces.append(got)
            else:
                if lo <= prim.x <= hi:
                    pieces.append((prim.y, prim.y))
    return Region1D(pieces)


def ref_projections(R):
    xs, ys = [], []
    for prim in R.primitives:
        if isinstance(prim, Segment):
            xs.append((min(prim.x1, prim.x2), max(prim.x1, prim.x2)))
            ys.append((min(prim.y1, prim.y2), max(prim.y1, prim.y2)))
        else:
            xs.append((prim.x, prim.x))
            ys.append((prim.y, prim.y))
    return Region1D(xs), Region1D(ys)


def ref_point_successors(R, p):
    singles, ranges = [], []
    for prim in R.primitives:
        if isinstance(prim, SinglePoint):
            if prim.x == p:
                singles.append(prim.y)
        elif prim.x1 == prim.x2:
            if prim.x1 == p:
                ranges.append(prim.y_extent())
        else:
            got = ref_segment_image_over(prim, p, p)
            if got is not None:
                singles.append(got[0])
    return sorted(set(singles)), ranges


def ref_map_value(segments, t):
    values = set()
    for seg in segments:
        lo, hi = min(seg.x1, seg.x2), max(seg.x1, seg.x2)
        if lo <= t <= hi:
            if seg.x1 == seg.x2:
                raise ValueError("vertical segment: not a function graph")
            slope = (seg.y2 - seg.y1) / (seg.x2 - seg.x1)
            values.add(seg.y1 + (t - seg.x1) * slope)
    if len(values) != 1:
        raise ValueError(f"map is not single-valued at {t}: {sorted(values)}")
    return values.pop()


# ---------------------------------------------------------------------------
# inputs


def interval_relations():
    out = []
    for name in gallery.names():
        relation = gallery.build(name).relation
        if isinstance(relation, SymbolicRelation):
            out.append((name, relation))
    return out


def windows(prim):
    """Windows inside, outside, touching each endpoint, and degenerate."""
    (xlo, xhi), _ = ref_extents(prim)
    mid = (xlo + xhi) / 2
    width = max(xhi - xlo, F(1, 8))
    out = [
        (xlo, xhi), (mid, mid), (xlo, xlo), (xhi, xhi),
        (xlo - width, xlo), (xhi, xhi + width),  # touching from outside
        (xlo - width, xlo - width / 2), (xhi + width / 2, xhi + width),  # outside
        (xlo - width, xhi + width), (xlo, mid), (mid, xhi),
        ((3 * xlo + xhi) / 4, (xlo + 3 * xhi) / 4),  # strictly inside
        (xhi, xlo),  # reversed: empty
    ]
    return [(F(lo), F(hi)) for lo, hi in out]


def random_primitive(rng, kind):
    def q():
        return F(rng.randint(0, 16), rng.choice((1, 2, 4, 8, 16)))

    if kind == "point":
        return SinglePoint(q(), q())
    while True:
        x, y, x2, y2 = q(), q(), q(), q()
        if kind == "vertical":
            x2 = x
        elif kind == "horizontal":
            y2 = y
        elif kind == "rising" and (x2 - x) * (y2 - y) <= 0:
            continue
        elif kind == "falling" and (x2 - x) * (y2 - y) >= 0:
            continue
        if (x, y) != (x2, y2):
            return Segment(x, y, x2, y2)


KINDS = ("point", "vertical", "horizontal", "rising", "falling")


def random_primitives(seed, count):
    rng = random.Random(seed)
    return [random_primitive(rng, KINDS[i % len(KINDS)]) for i in range(count)]


def relation_of(prims):
    lo = min(min(ref_extents(p)[0][0], ref_extents(p)[1][0]) for p in prims)
    hi = max(max(ref_extents(p)[0][1], ref_extents(p)[1][1]) for p in prims)
    return SymbolicRelation(Space1D(intervals=[(lo, hi + 1)]), prims)


# ---------------------------------------------------------------------------
# the primitive methods


class TestPrimitiveMethods:
    def test_random_primitives_equal_reference(self):
        prims = random_primitives(61, 500)
        for prim in prims:
            assert (prim.x_extent(), prim.y_extent()) == ref_extents(prim), prim
            for lo, hi in windows(prim):
                assert prim.image_over(lo, hi) == ref_image_over(prim, lo, hi), (prim, lo, hi)

    def test_every_kind_is_drawn(self):
        prims = random_primitives(61, 500)
        assert any(isinstance(p, SinglePoint) for p in prims)
        segs = [p for p in prims if isinstance(p, Segment)]
        assert any(s.x1 == s.x2 for s in segs) and any(s.y1 == s.y2 for s in segs)
        slopes = {(s.y2 - s.y1) * (s.x2 - s.x1) > 0 for s in segs if s.x1 != s.x2 and s.y1 != s.y2}
        assert slopes == {True, False}

    def test_both_orientations_agree(self):
        for prim in random_primitives(62, 200):
            if isinstance(prim, Segment):
                flipped = Segment(prim.x2, prim.y2, prim.x1, prim.y1)
                for lo, hi in windows(prim):
                    assert flipped.image_over(lo, hi) == prim.image_over(lo, hi)

    def test_images_are_ordered_pairs(self):
        for prim in random_primitives(63, 200):
            for lo, hi in windows(prim):
                got = prim.image_over(lo, hi)
                assert got is None or got[0] <= got[1]

    def test_cached_line_is_not_a_field(self):
        a, b = Segment(0, 0, 1, F(1, 2)), Segment(F(0), F(0), F(1), F(1, 2))
        flipped = Segment(1, F(1, 2), 0, 0)
        assert a == b and hash(a) == hash(b)
        assert a != flipped  # same line, different endpoints order
        assert [f.name for f in dataclasses.fields(a)] == ["x1", "y1", "x2", "y2"]
        assert repr(a) == (
            "Segment(x1=Fraction(0, 1), y1=Fraction(0, 1), x2=Fraction(1, 1), y2=Fraction(1, 2))"
        )
        assert dataclasses.asdict(a) == {"x1": 0, "y1": 0, "x2": 1, "y2": F(1, 2)}
        assert dataclasses.replace(a, y2=1).image_over(F(1), F(1)) == (1, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            a.x1 = F(1)

    def test_mirror_is_built_once_and_is_not_a_field(self):
        a = Segment(0, 0, 1, F(1, 2))
        m = a.mirrored()
        assert a.mirrored() is m and m.mirrored() is a
        assert m == Segment(0, 0, F(1, 2), 1) and hash(m) == hash(Segment(0, 0, F(1, 2), 1))
        assert a == Segment(0, 0, 1, F(1, 2)) and hash(a) == hash(Segment(0, 0, 1, F(1, 2)))
        assert [f.name for f in dataclasses.fields(m)] == ["x1", "y1", "x2", "y2"]
        assert repr(m) == (
            "Segment(x1=Fraction(0, 1), y1=Fraction(0, 1), x2=Fraction(1, 2), y2=Fraction(1, 1))"
        )
        assert dataclasses.asdict(a) == {"x1": 0, "y1": 0, "x2": 1, "y2": F(1, 2)}


# ---------------------------------------------------------------------------
# the symbolic functions


@pytest.mark.parametrize("name,R", interval_relations(), ids=lambda v: v if isinstance(v, str) else "")
class TestGalleryAgainstReference:
    def test_projections(self, name, R):
        assert projections(R) == ref_projections(R)

    def test_image_and_successors(self, name, R):
        for prim in R.primitives:
            for lo, hi in windows(prim):
                if lo > hi:
                    continue
                A = Region1D.interval(lo, hi)
                assert sym_image(R, A) == ref_sym_image(R, A), (name, lo, hi)
            xlo, xhi = prim.x_extent()
            for p in (xlo, (xlo + xhi) / 2, xhi):
                assert point_successors(R, p) == ref_point_successors(R, p), (name, p)
        whole = R.space.region()
        assert sym_image(R, whole) == ref_sym_image(R, whole)

    def test_documents_roundtrip(self, name, R):
        again = parse_instance(serialize_instance(R))
        assert again.primitives == R.primitives
        for a, b in zip(again.primitives, R.primitives):
            assert (a.x_extent(), a.y_extent()) == (b.x_extent(), b.y_extent())


class TestRandomRelationsAgainstReference:
    def test_image_projections_and_successors(self):
        for seed in range(20):
            R = relation_of(random_primitives(100 + seed, 12))
            assert projections(R) == ref_projections(R)
            for prim in R.primitives:
                for lo, hi in windows(prim):
                    if lo > hi:
                        continue
                    A = Region1D([(lo, hi), (hi + 1, hi + 1)])
                    assert sym_image(R, A) == ref_sym_image(R, A), (seed, lo, hi)
                    assert point_successors(R, lo) == ref_point_successors(R, lo), (seed, lo)


class TestMapValueAgainstReference:
    def graphs(self):
        out = [
            tent_map_graph(), left_half_tent_graph(),
            right_half_tent_graph(), cantor_staircase(2),
        ]
        out.append(out[0] + [Segment(F(1, 4), 0, F(1, 4), 1)])  # a vertical piece
        out.append(out[1] + out[0])  # two values over [0, 1/2]
        return out

    @staticmethod
    def outcome(f, segments, t):
        try:
            return f(segments, t)
        except ValueError as exc:
            return str(exc)

    def test_values_and_errors(self):
        ts = [F(k, 32) for k in range(-2, 35)]
        for segments in self.graphs():
            for t in ts:
                assert self.outcome(map_value, segments, t) == self.outcome(ref_map_value, segments, t)
