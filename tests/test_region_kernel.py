"""The sorted-sweep region kernels and the column-sweep discretize against the
code they replaced.

The references below are Region1D's nested-loop intersect, its re-sorting
union and its intersect-based contains_region, the nested-loop
region_difference_closure, and the discretize that clipped every cell pair
against every primitive.  The new kernels must give exactly the same
canonical pieces, and discretize the same edges and eps-net.
"""

import random
from fractions import Fraction as F

import pytest

from crdyn import gallery
from crdyn.density import EpsNet
from crdyn.finite import FiniteRelation, FiniteSpace
from crdyn.region import Region1D, grid_cells
from crdyn.symbolic import Segment, SymbolicRelation, discretize, region_difference_closure
from test_symbolic import segment_meets_box

# ---------------------------------------------------------------------------
# references


def ref_union(a, b):
    return Region1D(a.pieces + b.pieces)


def ref_intersect(a, b):
    out = []
    for alo, ahi in a.pieces:
        for blo, bhi in b.pieces:
            lo, hi = max(alo, blo), min(ahi, bhi)
            if lo <= hi:
                out.append((lo, hi))
    return Region1D(out)


def ref_contains_region(a, b):
    return ref_intersect(b, a) == b


def ref_difference_closure(a, b):
    out = []
    for lo, hi in a.pieces:
        cur = [(lo, hi)]
        for blo, bhi in b.pieces:
            nxt = []
            for clo, chi in cur:
                if bhi < clo or blo > chi:
                    nxt.append((clo, chi))
                    continue
                if blo > clo:
                    nxt.append((clo, min(chi, blo)))
                if bhi < chi:
                    nxt.append((max(clo, bhi), chi))
            cur = nxt
        out.extend(cur)
    return Region1D(out)


def ref_discretize(R, delta):
    cells = grid_cells(R.space, delta)
    edges = []
    for i, (ax0, ax1) in enumerate(cells):
        for j, (bx0, bx1) in enumerate(cells):
            for prim in R.primitives:
                if isinstance(prim, Segment):
                    hit = segment_meets_box(prim, ax0, ax1, bx0, bx1)
                else:
                    hit = ax0 <= prim.x <= ax1 and bx0 <= prim.y <= bx1
                if hit:
                    edges.append((i, j))
                    break
    finite = FiniteRelation(FiniteSpace([f"b{i}" for i in range(len(cells))]), edges)
    return finite, EpsNet(R.space, cells, delta)


# ---------------------------------------------------------------------------
# random canonical regions


def random_region(rng, size, den):
    """About `size` closed pieces on the grid k/den: points, short and long
    intervals, some overlapping or touching (merged by the constructor)."""
    span = max(12 * size, 8)
    offset = rng.randint(-span, 0)
    pieces = []
    for _ in range(size):
        lo = rng.randint(offset, offset + span)
        length = span // 16 if rng.random() < 0.02 else rng.choice((0, 0, 1, 1, 2, 3))
        pieces.append((F(lo, den), F(lo + length, den)))
    return Region1D(pieces)


def random_pairs(seed, count, max_size):
    """Seeded pairs; half of them share a grid, so endpoints often coincide."""
    rng = random.Random(seed)
    pairs = []
    for _ in range(count):
        den_a = rng.choice((1, 2, 8, 64))
        den_b = den_a if rng.random() < 0.5 else rng.choice((1, 2, 8, 64, 1024))
        a = random_region(rng, rng.randint(0, max_size), den_a)
        b = random_region(rng, rng.randint(0, max_size), den_b)
        pairs.append((a, b))
    return pairs


# small and medium pairs, then a few with up to a few hundred pieces
PAIRS = random_pairs(5, 3000, 12) + random_pairs(6, 300, 60) + random_pairs(7, 24, 300)


def assert_canonical(region):
    pieces = region.pieces
    assert type(pieces) is tuple
    for lo, hi in pieces:
        assert type(lo) is F and type(hi) is F and lo <= hi
    for (_, hi), (lo, _) in zip(pieces, pieces[1:]):
        assert hi < lo  # sorted, disjoint and not touching


def test_the_pairs_cover_the_edge_cases():
    sizes = [len(r.pieces) for pair in PAIRS for r in pair]
    assert 0 in sizes and max(sizes) >= 200
    assert any(lo == hi for a, _ in PAIRS for lo, hi in a.pieces)
    ends = [{e for p in r.pieces for e in p} for pair in PAIRS for r in pair]
    assert sum(1 for a, b in zip(ends[::2], ends[1::2]) if a & b) > len(PAIRS) // 4


def test_union_intersect_and_containment_equal_references():
    for a, b in PAIRS:
        for x, y in ((a, b), (b, a)):
            got = x.union(y)
            assert got.pieces == ref_union(x, y).pieces, (x, y)
            assert_canonical(got)
            part = ref_intersect(x, y)
            got = x.intersect(y)
            assert got.pieces == part.pieces, (x, y)
            assert_canonical(got)
            assert x.contains_region(y) == ref_contains_region(x, y), (x, y)
            assert x.contains_region(part) and y.contains_region(part)
            assert x.union(y).contains_region(y)


def test_difference_closure_equals_reference():
    for a, b in PAIRS:
        for x, y in ((a, b), (b, a), (a, a), (a, a.intersect(b))):
            got = region_difference_closure(x, y)
            assert got.pieces == ref_difference_closure(x, y).pieces, (x, y)
            assert_canonical(got)


def test_chase_identity():
    # the frontier chase images only the new part: (acc u img) minus acc is img minus acc
    for acc, img in PAIRS:
        assert region_difference_closure(img, acc) == region_difference_closure(acc.union(img), acc)


def symbolic_relations():
    relations = ((name, gallery.build(name).relation) for name in gallery.names())
    return [(name, R) for name, R in relations if isinstance(R, SymbolicRelation)]


@pytest.mark.parametrize("name,R", symbolic_relations(), ids=lambda v: v if isinstance(v, str) else "")
def test_discretize_equals_reference(name, R):
    for delta in (F(1, 8), F(1, 16), F(1, 32)):
        finite, net = discretize(R, delta)
        ref_finite, ref_net = ref_discretize(R, delta)
        assert finite == ref_finite, (name, delta)
        assert (net.space, net.extents, net.eps) == (ref_net.space, ref_net.extents, ref_net.eps)
