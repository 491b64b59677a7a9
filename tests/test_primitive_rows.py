"""One row per primitive: the compiled row is the symbolic layer's only geometry.

Segment and SinglePoint each compute one row (ax, bx, ay, by, slope) when
they are built, and the relation's table sorts those rows.  The reference
rows below are written from the coordinates alone.  With `image_over`
replaced by a stub that raises, every gallery interval relation must still
build, image, search and discretize to the same answers, and the builders'
map helpers must still evaluate: nothing but the rows carries geometry.
On a frame's ints one sweep of the table (`_PrimitiveTable.windows`) gives
every row's image of every window: images, `discretize` and successor
lists read it, and it agrees with the Fraction window image of each pair.
"""

import dataclasses
import itertools
import random
import tracemalloc
from fractions import Fraction as F

import pytest

from crdyn import gallery
from crdyn.builders import forward_orbit, map_preimages, map_value, tent_map_graph
from crdyn.classify import BudgetExceededError
from crdyn.region import Space1D, grid_cells
from crdyn.symbolic import (
    Segment,
    SinglePoint,
    SymbolicRelation,
    _Frame,
    _PrimitiveTable,
    _window_image,
    bounded_walk_search,
    discretize,
    nondense_loop_search,
    point_successors,
    projections,
    successor_choices,
    sym_image,
    sym_preimage,
)
from test_integer_frame import random_integer_slope_relation
from test_rational_frame import random_rational_slope_relation


def ref_row(prim):
    if isinstance(prim, SinglePoint):
        return (prim.x, prim.x, prim.y, prim.y, 0)
    (ax, ay), (bx, by) = sorted(((prim.x1, prim.y1), (prim.x2, prim.y2)))
    return (ax, bx, ay, by, None if ax == bx else (by - ay) / (bx - ax))


def random_primitives(seed, count):
    rng = random.Random(seed)

    def q():
        return F(rng.randint(0, 8), rng.choice((1, 2, 4)))

    out = []
    while len(out) < count:
        kind = rng.choice(("point", "vertical", "horizontal", "sloped"))
        x, y, x2, y2 = q(), q(), q(), q()
        if kind == "point":
            out.append(SinglePoint(x, y))
            continue
        if kind == "vertical":
            x2 = x
        elif kind == "horizontal":
            y2 = y
        if (x, y) != (x2, y2):
            out.append(Segment(x, y, x2, y2))
    return out


def interval_names():
    return [n for n in gallery.names() if isinstance(gallery.build(n).relation, SymbolicRelation)]


# ---------------------------------------------------------------------------
# the rows


class TestRows:
    def test_rows_equal_reference(self):
        for prim in random_primitives(7, 300):
            row = prim._row
            assert row == ref_row(prim), prim
            assert all(isinstance(v, F) for v in row[:4])
            ax, bx, ay, by, slope = row
            assert ax <= bx
            if slope is None:
                assert ax == bx and ay < by  # a column
            else:
                assert isinstance(slope, F)

    def test_point_row_is_flat(self):
        assert SinglePoint(F(1, 2), F(1, 4))._row == (F(1, 2), F(1, 2), F(1, 4), F(1, 4), 0)

    def test_reversed_windows_miss(self):
        for prim in (Segment(0, 0, 1, 1), Segment(1, 0, 0, 1), Segment(F(1, 2), 1, F(1, 2), 0),
                     Segment(0, F(1, 2), 1, F(1, 2)), SinglePoint(F(1, 2), F(1, 4))):
            assert prim.image_over(F(3, 4), F(1, 4)) is None
            assert prim.image_over(F(1, 2), F(1, 2)) is not None

    def test_table_sorts_the_rows_stably(self):
        for seed in range(10):
            prims = random_primitives(seed, 20)
            R = SymbolicRelation(Space1D(intervals=[(0, 9)]), prims)
            assert R._table.rows == sorted((p._row for p in prims), key=lambda row: row[0])

    def test_scaled_table_is_the_scaled_rows(self):
        prims = [Segment(0, 0, F(1, 2), 1), Segment(F(1, 2), 1, 1, 0), SinglePoint(F(1, 4), F(3, 4)),
                 Segment(F(3, 4), 0, F(3, 4), 1)]
        table = SymbolicRelation(Space1D(intervals=[(0, 1)]), prims)._table
        assert table.q == 1 and table.denominator == 4
        D, scaled = table.scaled(8)
        assert D == 8
        assert scaled.rows == [
            (0, 4, 0, 8, 2, 1), (2, 2, 6, 6, 0, 1), (4, 8, 8, 0, -2, 1), (6, 6, 0, 8, None, 1),
        ]
        assert scaled.denominator == 1
        assert table.scaled(8)[1] is scaled

    def test_dataclass_surface_is_the_coordinates(self):
        p, q = SinglePoint(F(1, 2), 0), SinglePoint(F(1, 2), F(0))
        assert p == q and hash(p) == hash(q)
        assert p != SinglePoint(0, F(1, 2))
        assert [f.name for f in dataclasses.fields(p)] == ["x", "y"]
        assert repr(p) == "SinglePoint(x=Fraction(1, 2), y=Fraction(0, 1))"
        s = Segment(0, 0, 1, F(1, 2))
        assert [f.name for f in dataclasses.fields(s)] == ["x1", "y1", "x2", "y2"]
        assert dataclasses.replace(p, y=1)._row == (F(1, 2), F(1, 2), 1, 1, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.x = F(1)


# ---------------------------------------------------------------------------
# nothing reads image_over


def _answers(R):
    start = R.space.region().pieces[0][0]
    whole = R.space.region()
    finite, net = discretize(R, F(1, 8))
    return (
        sym_image(R, whole),
        sym_preimage(R, whole),
        projections(R),
        point_successors(R, start),
        bounded_walk_search(R, start, F(1, 4), 8),
        nondense_loop_search(R, start, F(1, 4), 8),
        finite.edges,
        net.extents,
    )


def test_no_algorithm_reads_image_over(monkeypatch):
    names = interval_names()
    assert len(names) >= 10
    expected = {name: _answers(gallery.build(name).relation) for name in names}
    tent = tent_map_graph()
    maps = (forward_orbit(tent, F(1, 3), 6), map_value(tent, F(1, 4)), map_preimages(tent, F(1, 2)))

    def stub(self, lo, hi):
        raise AssertionError("image_over called")

    monkeypatch.setattr(Segment, "image_over", stub)
    monkeypatch.setattr(SinglePoint, "image_over", stub)
    for name in names:
        R = gallery._BUILDERS[name]().relation  # a fresh build, not the cached one
        assert _answers(R) == expected[name], name
    assert (forward_orbit(tent, F(1, 3), 6), map_value(tent, F(1, 4)), map_preimages(tent, F(1, 2))) == maps


# ---------------------------------------------------------------------------
# the one sweep


def test_images_discretize_and_successor_lists_read_the_one_sweep(monkeypatch):
    swept = []
    sweep = _PrimitiveTable.windows

    def counted(self, pieces):
        swept.append(len(pieces))
        return sweep(self, pieces)

    monkeypatch.setattr(_PrimitiveTable, "windows", counted)
    R = gallery._BUILDERS["ex2"]().relation  # a fresh table, holding no successor list yet
    whole = R.space.region()
    runs = [
        (lambda: sym_image(R, whole), len(whole.pieces)),
        (lambda: sym_preimage(R, whole), len(whole.pieces)),
        (lambda: discretize(R, F(1, 8))[0].space.size, None),
        (lambda: point_successors(R, F(1, 3)), 1),
        (lambda: successor_choices(R, F(1, 3), F(1, 8)), 1),
    ]
    for run, pieces in runs:
        before = len(swept)
        got = run()
        assert swept[before:] == [got if pieces is None else pieces]


SEEDED = [(f"int{seed}", random_integer_slope_relation(seed)) for seed in range(10)] + [
    (f"rat{seed}", random_rational_slope_relation(seed)) for seed in range(10)
]


def sweep_pieces(R, rng):
    """Sorted closed pieces, in and out of the space: disjoint intervals and
    points, touching grid cells, and one point at a time."""
    values = sorted({F(k, d) for d in (1, 3, 4, 6, 7) for k in range(-d, 6 * d + 1)})
    for p in rng.sample(values, 3):
        yield [(p, p)]
    for _ in range(6):
        ends = iter(sorted(rng.sample(values, 12)))
        pieces = []
        for lo in ends:
            pieces.append((lo, lo) if rng.random() < 0.3 else (lo, next(ends, lo)))
        yield pieces
    for delta in (F(1, 3), F(2, 7)):
        yield grid_cells(R.space, delta)


@pytest.mark.parametrize("name,R", SEEDED, ids=[name for name, _ in SEEDED])
def test_the_sweep_is_the_window_image_of_every_pair(name, R):
    rng = random.Random(name)
    for pieces in sweep_pieces(R, rng):
        frame = _Frame(R, itertools.chain(*pieces), 1)
        S = frame.scale
        got = [(j, F(lo, S), F(hi, S)) for j, lo, hi in frame._table.windows(frame.pieces(pieces))]
        want = [
            (j, *image)
            for row in R._table.rows
            for j, (lo, hi) in enumerate(pieces)
            if (image := _window_image(row, lo, hi)) is not None
        ]
        assert got == want, pieces


# ---------------------------------------------------------------------------
# the discretize cap


def test_cap_is_checked_before_any_cell_is_built():
    R = gallery.build("ex1").relation
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError) as err:
            discretize(R, F(1, 400000))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert str(err.value) == "400000 grid boxes exceed the cap of 4096"
    assert peak < 1 << 20


@pytest.mark.parametrize("delta", [F(1, 3), F(1, 4), F(2, 7), F(1), F(5)])
def test_counted_boxes_are_the_grid(delta):
    space = Space1D(intervals=[(0, 1), (F(3, 2), F(9, 4))], isolated=[2 + F(1, 2), 3])
    R = SymbolicRelation(space, [SinglePoint(0, 0)])
    size = len(grid_cells(space, delta))
    with pytest.raises(BudgetExceededError, match=f"^{size} grid boxes exceed the cap of {size - 1}$"):
        discretize(R, delta, box_cap=size - 1)
    assert discretize(R, delta, box_cap=size)[0].space.size == size


def test_non_positive_delta_is_refused_before_counting():
    R = gallery.build("ex1").relation
    for delta in (0, F(-1, 4)):
        with pytest.raises(ValueError, match="delta must be positive"):
            discretize(R, delta)
