"""Exact relations on unions of rational intervals plus isolated points.

A relation is a finite set of planar primitives: line segments (vertical ones
encode set-valued columns) and single points, all with Fraction coordinates.
Images, preimages, reach sets, projections, grid discretizations, and the
bounded walk searches are computed exactly; when a question cannot be decided
at a finite horizon the answer says so instead of guessing.

Each primitive computes one row (its x-range, end values and slope) when it
is built, and each relation sorts its primitives' rows once into a private
table, so successors, images and discretize bisect to the rows that can meet
a point or a window instead of scanning every primitive.

The walk searches and the reach chases run in a `_Frame`: every value they
meet within their horizon is n/S for one scale S = D * q**horizon (see
there), so they compare, add and exactly divide the ints n, and only their
answers are mapped back to Fractions.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Iterator, Sequence

from .classify import BranchCoverResult, BudgetExceededError, Certainty, _min_cover
from .density import EpsNet
from .finite import FiniteRelation, FiniteSpace, _check_steps
from .region import (
    OrbitCover,
    Region1D,
    Space1D,
    _as_fraction,
    _cell_counts,
    _CoverFrame,
    _distance,
    _HI,
    _LO,
    _merge,
    _times,
    _ZERO,
    grid_cells,
)


def _window_image(row: tuple, lo, hi) -> tuple | None:
    """Image interval of the x-window [lo, hi] under one row, or None when they miss.

    A row is (ax, bx, ay, by, slope): the x-range, the y at ax and at bx, and
    the slope.  A vertical segment has slope None and ay < by (its column); a
    single point is (x, x, y, y, 0), flat like a horizontal segment.  Window
    ends outside the x-range take the row's end values, with no arithmetic.
    """
    ax, bx, ay, by, slope = row
    if lo > hi or hi < ax or lo > bx:
        return None
    if slope is None:
        return (ay, by)
    if not slope:
        return (ay, ay)
    yc = ay if lo <= ax else ay + (lo - ax) * slope
    yd = by if hi >= bx else ay + (hi - ax) * slope
    return (yc, yd) if slope > 0 else (yd, yc)


class _Primitive:
    """The geometry both primitive kinds share, read off the one row each computes when built.

    The row (see `_window_image`) and a segment's mirror are kept outside the
    dataclass fields, so equality, hashing and repr see only the coordinates.
    """

    __slots__ = ()

    def x_extent(self) -> tuple[Fraction, Fraction]:
        return self._row[:2]

    def y_extent(self) -> tuple[Fraction, Fraction]:
        _, _, ay, by, _ = self._row
        return (ay, by) if ay <= by else (by, ay)

    def image_over(self, lo: Fraction, hi: Fraction) -> tuple[Fraction, Fraction] | None:
        """Image interval of the x-window [lo, hi], or None when they miss."""
        return _window_image(self._row, lo, hi)


@dataclass(frozen=True)
class Segment(_Primitive):
    """Closed planar segment; may be vertical, horizontal, or sloped.

    Its row sorts the endpoints by x and divides for the slope once; the
    mirrored segment is built on first use.
    """

    x1: Fraction
    y1: Fraction
    x2: Fraction
    y2: Fraction

    def __post_init__(self):
        for f in ("x1", "y1", "x2", "y2"):
            object.__setattr__(self, f, _as_fraction(getattr(self, f)))
        if (self.x1, self.y1) == (self.x2, self.y2):
            raise ValueError("degenerate segment; use SinglePoint")
        (ax, ay), (bx, by) = sorted(((self.x1, self.y1), (self.x2, self.y2)))
        slope = None if ax == bx else (by - ay) / (bx - ax)
        object.__setattr__(self, "_row", (ax, bx, ay, by, slope))
        object.__setattr__(self, "_mirror", None)

    def mirrored(self) -> "Segment":
        """The segment with its coordinates swapped, built once; its mirror is self."""
        if self._mirror is None:
            mirror = Segment(self.y1, self.x1, self.y2, self.x2)
            object.__setattr__(mirror, "_mirror", self)
            object.__setattr__(self, "_mirror", mirror)
        return self._mirror


@dataclass(frozen=True)
class SinglePoint(_Primitive):
    """One point of the relation: a degenerate run whose image is a single value."""

    x: Fraction
    y: Fraction

    def __post_init__(self):
        x, y = _as_fraction(self.x), _as_fraction(self.y)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "_row", (x, x, y, y, _ZERO))

    def mirrored(self) -> "SinglePoint":
        return SinglePoint(self.y, self.x)


Primitive = Segment | SinglePoint


class _PrimitiveTable:
    """The rows of one relation's primitives, sorted stably by x-range start.

    A relation's own table holds its primitives' rows in Fractions (see
    `_window_image`), with `denominator` and `q` the least common
    denominators of their ends and of their slopes.  `scaled(S)` gives the
    table a `_Frame` runs on, which alone answers `at` and `choices`: each
    row times S, as ints (ax, bx, ay, by, num, den), the slope num/den in
    lowest terms (num None for a column).  The one scaled table held is
    reused while its scale is a multiple of the S asked for.  Each point's
    successor list is memoised per step for the life of the table, so every
    search on the table shares it, whatever order the searches come in.
    """

    __slots__ = ("rows", "starts", "memo", "denominator", "q", "_scaled")

    def __init__(self, rows: Sequence[tuple]):
        self.rows = rows = sorted(rows, key=_LO)
        self.starts = [row[0] for row in rows]
        self.memo: dict[object, dict] = {}  # step -> {point: sorted successors}
        self.denominator = math.lcm(*(v.denominator for row in rows for v in row[:4]))
        self.q = math.lcm(*(row[4].denominator for row in rows if row[4] is not None))
        self._scaled: tuple[int, _PrimitiveTable] | None = None

    def scaled(self, S: int) -> tuple[int, "_PrimitiveTable"]:
        """(S', this table's rows times S', as ints) for a multiple S' of S."""
        held = self._scaled
        if held is None or held[0] % S:
            held = self._scaled = (S, _PrimitiveTable([
                (*(_times(v, S) for v in row[:4]),
                 *((None, 1) if row[4] is None else (row[4].numerator, row[4].denominator)))
                for row in self.rows
            ]))
        return held

    def at(self, p) -> tuple[set, list[int]]:
        """(values of the non-vertical rows at p, indices of the vertical rows at p), exact in a frame."""
        values = set()
        columns: list[int] = []
        rows = self.rows
        for i in range(bisect.bisect_right(self.starts, p)):
            ax, bx, ay, _, num, den = rows[i]
            if bx < p:
                continue
            if num is None:
                columns.append(i)
            else:
                values.add(ay + (p - ax) * num // den if num else ay)
        return values, columns

    def choices(self, p, step) -> list:
        """The sorted successors of p, with each column at p sampled on its grid.

        The list returned is the memo's own, shared by every later caller:
        callers must not change it.
        """
        memo = self.memo.get(step)
        if memo is None:
            memo = self.memo[step] = {}
        got = memo.get(p)
        if got is None:
            out, columns = self.at(p)
            for i in columns:
                out.update(_range_choices(*self.rows[i][2:4], step))
            got = memo[p] = sorted(out)
        return got


class SymbolicRelation:
    """A closed relation on a Space1D given by finitely many primitives.

    The primitives are compiled into a `_PrimitiveTable` when the relation is
    built; the mirrored relation is built on first use and kept.
    """

    __slots__ = ("space", "primitives", "_table", "_mirror")

    def __init__(self, space: Space1D, primitives: Sequence[Primitive]):
        primitives = tuple(primitives)
        if not primitives:
            raise ValueError("relations are non-empty by definition")
        region = space.region()
        for prim in primitives:
            px = Region1D.interval(*prim.x_extent())
            py = Region1D.interval(*prim.y_extent())
            if not region.contains_region(px) or not region.contains_region(py):
                raise ValueError(f"primitive {prim} leaves the space")
        self.space = space
        self.primitives = primitives
        self._table = _PrimitiveTable([prim._row for prim in primitives])
        self._mirror = None

    def mirrored(self) -> "SymbolicRelation":
        """The relation with the coordinates swapped, built once."""
        if self._mirror is None:
            mirror = SymbolicRelation(self.space, [p.mirrored() for p in self.primitives])
            mirror._mirror = self
            self._mirror = mirror
        return self._mirror

    def __repr__(self) -> str:
        return f"SymbolicRelation({self.space!r}, {len(self.primitives)} primitives)"


class _Frame:
    """The ints one walk search or reach chase on a relation runs on, to a depth.

    Let D be a common denominator of the table rows and of `values` (a
    search's start, eps, step and space; a chase's start region or grid
    cells), and q that of the slopes (`_PrimitiveTable.q`).  A sloped row
    multiplies a denominator by at most q; a column's grid k * step, a row
    end and region unions and differences make none.  So every value met
    within `depth` steps is n/S for an int n, S = D * q**depth, and at a
    depth k < depth, p - ax is a multiple of q**(depth - k) in the frame's
    ints: the row formula ay + (p - ax) * num // den divides exactly.  A
    search's depth is its horizon, a chase's the number of images it takes;
    with q = 1, S = D.  Scaling by S > 0 keeps every order, so the frame
    reaches the relation's states and answers, scaled.  S is the held scale
    when that is a multiple of the one needed, so a chase keeps the scaled
    table and successor memo of the searches.  The frame keeps the table in
    R's field `_table`, standing in for R where only the table is read, as
    in `sym_image`.  Ints map back to Fraction(n, S) through a memo, so an
    end shared by many regions of one chase is reduced once; a frame is
    built per query, and the memo does not outlive it.  `advance` keeps no
    state: one chase never repeats one, and `grid_transitivity_check`, whose
    chases meet each other, keeps their steps itself.
    """

    __slots__ = ("scale", "_table", "_fractions")

    def __init__(self, R: SymbolicRelation, values: Iterable[Fraction], depth: int):
        table = R._table
        # the table's long denominator comes last, so the gcds before it stay small
        D = math.lcm(*(v.denominator for v in values), table.denominator)
        self.scale, self._table = table.scaled(D * table.q**depth)
        self._fractions: dict[int, Fraction] = {}

    def advance(self, acc: Region1D, frontier: Region1D) -> tuple[Region1D, Region1D] | None:
        """The chase step from (acc, frontier): the next (acc, frontier), or None once stable.

        Only the frontier (closure of the newly added part) is imaged, which
        is exact because images distribute over unions; the step adds nothing
        when the reach already holds the image.  Since (acc u img) minus acc
        is img minus acc, the new frontier comes from the image alone, so a
        step makes O(|img| log |acc|) comparisons, not O(|acc|^2).
        """
        img = sym_image(self, frontier)
        if acc.contains_region(img):
            return None
        new = region_difference_closure(img, acc)
        return acc.union(new), new

    def pieces(self, pieces: Sequence[tuple]) -> tuple[tuple[int, int], ...]:
        """Closed pieces (lo, hi) of the relation's numbers in the frame's ints."""
        S = self.scale
        return tuple((_times(lo, S), _times(hi, S)) for lo, hi in pieces)

    def _exact(self, n: int) -> Fraction:
        got = self._fractions.get(n)
        if got is None:
            got = self._fractions[n] = Fraction(n, self.scale)
        return got

    def exact(self, walk: Iterable[int]) -> tuple[Fraction, ...]:
        """The walk in the relation's own numbers."""
        return tuple(map(self._exact, walk))

    def exact_region(self, A: Region1D) -> Region1D:
        """The region in the relation's own numbers."""
        f = self._exact
        return Region1D._wrap(tuple((f(lo), f(hi)) for lo, hi in A.pieces))

    def splice(self, exact: Region1D, old: Region1D, new: Region1D, frontier: Region1D) -> Region1D:
        """`new` = old u frontier in the relation's own numbers, given `exact`, old in them.

        Only the pieces of new that hold a frontier piece are mapped back; the
        runs of old's pieces between them are copied from exact.
        """
        f = self._exact
        olds, news = old.pieces, new.pieces
        out: list[tuple[Fraction, Fraction]] = []
        i = 0  # the next piece of old to copy
        for j in sorted({bisect.bisect_left(news, lo, key=_HI) for lo, _ in frontier.pieces}):
            a, b = news[j]
            k = bisect.bisect_left(olds, a, i, key=_HI)
            out += exact.pieces[i:k]
            out.append((f(a), f(b)))
            i = bisect.bisect_right(olds, b, k, key=_LO)
        out += exact.pieces[i:]
        return Region1D._wrap(tuple(out))


# ---------------------------------------------------------------------------
# images and reach


def sym_image(R: SymbolicRelation, A: Region1D) -> Region1D:
    """Exact one-step image of a region.

    R is a relation, imaged in a depth-one frame on A's ends, or a frame
    whose ints A is in.  Rows come in order of x-range start, so the first
    piece of A that can meet each row is found by one bisect from the
    previous row's; the sweep walks forward while pieces start inside the
    row's x-range.  A row whose whole x-range lies in a piece keeps its end
    values.  The sweep inlines `_window_image`, saving a call per pair.
    """
    frame = R if isinstance(R, _Frame) else _Frame(R, itertools.chain(*A.pieces), 1)
    pieces = A.pieces if frame is R else frame.pieces(A.pieces)
    out: list[tuple[int, int]] = []
    k = 0
    for ax, bx, ay, by, num, den in frame._table.rows:
        k = j = bisect.bisect_left(pieces, ax, k, key=_HI)
        while j < len(pieces) and pieces[j][0] <= bx:
            lo, hi = pieces[j]
            j += 1
            if num is None:
                out.append((ay, by))
            elif not num:
                out.append((ay, ay))
            else:
                yc = ay if lo <= ax else ay + (lo - ax) * num // den
                yd = by if hi >= bx else ay + (hi - ax) * num // den
                out.append((yc, yd) if num > 0 else (yd, yc))
    out.sort()
    image = Region1D._wrap(_merge(out))
    return image if frame is R else frame.exact_region(image)


def sym_preimage(R: SymbolicRelation, A: Region1D) -> Region1D:
    """Exact one-step preimage: the image under the mirrored relation."""
    return sym_image(R.mirrored(), A)


def projections(R: SymbolicRelation) -> tuple[Region1D, Region1D]:
    """(p1, p2): exact first and second coordinate projections."""
    prims = R.primitives
    return Region1D([p.x_extent() for p in prims]), Region1D([p.y_extent() for p in prims])


def region_difference_closure(a: Region1D, b: Region1D) -> Region1D:
    """Closure of a minus b; exact on closed pieces (endpoints are kept).

    For each piece of a, one bisect finds the first piece of b that can meet
    it, and the sweep walks forward while b's pieces start inside it.  A
    point of b inside a piece of a leaves two touching pieces, which _merge
    joins.
    """
    bp = b.pieces
    cut: list[tuple[Fraction, Fraction]] = []
    k = 0
    for lo, hi in a.pieces:
        k = j = bisect.bisect_left(bp, lo, k, key=_HI)
        while j < len(bp) and bp[j][0] <= hi:
            blo, bhi = bp[j]
            if blo > lo:
                cut.append((lo, blo))
            if bhi >= hi:
                break
            lo = bhi
            j += 1
        else:
            cut.append((lo, hi))
    return Region1D._wrap(_merge(cut))


def _frontier_chase(advance: Callable, start: Region1D) -> Iterator[tuple[Region1D, Region1D]]:
    """Yield (acc, frontier) after each step that grows the cumulative reach of start.

    advance is a frame's chase step (`_Frame.advance`), or the grid check's
    memoised one; start and every region yielded are in the frame's
    numbers.  The chase ends at the first image that adds nothing.
    """
    state = start, start
    while (state := advance(*state)) is not None:
        yield state


def sym_reach(
    R: SymbolicRelation, start: Region1D, max_iter: int
) -> tuple[Region1D, bool]:
    """Cumulative reach start u G(start) u ...; stabilized reports exactness."""
    _check_steps(max_iter, "max_iter")
    frame = _Frame(R, itertools.chain(*start.pieces), max_iter + 1)
    acc = frontier = Region1D._wrap(frame.pieces(start.pieces))
    steps = 0
    chase = itertools.islice(_frontier_chase(frame.advance, acc), max_iter)
    for steps, (acc, frontier) in enumerate(chase, 1):
        pass
    # past max_iter, one more image (within the depth) detects stabilization
    stabilized = steps < max_iter or acc.contains_region(sym_image(frame, frontier))
    return frame.exact_region(acc), stabilized


def _reach_chain(frame: _Frame, start: Region1D, max_iter: int) -> list[tuple[Region1D, Region1D]]:
    """[(R_0, R_0), (R_1, F_1), ...] in the frame's ints, to max_iter or stabilization; F_n is new in R_n."""
    chain = [(start, start)]
    chain += itertools.islice(_frontier_chase(frame.advance, start), max_iter)
    if len(chain) <= max_iter:
        chain.append((chain[-1][0], Region1D.empty()))  # the step that adds nothing
    return chain


def sym_reach_chain(R: SymbolicRelation, start: Region1D, max_iter: int) -> list[Region1D]:
    """Cumulative regions [R_0, R_1, ...] up to max_iter or stabilization.

    Each step maps only its frontier back to Fractions (`_Frame.splice`).
    """
    _check_steps(max_iter, "max_iter")
    frame = _Frame(R, itertools.chain(*start.pieces), max_iter)
    links = _reach_chain(frame, Region1D._wrap(frame.pieces(start.pieces)), max_iter)
    chain = [start]
    for (old, _), (new, frontier) in zip(links, links[1:]):
        chain.append(frame.splice(chain[-1], old, new, frontier))
    return chain


def is_total(R: SymbolicRelation) -> bool:
    """Every point has a successor; then every point is legal."""
    p1, _ = projections(R)
    return p1.contains_region(R.space.region())


# ---------------------------------------------------------------------------
# discretization


def _meeting(cells: list[tuple], lo, hi) -> range:
    """Indices of the sorted closed cells that meet the closed range [lo, hi]."""
    first = bisect.bisect_left(cells, lo, key=_HI)
    return range(first, bisect.bisect_right(cells, hi, first, key=_LO))


_BOX_CAP = 4096  # grid boxes: discretize's default cap, grid_transitivity_check's fixed one


def _capped_cells(space: Space1D, delta: Fraction, cap: int) -> list[tuple[Fraction, Fraction]]:
    """The space's delta-grid cells, refused before any is built when there are more than cap."""
    count = len(space.isolated) + sum(_cell_counts(space, delta))
    if count > cap:
        raise BudgetExceededError(f"{count} grid boxes exceed the cap of {cap}")
    return grid_cells(space, delta)


def discretize(
    R: SymbolicRelation, delta, box_cap: int = _BOX_CAP
) -> tuple[FiniteRelation, EpsNet]:
    """Sound grid outer approximation.

    Boxes of width <= delta cover the space; a box pair becomes an edge when
    its product rectangle meets some primitive, so every true walk shadows a
    box walk.  Negative verdicts about the boxes therefore transfer to the
    relation; positive ones need symbolic witnesses.  The returned eps-net
    predicate measures density of box unions at eps = delta.

    Each row of the compiled table is swept column by column: over the cells
    its x-range meets, its exact y-range within the column picks the rows it
    meets, which is the closed segment-box test at O(cells + edges) per row.
    The box count is checked against box_cap before any cell is built.  The
    cells and rows are scaled into a depth-one `_Frame` on the cell ends,
    exact for the one image each window takes, so the sweep compares and
    divides ints.
    """
    cells = _capped_cells(R.space, _as_fraction(delta), box_cap)
    frame = _Frame(R, itertools.chain(*cells), 1)
    scaled = frame.pieces(cells)
    edges = set()
    for ax, bx, ay, by, num, den in frame._table.rows:
        for i in _meeting(scaled, ax, bx):
            if num is None:
                ylo, yhi = ay, by
            elif not num:
                ylo = yhi = ay
            else:
                lo, hi = scaled[i]
                yc = ay if lo <= ax else ay + (lo - ax) * num // den
                yd = by if hi >= bx else ay + (hi - ax) * num // den
                ylo, yhi = (yc, yd) if num > 0 else (yd, yc)
            edges.update((i, j) for j in _meeting(scaled, ylo, yhi))
    labels = [f"b{i}" for i in range(len(cells))]
    space = FiniteSpace(labels)
    finite = FiniteRelation(space, edges)
    predicate = EpsNet(R.space, cells, delta)
    return finite, predicate


# ---------------------------------------------------------------------------
# exact walk machinery


def point_successors(
    R: SymbolicRelation, p: Fraction
) -> tuple[list[Fraction], list[tuple[Fraction, Fraction]]]:
    """(single-valued images, interval-valued choice ranges) at an exact point.

    Every row whose x-range holds p gives a single successor, except a
    vertical segment at p, which gives a range to choose from.
    """
    p = _as_fraction(p)
    frame = _Frame(R, (p,), 1)
    values, columns = frame._table.at(_times(p, frame.scale))
    return sorted(frame.exact(values)), [R._table.rows[i][2:4] for i in columns]


def _range_choices(lo, hi, step) -> list:
    """Dyadic-grid choice points inside [lo, hi], endpoints included."""
    out = {lo, hi}
    # first multiple of step at or above lo
    k = -((-lo) // step)
    v = k * step
    while v <= hi:
        if v >= lo:
            out.add(v)
        v += step
    return sorted(out)


def _positive_step(choice_step) -> Fraction:
    step = _as_fraction(choice_step)
    if step <= 0:
        raise ValueError("choice_step must be positive")
    return step


def successor_choices(
    R: SymbolicRelation, p: Fraction, choice_step: Fraction
) -> list[Fraction]:
    """The sorted successors of p, each column at p sampled every choice_step; a fresh list."""
    p, step = _as_fraction(p), _positive_step(choice_step)
    frame = _Frame(R, (p, step), 1)
    S = frame.scale
    return list(frame.exact(frame._table.choices(_times(p, S), _times(step, S))))


@dataclass(frozen=True)
class WalkSearchResult:
    """Outcome of a bounded exact walk search.

    status is "found" (witness is a certified walk of the true relation),
    "exhausted" (the whole sampled family was searched; no witness at this
    horizon and sampling resolution), or "budget" (node budget hit first).
    """

    status: str
    witness: tuple[Fraction, ...] | None
    nodes: int

    @property
    def found(self) -> bool:
        return self.status == "found"

    @property
    def certainty(self) -> Certainty:
        return Certainty.CERTIFIED if self.found else Certainty.UNKNOWN_AT_HORIZON


class _SearchFrame(_Frame):
    """One walk search query and its frame: start `x`, choice `step`, eps-net test `cover`.

    The query is checked here, in this order: x is a point of the space,
    horizon an int >= 0 (`_check_steps`), eps > 0, and a given choice step
    > 0 (default eps/2), all before the frame is scaled.  D covers x, eps,
    the step and the space's component ends, and the depth is the
    `horizon`.  Successors come from the memo of the table the search
    reads (`_PrimitiveTable.choices`).
    """

    __slots__ = ("x", "step", "cover", "horizon")

    def __init__(self, R: SymbolicRelation, x, eps, horizon: int, choice_step=None):
        x = _as_fraction(x)
        eps = _as_fraction(eps)
        if not R.space.contains_point(x):
            raise ValueError(f"{x} is not a point of the space")
        _check_steps(horizon, "horizon")
        if eps <= 0:
            raise ValueError("eps must be positive")
        step = _positive_step(choice_step) if choice_step is not None else eps / 2
        comps = R.space._components
        super().__init__(R, itertools.chain((x, eps, step), *comps), horizon)
        S = self.scale
        self.x, self.step, self.horizon = _times(x, S), _times(step, S), horizon
        self.cover = _CoverFrame(self.pieces(comps), _times(eps, S))


_PRUNE = object()  # a visit verdict: drop this state and keep searching
_BUDGET = 100000  # the walk and loop searches' default node budget


def _descending(cover: OrbitCover, succs: list) -> list:
    return succs[::-1]  # successor lists are ascending and distinct


def _orbit_dfs(
    frame: _SearchFrame,
    budget: int,
    visit: Callable[[tuple, frozenset, OrbitCover], object],
    order: Callable[[OrbitCover, list], list] = _descending,
    memo_first: bool = True,
) -> WalkSearchResult:
    """Memoised depth-first search over the sampled exact walks from the frame's x.

    A state is a walk and its orbit, kept as a frozenset for the memo key
    (last point, orbit) and as an OrbitCover for the eps tests, all in the
    frame's numbers.  The memo drops a state already reached with no more
    steps used, before visit when memo_first, else after it.  Each visit
    counts a node and returns None to go on, _PRUNE to drop the state, or a
    witness walk to stop.  A survivor with fewer steps used than the frame's
    horizon pushes its successors in order(cover, successors), so the last
    is explored first.  A survivor with exactly one successor steps on to it
    without the stack: pushed alone, it would be popped next, so the nodes
    and their order are the same.  The stack holds only branch points'
    children, built when popped, so siblings waiting on it share their
    parent's walk, orbit and cover.

    The result's witness is mapped back to Fractions; its status is "found",
    "exhausted", or "budget" (more than `budget` nodes).
    """
    best: dict[tuple, int] = {}

    def stale(v, orbit: frozenset, used: int) -> bool:
        key = (v, orbit)
        prev = best.get(key)
        if prev is not None and prev <= used:
            return True
        best[key] = used
        return False

    choices, step, horizon = frame._table.choices, frame.step, frame.horizon
    nodes = 0
    stack = [((), frozenset(), OrbitCover._over(frame.cover), frame.x)]
    push = stack.append
    while stack:
        prefix, seen, parent, v = stack.pop()
        while True:
            walk = prefix + (v,)
            orbit = seen | {v}
            cover = parent.insert(v)
            used = len(walk) - 1
            if memo_first and stale(v, orbit, used):
                break
            nodes += 1
            if nodes > budget:
                return WalkSearchResult("budget", None, nodes)
            got = visit(walk, orbit, cover)
            if got is _PRUNE:
                break
            if got is not None:
                return WalkSearchResult("found", frame.exact(got), nodes)
            if not memo_first and stale(v, orbit, used):
                break
            if used >= horizon:
                break
            succs = choices(v, step)
            if len(succs) != 1:
                for w in order(cover, succs):
                    push((walk, orbit, cover, w))
                break
            # a lone child would be popped next: step on to it without the stack
            prefix, seen, parent, v = walk, orbit, cover, succs[0]
    return WalkSearchResult("exhausted", None, nodes)


def _dense_walk(walk, orbit, cover):
    return walk if cover.dense() else None


def _farthest_last(cover, succs):
    # explore the farthest-from-covered successor first (LIFO: push last);
    # a stable sort of the descending list puts the largest of equally far
    # successors first, so the smallest of them is explored first
    pts = cover.points
    return sorted(succs[::-1], key=functools.partial(_distance, pts, pts))


def _nondense_loop(walk, orbit, cover):
    if cover.dense():
        return _PRUNE  # orbits only grow; nothing non-dense lies beyond
    # expanded walks never repeat a point, so a repeat is the last step
    return walk if len(orbit) < len(walk) else None


def bounded_walk_search(
    R: SymbolicRelation,
    x,
    eps,
    horizon: int,
    choice_step=None,
    budget: int = _BUDGET,
) -> WalkSearchResult:
    """Search for an exact walk from x whose orbit is an eps-net of the space.

    Interval-valued successors are sampled on a dyadic grid (choice_step,
    default eps/2); every emitted witness is an exact walk of the relation.
    Gap-filling successors are explored first, so dense witnesses are found
    quickly when they exist at this horizon.  The orbit is carried as an
    OrbitCover, so the density test and the gap-filling order cost O(log h)
    comparisons per node, plus an O(h) tuple copy.
    """
    frame = _SearchFrame(R, x, eps, horizon, choice_step)
    return _orbit_dfs(frame, budget, _dense_walk, _farthest_last)


def nondense_loop_search(
    R: SymbolicRelation,
    x,
    eps,
    horizon: int,
    choice_step=None,
    budget: int = _BUDGET,
) -> WalkSearchResult:
    """Search for a walk from x that revisits a point before its orbit is an eps-net.

    Such a walk extends to a periodic infinite walk with the same orbit, so a
    find certifies that not every infinite walk from the start is eps-dense.
    Every state reached counts as a node, memo hits included; a state with
    one successor steps on to it without the stack.  As in
    bounded_walk_search, the orbit is an OrbitCover: O(log h) comparisons per
    node for the density test, plus an O(h) tuple copy.
    """
    frame = _SearchFrame(R, x, eps, horizon, choice_step)
    return _orbit_dfs(frame, budget, _nondense_loop, memo_first=False)


def sym_branch_cover(
    R: SymbolicRelation,
    x,
    eps,
    horizon: int,
    choice_step=None,
    budget: int = 50000,
    max_candidates: int = 128,
) -> BranchCoverResult:
    """Minimum number of exact walks from x whose joint orbit is an eps-net.

    Maximal walks (horizon steps or stuck) are enumerated over the sampled
    choice family; the minimum is exact over that family, hence a certified
    upper bound for the relation and exact at this horizon and resolution.
    The budget bounds both the nodes of the walk search and the density
    tests of the cover selection after it.
    """
    frame = _SearchFrame(R, x, eps, horizon, choice_step)
    # every visited state contributes its orbit; a revisit with fewer steps
    # used gets re-explored, so walks achieving any maximal orbit survive the
    # pruning (a pruned prefix could be spliced with an earlier, shorter one)
    achieved: dict[frozenset, tuple] = {}

    def visit(walk, orbit, cover):
        known = achieved.get(orbit)
        if known is None or (len(walk), walk) < (len(known), known):
            achieved[orbit] = walk
        return None

    if _orbit_dfs(frame, budget, visit).status == "budget":
        raise BudgetExceededError("walk family too large for branch cover search")

    # drop dominated orbits, keep lexicographically least walk per orbit;
    # kept stays in walk order
    pairs = sorted(achieved.items(), key=lambda item: item[1])
    kept: list[tuple[frozenset, tuple]] = []
    for orbit, walk in pairs:
        if any(orbit < other for other, _ in kept):
            continue
        kept = [(o, w) for o, w in kept if not (o < orbit)]
        kept.append((orbit, walk))
    if len(kept) > max_candidates:
        raise BudgetExceededError("too many candidate walks for branch cover search")
    tests = itertools.count(1)

    def dense(orbit: frozenset) -> bool:
        if next(tests) > budget:
            raise BudgetExceededError("cover selection too large for branch cover search")
        return OrbitCover._over(frame.cover, orbit).dense()

    picked = _min_cover(kept, dense)
    if picked is None:
        return BranchCoverResult(None, (), horizon, Certainty.UNKNOWN_AT_HORIZON)
    size, idx = picked
    witnesses = tuple(frame.exact(kept[i][1]) for i in idx)
    return BranchCoverResult(size, witnesses, horizon, Certainty.CERTIFIED)


# ---------------------------------------------------------------------------
# per-point tags

# the routes a claim of `classify_interval_point` can be decided by
ROUTES = frozenset({"total", "die-out", "loop-search", "stabilised-chase", "reach-chain", "walk-search"})


@dataclass(frozen=True)
class Claim:
    """One row of a tag: a claim's name and status, the route (in ROUTES) that decided it, and why."""

    name: str
    status: str
    route: str
    detail: str = ""


@dataclass(frozen=True)
class IntervalPointTag:
    """One point's claims on an interval relation at eps, each decided at a horizon.

    `dies_at` is the step at which the point's images die out.  `reach_grade`
    is the least n >= 1 with an eps-dense n-reach, the type-3 grade when
    trans3 is certified.  `walk` and `loop` are the type-2 and type-1
    searches, None when the tag was settled before they ran.  `total` says
    whether the relation is total, so that every point is legal.  `claims`
    words the tag in print order, a verdict row last where the tag has one.
    """

    legal: Certainty
    trans3: Certainty
    trans2: Certainty
    trans1: Certainty
    dies_at: int | None = None
    reach_grade: int | None = None
    walk: WalkSearchResult | None = None
    loop: WalkSearchResult | None = None
    total: bool = False
    claims: tuple[Claim, ...] = ()


def classify_interval_point(R: SymbolicRelation, x, eps, horizon: int) -> IntervalPointTag:
    """Decide x's legality and its type-3, type-2 and type-1 claims at eps.

    Legal is certified when R is total or a non-dense loop from x is found,
    refuted with every type when x's images die out within the horizon, and
    unknown otherwise.  A reach that stabilises below density refutes all
    three types, since every orbit lies in the reach; a non-dense loop
    (`nondense_loop_search`) is an infinite walk, so it refutes type 1 and
    proves x legal.  The two certificates, an eps-dense reach for type 3 and
    a walk from `bounded_walk_search` for type 2, need every point they pass
    through legal, because a finite walk may end where no infinite walk goes
    on; they stay unknown unless R is total.

    The query is checked once, by the one `_SearchFrame` of the tag, whose
    depth is the horizon: the images, the reach chain, its density tests and
    both walk searches run in it and share its scaled table.
    """
    frame = _SearchFrame(R, x, eps, horizon)
    unknown, refuted, certified = Certainty.UNKNOWN_AT_HORIZON, Certainty.REFUTED, Certainty.CERTIFIED
    start = Region1D._wrap(((frame.x, frame.x),))
    total = is_total(R)
    if total:
        legal = Claim("legal", certified.value, "total", "every point has a successor")
    else:
        images = start
        for n in range(1, horizon + 1):
            images = sym_image(frame, images)
            if images.is_empty():
                return IntervalPointTag(refuted, refuted, refuted, refuted, dies_at=n, claims=(
                    Claim("legal", refuted.value, "die-out", f"images die out at step {n}"),
                    Claim("verdict", "illegal", "die-out")))
        legal = Claim("legal", unknown.value, "die-out", "images stay non-empty")
    # only on a total relation is every point legal and does every walk go
    # on: only there do a dense reach and a dense walk certify
    sure = certified if total else unknown
    chain = [acc for acc, _ in _reach_chain(frame, start, horizon)]
    covers = frame.cover.covers
    grade = next((n for n in range(1, len(chain)) if covers(chain[n].pieces)), None)
    if grade is None and len(chain) >= 2 and chain[-1] == chain[-2]:
        return IntervalPointTag(sure, refuted, refuted, refuted, total=total, claims=(
            legal,
            Claim("trans3-at-eps", refuted.value, "stabilised-chase", "reach stabilized below density"),
            Claim("verdict", "intransitive-at-eps" if total else "unknown", "stabilised-chase")))
    walk = _orbit_dfs(frame, _BUDGET, _dense_walk, _farthest_last)
    loop = _orbit_dfs(frame, _BUDGET, _nondense_loop, memo_first=False)
    unsure = "" if total else ", legal set unknown" if loop.found else ", legality unknown"
    if loop.found and not total:
        legal = Claim("legal", certified.value, "loop-search", "a loop from the point is an infinite walk")
    trans3 = unknown if grade is None else sure
    reach = "reach still growing" if grade is None else f"reach dense at step {grade}{unsure}"
    claims = [legal, Claim("trans3-at-eps", trans3.value, "reach-chain", reach)]
    if trans3 is certified:
        claims.append(Claim("reach-grade", str(grade), "reach-chain", "least step with an eps-dense reach"))
    trans2, trans1 = sure if walk.found else unknown, refuted if loop.found else unknown
    found = f"witness of {len(walk.witness) - 1} steps{unsure}" if walk.found else f"search {walk.status}"
    looped = "a non-dense looping walk exists" if loop.found else f"search {loop.status}"
    claims += (Claim("trans2-at-eps", trans2.value, "walk-search", found),
               Claim("trans1-at-eps", trans1.value, "loop-search", looped))
    return IntervalPointTag(
        certified if loop.found else sure, trans3, trans2, trans1,
        reach_grade=grade, walk=walk, loop=loop, total=total, claims=tuple(claims))


# ---------------------------------------------------------------------------
# open-set transitivity at grid scale


@dataclass(frozen=True)
class GridTransitivityReport:
    """Outcome of the exact image-chase over a delta-grid of open sets."""

    transitive: bool
    max_steps_needed: int
    misses: tuple[tuple[int, int], ...]  # (U cell index, V cell index)
    cells: tuple[tuple[Fraction, Fraction], ...]


def _met(cells: list[tuple[int, int]], region: Region1D) -> list[int]:
    """The indices of the sorted cells that the region meets, once per piece that meets them.

    A proper cell is met when the region meets its open interior, a
    degenerate one when the region contains its point.  One bisect per piece
    finds the cells the closed piece meets (`_meeting`); of those, a proper
    cell that only touches the piece at one of its ends is left out.
    """
    met: list[int] = []
    for lo, hi in region.pieces:
        for i in _meeting(cells, lo, hi):
            vlo, vhi = cells[i]
            if vlo == vhi or (lo < vhi and hi > vlo):
                met.append(i)
    return met


def grid_transitivity_check(
    R: SymbolicRelation, delta, horizon: int, positive_only: bool = False
) -> GridTransitivityReport:
    """For every grid cell pair (U, V): does some G^n(U) meet V, n <= horizon?

    U is chased as a closed cell (its image chain is computed exactly); V is
    met when the chain intersects the open cell interior, or contains the
    point for degenerate cells.  positive_only starts the chase at n = 1, so
    at horizon 0 it meets no cell.  The cells are scaled into one frame for
    every chase, and the report gives them back as they were built.  Chases
    of different cells meet the same states, so the check keeps each state's
    step for the call, keyed by the frontier's pieces, with acc's compared
    only on a match: each distinct state costs one sym_image and, when it
    grows, one region_difference_closure.  The cost grows with the square of
    the cell count, so more than `_BOX_CAP` cells raise BudgetExceededError.
    """
    _check_steps(horizon, "horizon")
    cells = _capped_cells(R.space, _as_fraction(delta), _BOX_CAP)
    frame = _Frame(R, itertools.chain(*cells), horizon)
    scaled = frame.pieces(cells)
    held: dict[tuple, list] = {}  # frontier pieces -> [(acc pieces, next state)]

    def advance(acc: Region1D, frontier: Region1D) -> tuple[Region1D, Region1D] | None:
        states = held.setdefault(frontier.pieces, [])
        for old, step in states:
            if old == acc.pieces:
                return step
        step = frame.advance(acc, frontier)
        states.append((acc.pieces, step))
        return step

    misses: list[tuple[int, int]] = []
    max_steps = 0
    for ui, cell in enumerate(scaled):
        start = Region1D._wrap((cell,))
        steps = 0
        if positive_only:
            start, steps = (sym_image(frame, start), 1) if horizon >= 1 else (Region1D.empty(), 0)
        pending = set(range(len(scaled))).difference(_met(scaled, start))
        if pending:
            # a chase that stops early has stabilized: no new cell can be met
            chase = itertools.islice(_frontier_chase(advance, start), horizon - steps)
            for steps, (_, frontier) in enumerate(chase, steps + 1):
                pending.difference_update(_met(scaled, frontier))
                if not pending:
                    break
        misses.extend((ui, vi) for vi in sorted(pending))
        max_steps = max(max_steps, steps)
    return GridTransitivityReport(
        transitive=not misses,
        max_steps_needed=max_steps,
        misses=tuple(misses),
        cells=tuple(cells),
    )


def forward_union(
    R: SymbolicRelation, U: Region1D, horizon: int, include_start: bool
) -> Region1D:
    """Union of G^k(U): k from 0 (include_start) or 1, up to the horizon."""
    _check_steps(horizon, "horizon")
    if not include_start and horizon < 1:
        return Region1D.empty()  # no k in 1..horizon
    frame = _Frame(R, itertools.chain(*U.pieces), horizon)
    acc = Region1D._wrap(frame.pieces(U.pieces))
    if not include_start:
        acc, horizon = sym_image(frame, acc), horizon - 1
    for acc, _ in itertools.islice(_frontier_chase(frame.advance, acc), horizon):
        pass
    return frame.exact_region(acc)
