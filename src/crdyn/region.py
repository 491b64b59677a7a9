"""Exact 1-D sets over the rationals.

Everything here is a finite union of closed intervals (possibly degenerate)
with exact endpoints: Fractions, or the ints n of values n/S when a search or
chase runs on the ints of a scale S (see `symbolic._Frame`).
The region set operations and the eps-net test (`_CoverFrame`) only compare,
add and subtract, so they run on either.  All predicates are decided exactly;
no floats.
"""

from __future__ import annotations

import bisect
import re
from fractions import Fraction
from operator import itemgetter
from typing import Iterable, Sequence

Piece = tuple[Fraction, Fraction]  # closed interval, lo <= hi; lo == hi is a point

# canonical pieces are sorted by both ends, so bisect can key on either
_LO = itemgetter(0)
_HI = itemgetter(1)
_ZERO = Fraction(0)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise TypeError(f"booleans are not rationals: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return parse_fraction(x)
    raise TypeError(f"not an exact rational: {x!r}")


def _times(v: Fraction, D: int) -> int:
    """v * D for a Fraction v whose denominator divides D."""
    return v.numerator * (D // v.denominator)


def _canonical(pieces: Iterable[Piece]) -> tuple[Piece, ...]:
    """Sort, drop empties, merge overlapping or touching closed intervals."""
    return _merge(sorted((lo, hi) for lo, hi in pieces if lo <= hi))


def _merge(items: Iterable[Piece]) -> tuple[Piece, ...]:
    """Merge overlapping or touching closed intervals given in ascending order."""
    merged: list[Piece] = []
    for lo, hi in items:
        if merged and lo <= merged[-1][1]:
            if hi > merged[-1][1]:
                merged[-1] = (merged[-1][0], hi)
        else:
            merged.append((lo, hi))
    return tuple(merged)


class Region1D:
    """Canonical finite union of disjoint closed rational intervals and points."""

    __slots__ = ("pieces",)

    def __init__(self, pieces: Iterable[Piece] = ()):
        norm = []
        for lo, hi in pieces:
            lo = _as_fraction(lo)
            hi = _as_fraction(hi)
            norm.append((lo, hi))
        object.__setattr__(self, "pieces", _canonical(norm))

    @classmethod
    def _wrap(cls, pieces: tuple[Piece, ...]) -> "Region1D":
        """A region over pieces that are already canonical; no checks, no copy."""
        new = object.__new__(cls)
        object.__setattr__(new, "pieces", pieces)
        return new

    def __setattr__(self, *a):
        raise AttributeError("Region1D is immutable")

    @staticmethod
    def empty() -> "Region1D":
        return Region1D(())

    @staticmethod
    def point(x) -> "Region1D":
        x = _as_fraction(x)
        return Region1D(((x, x),))

    @staticmethod
    def interval(lo, hi) -> "Region1D":
        return Region1D(((_as_fraction(lo), _as_fraction(hi)),))

    @staticmethod
    def from_points(points: Iterable) -> "Region1D":
        return Region1D(tuple((_as_fraction(p), _as_fraction(p)) for p in points))

    def __eq__(self, other) -> bool:
        return isinstance(other, Region1D) and self.pieces == other.pieces

    def __hash__(self) -> int:
        return hash(self.pieces)

    def __repr__(self) -> str:
        def fmt(piece):
            lo, hi = piece
            return f"{{{lo}}}" if lo == hi else f"[{lo},{hi}]"

        body = " u ".join(fmt(p) for p in self.pieces) if self.pieces else "empty"
        return f"Region1D({body})"

    def is_empty(self) -> bool:
        return not self.pieces

    def union(self, other: "Region1D") -> "Region1D":
        """Splice each piece of the smaller region into the larger one.

        A piece replaces the run of pieces it overlaps or touches, found by
        two bisects that start where the previous piece's run ended.
        """
        small, large = sorted((self.pieces, other.pieces), key=len)
        out = list(large)
        i = 0
        for lo, hi in small:
            i = bisect.bisect_left(out, lo, i, key=_HI)
            j = bisect.bisect_right(out, hi, i, key=_LO)
            if i < j:
                lo = min(lo, out[i][0])
                hi = max(hi, out[j - 1][1])
            out[i:j] = ((lo, hi),)
        return Region1D._wrap(tuple(out))

    def intersect(self, other: "Region1D") -> "Region1D":
        """Two-pointer sweep; the pieces it emits are already canonical."""
        a, b = self.pieces, other.pieces
        out: list[Piece] = []
        i = j = 0
        while i < len(a) and j < len(b):
            alo, ahi = a[i]
            blo, bhi = b[j]
            lo = alo if alo > blo else blo
            hi = ahi if ahi < bhi else bhi
            if lo <= hi:
                out.append((lo, hi))
            if ahi < bhi:
                i += 1
            else:
                j += 1
        return Region1D._wrap(tuple(out))

    def contains_point(self, x) -> bool:
        x = _as_fraction(x)
        return any(lo <= x <= hi for lo, hi in self.pieces)

    def contains_region(self, other: "Region1D") -> bool:
        """Each piece of other must lie in the last piece of self that starts at or before it."""
        pieces = self.pieces
        i = 0
        for lo, hi in other.pieces:
            i = bisect.bisect_right(pieces, lo, i, key=_LO)
            if i == 0 or pieces[i - 1][1] < hi:
                return False
        return True

    def distance_to(self, x) -> Fraction | None:
        """Exact distance from the number x to the region; None when empty."""
        x = _as_fraction(x)
        if not self.pieces:
            return None
        lows, highs = zip(*self.pieces)
        return _distance(lows, highs, x)


class Space1D:
    """A compact subset of the line: disjoint closed intervals plus isolated points.

    The listed isolated points are exactly the topologically isolated points;
    interval endpoints are not isolated.
    """

    __slots__ = ("intervals", "isolated", "_components")

    def __init__(self, intervals: Sequence = (), isolated: Sequence = ()):
        norm_iv = []
        for lo, hi in intervals:
            lo, hi = _as_fraction(lo), _as_fraction(hi)
            if lo > hi:
                raise ValueError(f"interval bounds out of order: [{lo},{hi}]")
            norm_iv.append((lo, hi))
        pts = sorted(_as_fraction(p) for p in isolated)
        # degenerate intervals are isolated points topologically
        real_iv = [p for p in norm_iv if p[0] < p[1]]
        pts = sorted(set(pts) | {p[0] for p in norm_iv if p[0] == p[1]})
        merged = _canonical(real_iv)
        if len(merged) != len(real_iv):
            raise ValueError("space intervals overlap or touch")
        for p in pts:
            if any(lo <= p <= hi for lo, hi in merged):
                raise ValueError(f"isolated point {p} lies inside an interval")
        if not merged and not pts:
            raise ValueError("space must be non-empty")
        object.__setattr__(self, "intervals", merged)
        object.__setattr__(self, "isolated", tuple(pts))
        object.__setattr__(self, "_components", tuple(sorted(merged + tuple((p, p) for p in pts))))

    def __setattr__(self, *a):
        raise AttributeError("Space1D is immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Space1D)
            and self.intervals == other.intervals
            and self.isolated == other.isolated
        )

    def __hash__(self) -> int:
        return hash((self.intervals, self.isolated))

    def __repr__(self) -> str:
        parts = [f"[{lo},{hi}]" for lo, hi in self.intervals]
        parts += [f"{{{p}}}" for p in self.isolated]
        return "Space1D(" + " u ".join(parts) + ")"

    def region(self) -> Region1D:
        return Region1D._wrap(self._components)

    def contains_point(self, x) -> bool:
        return self.region().contains_point(x)

    def contains_region(self, r: Region1D) -> bool:
        return self.region().contains_region(r)


def _distance(lows: Sequence[Fraction], highs: Sequence[Fraction], x: Fraction) -> Fraction:
    """Exact distance from x to the sorted disjoint closed pieces [lows[i], highs[i]].

    There is at least one piece; sorted points pass as both lows and highs.
    The numbers may be ints as well: a distance to points is then an int.
    """
    i = bisect.bisect_right(lows, x)
    if i == 0:
        return lows[0] - x
    left = x - highs[i - 1]
    if left < 0:
        return _ZERO  # x lies inside a proper piece
    if i == len(lows):
        return left
    right = lows[i] - x
    return right if right < left else left


class _CoverFrame:
    """The eps-net test of one space at one eps, over sorted disjoint pieces.

    The point of a space component farthest from a closed set is either a
    component endpoint or the midpoint of a gap between consecutive pieces of
    the set.  So pieces form an eps-net of the space exactly when no gap is
    bad (wider than 2 eps with its midpoint in the space) and every component
    endpoint lies within eps of a piece.

    The frame is built from the space's sorted components and a positive eps,
    all exact: Fractions, or the ints of a search that scales its numbers by
    a common multiple S.  The gap test never divides, so it works on both.
    """

    __slots__ = ("eps", "width", "lows2", "highs2", "ends")

    def __init__(self, components: Sequence[Piece], eps):
        if eps <= 0:
            raise ValueError("eps must be positive")
        self.eps = eps
        self.width = 2 * eps
        # doubled component ends, compared with p + q, twice a gap's midpoint
        self.lows2 = tuple(2 * lo for lo, _ in components)
        self.highs2 = tuple(2 * hi for _, hi in components)
        self.ends = tuple(e for lo, hi in components for e in ((lo,) if lo == hi else (lo, hi)))

    def bad_gap(self, p, q) -> bool:
        """Whether the gap from p up to q between consecutive pieces is bad."""
        if q - p <= self.width:
            return False
        mid2 = p + q
        i = bisect.bisect_right(self.lows2, mid2) - 1
        return i >= 0 and mid2 <= self.highs2[i]

    def near_ends(self, lows: Sequence[Fraction], highs: Sequence[Fraction]) -> bool:
        """Whether every component endpoint lies within eps of the (non-empty) pieces."""
        eps = self.eps
        for e in self.ends:
            if _distance(lows, highs, e) > eps:
                return False
        return True

    def covers(self, pieces: Sequence[Piece]) -> bool:
        """Whether the sorted disjoint pieces form an eps-net of the space."""
        if not pieces:
            return False
        lows, highs = zip(*pieces)
        return not any(map(self.bad_gap, highs, lows[1:])) and self.near_ends(lows, highs)


def eps_dense(space: Space1D, covered: Region1D, eps) -> bool:
    """Decide exactly whether every point of the space is within eps of the region."""
    return _CoverFrame(space._components, _as_fraction(eps)).covers(covered.pieces)


class OrbitCover:
    """A finite orbit kept for incremental eps-density tests on one space.

    `points` is the sorted tuple of distinct orbit points and `bad` counts the
    bad gaps between consecutive points (see `_CoverFrame`).  Covers are
    immutable: `insert` returns a new cover (one bisect, at most three gap
    tests and a tuple copy), so a depth-first search can keep one per state.
    `_over` builds a cover on a frame that is already built, whose numbers
    may be the ints of a scaled search.
    """

    __slots__ = ("points", "bad", "_frame")

    def __init__(self, space: Space1D, eps, points: Iterable = ()):
        frame = _CoverFrame(space._components, _as_fraction(eps))
        self._fill(frame, {_as_fraction(p) for p in points})

    @classmethod
    def _over(cls, frame: _CoverFrame, points: Iterable = ()) -> "OrbitCover":
        new = object.__new__(cls)
        new._fill(frame, set(points))
        return new

    def _fill(self, frame: _CoverFrame, points: set) -> None:
        self._frame = frame
        self.points = tuple(sorted(points))
        self.bad = sum(map(frame.bad_gap, self.points, self.points[1:]))

    def insert(self, v: Fraction) -> "OrbitCover":
        """The cover of the orbit with v added; self when v is already in it."""
        pts = self.points
        i = bisect.bisect_left(pts, v)
        if i < len(pts) and pts[i] == v:
            return self
        bad_gap = self._frame.bad_gap
        bad = self.bad
        if 0 < i < len(pts):
            bad -= bad_gap(pts[i - 1], pts[i])
        if i > 0:
            bad += bad_gap(pts[i - 1], v)
        if i < len(pts):
            bad += bad_gap(v, pts[i])
        new = object.__new__(OrbitCover)
        new._frame = self._frame
        new.points = pts[:i] + (v,) + pts[i:]
        new.bad = bad
        return new

    def distance(self, x: Fraction) -> Fraction:
        """Exact distance from x to the nearest orbit point (the orbit is non-empty)."""
        return _distance(self.points, self.points, x)

    def dense(self) -> bool:
        """Whether every point of the space is within eps of the orbit."""
        if not self.points or self.bad:
            return False
        return self._frame.near_ends(self.points, self.points)


def _cell_counts(space: Space1D, delta: Fraction) -> list[int]:
    """Cells per space interval on the delta grid: ceil(width / delta), at least one."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    return [max(-((lo - hi) // delta), 1) for lo, hi in space.intervals]


def grid_cells(space: Space1D, delta) -> list[Piece]:
    """Closed cells of width <= delta covering the space, ascending.

    Each space interval is cut into equal cells; each isolated point becomes a
    degenerate cell.
    """
    delta = _as_fraction(delta)
    cells = [(p, p) for p in space.isolated]
    for (lo, hi), k in zip(space.intervals, _cell_counts(space, delta)):
        step = (hi - lo) / k
        cells += ((lo + i * step, lo + (i + 1) * step) for i in range(k))
    cells.sort()
    return cells


def format_fraction(x: Fraction) -> str:
    """Canonical text form: plain integer when the denominator is 1."""
    x = _as_fraction(x)
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


def parse_fraction(text) -> Fraction:
    """Accept an int, or an integer or '-?p/q' string; reject everything else.

    Decimals, exponents, underscores, signs on the denominator and surrounding
    whitespace are rejected.  An unreduced 'p/q' is accepted and reduced.
    """
    if isinstance(text, bool):
        raise ValueError("booleans are not rationals")
    if isinstance(text, int):
        return Fraction(text)
    if isinstance(text, str):
        if not _RATIONAL.fullmatch(text):
            raise ValueError(f"malformed rational {text!r}; expected an integer or 'p/q'")
        num, _, den = text.partition("/")
        if den and int(den) == 0:
            raise ValueError(f"malformed rational {text!r}; zero denominator")
        return Fraction(int(num), int(den) if den else 1)
    raise ValueError(f"rationals must be integers or 'p/q' strings, got {text!r}")
