"""Density predicates over finite point sets.

A predicate answers "is this subset dense in the space" and must be monotone:
enlarging the subset never turns a dense verdict false.  Two kinds exist:

* Exhaustive: the space is finite discrete, so dense means every point.
* EpsNet: points carry 1-D extents (grid boxes); dense means every point of
  the underlying geometric space lies within eps of the covered extents.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Protocol, Sequence

from .finite import _check_points, _check_steps
from .region import Piece, Space1D, _CoverFrame, _as_fraction, _merge, _times


class DensityPredicate(Protocol):
    def dense(self, points: frozenset[int]) -> bool: ...


class Exhaustive:
    """dense(S) holds exactly when S is the whole index range."""

    __slots__ = ("size",)

    def __init__(self, size: int):
        _check_steps(size, "size", 1)
        self.size = size

    def dense(self, points: frozenset[int]) -> bool:
        _check_points(points, self.size)
        return len(points) == self.size

    def __repr__(self) -> str:
        return f"Exhaustive(size={self.size})"


class EpsNet:
    """dense(S) holds when the extents of S form an eps-net of the space.

    Extent ends, the space's component ends and eps are held as the ints n of
    n/D (D the lcm of their denominators; scaling keeps the order).  Each
    extent is checked on these ints, its ends in order and the extent inside
    the one component that can hold it (one bisect), and the extent ends are
    ranked once, so a density test merges the chosen extents as pairs of
    ranks and hands the merged pieces to the covering test on ints.
    The answer for the whole index set is computed on the first such query
    and kept: classifying the points of one relation asks one net about its
    whole index set again and again, and only that repetition pays for it.

    Any other set too small to cover the space is refused by counting,
    before any merge: an extent [a, b] brings at most a length
    (b - a) + 2 eps of the space within eps, so when M, the total length of
    the space's intervals, is positive, an eps-net needs at least `_least`
    extents, the fewest whose widest reaches sum to M, or one more than
    there are when even all of them fall short.  The count only refutes, and
    only where the covering test would.
    """

    __slots__ = ("space", "extents", "eps", "_frame", "_values", "_ranks", "_least", "_whole")

    def __init__(self, space: Space1D, extents: Sequence[Piece], eps):
        self.space = space
        self.extents = tuple(extents)
        self.eps = eps = _as_fraction(eps)
        if eps <= 0:
            raise ValueError("eps must be positive")
        pieces = [(_as_fraction(lo), _as_fraction(hi)) for lo, hi in self.extents]
        comps = space._components
        D = math.lcm(eps.denominator, *(e.denominator for piece in pieces for e in piece),
                     *(e.denominator for c in comps for e in c))
        ints = [(_times(lo, D), _times(hi, D)) for lo, hi in comps]
        lows = [lo for lo, _ in ints]
        ends = []
        for lo, hi in pieces:
            a, b = _times(lo, D), _times(hi, D)
            if a > b:
                raise ValueError(f"extent bounds out of order: [{lo},{hi}]")
            # the one component that can hold [a, b] is the last starting at or before a
            i = bisect.bisect_right(lows, a)
            if i == 0 or ints[i - 1][1] < b:
                raise ValueError(f"extent [{lo},{hi}] leaves the space")
            ends.append((a, b))
        self._values = values = sorted({e for piece in ends for e in piece})
        rank = {v: k for k, v in enumerate(values)}
        self._ranks = [(rank[a], rank[b]) for a, b in ends]
        eps_n = _times(eps, D)
        self._frame = _CoverFrame(ints, eps_n)
        # running sums of the extents' reaches, widest first
        sums = list(itertools.accumulate(sorted((b - a + 2 * eps_n for a, b in ends), reverse=True)))
        total = sum(hi - lo for lo, hi in ints)
        self._least = bisect.bisect_left(sums, total) + 1 if total else 0
        self._whole = None

    @property
    def size(self) -> int:
        return len(self.extents)  # one extent per point

    def with_eps(self, eps) -> "EpsNet":
        return EpsNet(self.space, self.extents, eps)

    def dense(self, points: frozenset[int]) -> bool:
        ranks = self._ranks
        _check_points(points, len(ranks))
        if len(points) == len(ranks):  # checked, n points are the whole index set
            if self._whole is None:
                self._whole = self._covers(ranks)
            return self._whole
        if len(points) < self._least:
            return False
        return self._covers(map(ranks.__getitem__, points))

    def _covers(self, ranks) -> bool:
        """Whether the extents with these rank pairs, merged, cover the space to within eps."""
        values = self._values
        return self._frame.covers([(values[lo], values[hi]) for lo, hi in _merge(sorted(ranks))])

    def __repr__(self) -> str:
        return f"EpsNet(eps={self.eps}, points={len(self.extents)})"
