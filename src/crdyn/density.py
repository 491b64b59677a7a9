"""Density predicates over finite point sets.

A predicate answers "is this subset dense in the space" and must be monotone:
enlarging the subset never turns a dense verdict false.  Two kinds exist:

* Exhaustive: the space is finite discrete, so dense means every point.
* EpsNet: points carry 1-D extents (grid boxes); dense means every point of
  the underlying geometric space lies within eps of the covered extents.
"""

from __future__ import annotations

from typing import Protocol, Sequence

from .region import Piece, Region1D, Space1D, _CoverFrame, _as_fraction, _merge


class DensityPredicate(Protocol):
    def dense(self, points: frozenset[int]) -> bool: ...


class Exhaustive:
    """dense(S) holds exactly when S is the whole index range."""

    __slots__ = ("size",)

    def __init__(self, size: int):
        if size <= 0:
            raise ValueError("space size must be positive")
        self.size = size

    def dense(self, points: frozenset[int]) -> bool:
        return len(points) == self.size

    def __repr__(self) -> str:
        return f"Exhaustive(size={self.size})"


class EpsNet:
    """dense(S) holds when the extents of S form an eps-net of the space.

    The extent endpoints are ranked once, so a density test sorts and merges
    the chosen extents as pairs of ranks and hands the merged pieces to the
    space's covering test.
    """

    __slots__ = ("space", "extents", "eps", "_frame", "_values", "_ranks")

    def __init__(self, space: Space1D, extents: Sequence[Piece], eps):
        self.space = space
        self.extents = tuple(extents)
        self._frame = _CoverFrame(space._components, _as_fraction(eps))
        self.eps = self._frame.eps
        pieces = [(_as_fraction(lo), _as_fraction(hi)) for lo, hi in self.extents]
        for lo, hi in pieces:
            if lo > hi:
                raise ValueError(f"extent bounds out of order: [{lo},{hi}]")
            if not space.contains_region(Region1D.interval(lo, hi)):
                raise ValueError(f"extent [{lo},{hi}] leaves the space")
        self._values = sorted({e for piece in pieces for e in piece})
        rank = {v: k for k, v in enumerate(self._values)}
        self._ranks = [(rank[lo], rank[hi]) for lo, hi in pieces]

    @property
    def size(self) -> int:
        return len(self.extents)  # one extent per point

    def with_eps(self, eps) -> "EpsNet":
        return EpsNet(self.space, self.extents, eps)

    def dense(self, points: frozenset[int]) -> bool:
        values = self._values
        merged = _merge(sorted(map(self._ranks.__getitem__, points)))
        return self._frame.covers([(values[lo], values[hi]) for lo, hi in merged])

    def __repr__(self) -> str:
        return f"EpsNet(eps={self.eps}, points={len(self.extents)})"
