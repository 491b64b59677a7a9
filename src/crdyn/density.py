"""Density predicates over finite point sets.

A predicate answers "is this subset dense in the space" and must be monotone:
enlarging the subset never turns a dense verdict false.  Two kinds exist:

* Exhaustive: the space is finite discrete, so dense means every point.
* EpsNet: points carry 1-D extents (grid boxes); dense means every point of
  the underlying geometric space lies within eps of the covered extents.
"""

from __future__ import annotations

from typing import Iterable, Protocol, Sequence

from .region import Piece, Region1D, Space1D, _as_fraction, eps_dense


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
    """dense(S) holds when the extents of S form an eps-net of the space."""

    __slots__ = ("space", "extents", "eps")

    def __init__(self, space: Space1D, extents: Sequence[Piece], eps):
        self.space = space
        self.extents = tuple(extents)
        self.eps = _as_fraction(eps)
        if self.eps <= 0:
            raise ValueError("eps must be positive")
        region = space.region()
        for lo, hi in self.extents:
            if lo > hi:
                raise ValueError(f"extent bounds out of order: [{lo},{hi}]")
            if not (region.contains_point(lo) and region.contains_point(hi)):
                raise ValueError(f"extent [{lo},{hi}] leaves the space")

    def with_eps(self, eps) -> "EpsNet":
        return EpsNet(self.space, self.extents, eps)

    def covered_region(self, points: Iterable[int]) -> Region1D:
        return Region1D(self.extents[i] for i in points)

    def dense(self, points: frozenset[int]) -> bool:
        return eps_dense(self.space, self.covered_region(points), self.eps)

    def __repr__(self) -> str:
        return f"EpsNet(eps={self.eps}, points={len(self.extents)})"
