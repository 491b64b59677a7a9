"""Finite spaces, relations on them, and the fundamental set operators.

Points are referenced by dense integer indices assigned in label order; all
set values are frozensets of indices.  Relations are non-empty edge sets
(the empty relation is not a valid instance).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

PointSet = frozenset  # frozenset[int]


class InvalidInstanceError(ValueError):
    """A space, relation, or document violates its structural invariants."""


class FiniteSpace:
    """Ordered distinct point labels with the discrete topology."""

    __slots__ = ("labels", "index")

    def __init__(self, labels: Sequence[str]):
        labels = tuple(str(x) for x in labels)
        if not labels:
            raise InvalidInstanceError("space needs at least one point")
        if len(set(labels)) != len(labels):
            raise InvalidInstanceError("point labels must be distinct")
        self.labels = labels
        self.index = {name: i for i, name in enumerate(labels)}

    @property
    def size(self) -> int:
        return len(self.labels)

    def all_points(self) -> PointSet:
        return frozenset(range(self.size))

    def __eq__(self, other) -> bool:
        return isinstance(other, FiniteSpace) and self.labels == other.labels

    def __hash__(self) -> int:
        return hash(self.labels)

    def __repr__(self) -> str:
        return f"FiniteSpace({list(self.labels)!r})"


class FiniteRelation:
    """A non-empty set of directed edges over a finite space.

    `_analysis` holds the relation's one `crdyn.classify.Condensation` (its
    components and DAG, legal set and dead-end reach) once `crdyn.classify`
    has built it; a relation never changes, so it never goes stale, and it
    takes no part in equality, hashing or repr.
    """

    __slots__ = ("space", "edges", "_succ", "_pred", "_analysis")

    def __init__(self, space: FiniteSpace, edges: Iterable[tuple[int, int]]):
        edges = frozenset((int(a), int(b)) for a, b in edges)
        if not edges:
            raise InvalidInstanceError("relations are non-empty by definition")
        n = space.size
        for a, b in edges:
            if not (0 <= a < n and 0 <= b < n):
                raise InvalidInstanceError(f"edge ({a},{b}) leaves the space")
        self.space = space
        self.edges = edges
        succ: list[list[int]] = [[] for _ in range(n)]
        pred: list[list[int]] = [[] for _ in range(n)]
        for a, b in sorted(edges):
            succ[a].append(b)
            pred[b].append(a)
        self._succ = tuple(tuple(s) for s in succ)
        self._pred = tuple(tuple(p) for p in pred)
        self._analysis = None

    def successors(self, point: int) -> tuple[int, ...]:
        return self._succ[point]

    def predecessors(self, point: int) -> tuple[int, ...]:
        return self._pred[point]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FiniteRelation)
            and self.space == other.space
            and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.space, self.edges))

    def __repr__(self) -> str:
        pairs = sorted(self.edges)
        return f"FiniteRelation({self.space!r}, {pairs!r})"


@dataclass(frozen=True)
class Walk:
    """A finite walk: consecutive point pairs must all be edges."""

    points: tuple[int, ...]
    relation: FiniteRelation

    def __post_init__(self):
        if not self.points:
            raise InvalidInstanceError("walks are non-empty")
        for a, b in zip(self.points, self.points[1:]):
            if (a, b) not in self.relation.edges:
                raise InvalidInstanceError(f"({a},{b}) is not an edge")

    def __len__(self) -> int:
        return len(self.points) - 1  # number of steps

    def labels(self) -> tuple[str, ...]:
        return tuple(self.relation.space.labels[i] for i in self.points)


def inverse_relation(G: FiniteRelation) -> FiniteRelation:
    return FiniteRelation(G.space, ((b, a) for a, b in G.edges))


def _check_steps(n, name: str, least: int = 0) -> None:
    """Refuse a step count that is not an int, or is below least (0 or 1), naming its parameter.

    A bool is refused, though Python counts it as an int.  Both backends
    check their counts with this before any step, so no symbolic frame,
    whose depth is such a count, is built from a float.
    """
    if isinstance(n, bool) or not isinstance(n, int):
        raise TypeError(f"{name} must be an int, not {type(n).__name__}")
    if n < least:
        raise ValueError(f"{name} must be {'positive' if least else 'non-negative'}")


def _steps(G: FiniteRelation, A: frozenset, n: int, neighbours) -> frozenset:
    """n steps from A, each to the `neighbours` (successors or predecessors) of the last."""
    _check_steps(n, "n")
    if not A <= G.space.all_points():
        raise ValueError("A is not a subset of the space")
    current = frozenset(A)
    for _ in range(n):
        current = frozenset(w for v in current for w in neighbours(v))
        if not current:
            break
    return current


def image(G: FiniteRelation, A: frozenset, n: int = 1) -> frozenset:
    """n-step forward image; image(G, A, 0) == A."""
    return _steps(G, A, n, G.successors)


def preimage(G: FiniteRelation, A: frozenset, n: int = 1) -> frozenset:
    """n-step backward image, i.e. the forward image under the inverse."""
    return _steps(G, A, n, G.predecessors)


def _stabilized_chain(G: FiniteRelation, forward: bool) -> frozenset:
    # The chain G^n(X) decreases, so it stabilizes within |X| steps; the
    # stabilized value is the omega set, exactly.
    current = G.space.all_points()
    step = image if forward else preimage
    while True:
        nxt = step(G, current, 1)
        if nxt == current:
            return current
        current = nxt


def omega_image(G: FiniteRelation) -> frozenset:
    return _stabilized_chain(G, forward=True)


def omega_preimage(G: FiniteRelation) -> frozenset:
    return _stabilized_chain(G, forward=False)


def legal_set(G: FiniteRelation) -> frozenset:
    """Points admitting an infinite walk; equals the backward omega set."""
    return omega_preimage(G)


def illegal_set(G: FiniteRelation) -> frozenset:
    return G.space.all_points() - legal_set(G)


def mahavier_count(G: FiniteRelation, m: int) -> int:
    """Number of walks of m steps, by dynamic programming over edge counts.

    Exact at any size: Python integers never wrap.
    """
    _check_steps(m, "m", 1)
    n = G.space.size
    counts = [1] * n  # walks of length 0 starting at each point
    for _ in range(m):
        counts = [sum(counts[b] for b in G.successors(a)) for a in range(n)]
    return sum(counts)


def mahavier_enumerate(G: FiniteRelation, m: int, limit: int | None = None) -> list[Walk]:
    """Walks of m steps in lexicographic point-index order, up to `limit`."""
    _check_steps(m, "m", 1)
    if limit is not None:
        _check_steps(limit, "limit")
    out: list[Walk] = []
    if limit == 0:
        return out
    for start in range(G.space.size):
        for points in walks_from(G, start, m):
            out.append(Walk(points, G))
            if len(out) == limit:
                return out
    return out


def walks_from(G: FiniteRelation, start: int, steps: int) -> Iterator[tuple[int, ...]]:
    """All walks of exactly `steps` steps from a point, lexicographic.

    The step count and the start are checked when called, not when the first
    walk is asked for.  The depth-first walk keeps an explicit stack, so
    walks of any length are enumerated without recursion.
    """
    _check_steps(steps, "steps")
    if not 0 <= start < G.space.size:
        raise ValueError("point outside the space")
    return _walks_from(G, start, steps)


def _walks_from(G: FiniteRelation, start: int, steps: int) -> Iterator[tuple[int, ...]]:
    if steps == 0:
        yield (start,)
        return
    prefix = [start]
    # branches[i] yields the successors of prefix[i] not yet explored
    branches = [iter(G.successors(start))]
    while branches:
        nxt = next(branches[-1], None)
        if nxt is None:
            branches.pop()
            prefix.pop()
        elif len(prefix) == steps:
            yield tuple(prefix) + (nxt,)
        else:
            prefix.append(nxt)
            branches.append(iter(G.successors(nxt)))
