import random

import pytest

from crdyn import gallery
from crdyn.finite import FiniteRelation, FiniteSpace
from crdyn.symbolic import SymbolicRelation


def make_random_relation(rng: random.Random, max_points: int = 7) -> FiniteRelation:
    """Random non-empty relation; edge density varies to hit diverse structure."""
    n = rng.randint(1, max_points)
    density = rng.choice([0.12, 0.2, 0.3, 0.45, 0.65])
    edges = {
        (a, b)
        for a in range(n)
        for b in range(n)
        if rng.random() < density
    }
    if not edges:
        edges.add((rng.randrange(n), rng.randrange(n)))
    return FiniteRelation(FiniteSpace([str(i) for i in range(n)]), edges)


def make_random_function(rng: random.Random, max_points: int = 7) -> FiniteRelation:
    """Graph of a random total single-valued function."""
    n = rng.randint(1, max_points)
    edges = {(a, rng.randrange(n)) for a in range(n)}
    return FiniteRelation(FiniteSpace([str(i) for i in range(n)]), edges)


def interval_relations() -> list[tuple[str, SymbolicRelation]]:
    """(name, relation) for every gallery instance on an interval space, in gallery order."""
    out = []
    for name in gallery.names():
        relation = gallery.build(name).relation
        if isinstance(relation, SymbolicRelation):
            out.append((name, relation))
    return out


@pytest.fixture
def rng() -> random.Random:
    return random.Random(20240817)
