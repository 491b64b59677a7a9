from fractions import Fraction as F

import pytest

from conftest import make_random_relation
from crdyn.density import EpsNet, Exhaustive
from crdyn.finite import (
    FiniteRelation,
    FiniteSpace,
    InvalidInstanceError,
    Walk,
    illegal_set,
    image,
    inverse_relation,
    legal_set,
    mahavier_count,
    mahavier_enumerate,
    omega_image,
    omega_preimage,
    preimage,
    walks_from,
)
from crdyn.classify import _reaches_cycle
from crdyn.region import Space1D


def rel(labels, edges) -> FiniteRelation:
    return FiniteRelation(FiniteSpace(labels), edges)


PAIR_LOOP = rel(["1", "2"], [(0, 0)])
CYCLE3 = rel(["1", "2", "3"], [(0, 1), (1, 2), (2, 0)])


class TestValidation:
    def test_space_needs_distinct_labels(self):
        with pytest.raises(InvalidInstanceError):
            FiniteSpace(["a", "a"])
        with pytest.raises(InvalidInstanceError):
            FiniteSpace([])

    def test_relation_rejects_empty_and_out_of_range(self):
        with pytest.raises(InvalidInstanceError):
            rel(["a"], [])
        with pytest.raises(InvalidInstanceError):
            rel(["a"], [(0, 1)])

    def test_walk_checks_edges(self):
        Walk((0, 1, 2), CYCLE3)
        with pytest.raises(InvalidInstanceError):
            Walk((0, 2), CYCLE3)
        with pytest.raises(InvalidInstanceError):
            Walk((), CYCLE3)


class TestInverse:
    def test_selfloop_fixed(self):
        assert inverse_relation(PAIR_LOOP).edges == frozenset({(0, 0)})

    def test_cycle_reversal(self):
        assert inverse_relation(CYCLE3).edges == frozenset({(1, 0), (2, 1), (0, 2)})

    def test_involution_on_random(self, rng):
        for _ in range(200):
            G = make_random_relation(rng)
            assert inverse_relation(inverse_relation(G)) == G


class TestImage:
    def test_cycle_two_steps(self):
        assert image(CYCLE3, frozenset({0}), 2) == frozenset({2})

    def test_dead_point_has_empty_image(self):
        assert image(PAIR_LOOP, frozenset({1}), 1) == frozenset()

    def test_composition_identity_on_random(self, rng):
        for _ in range(500):
            G = make_random_relation(rng)
            n = rng.randint(0, 5)
            A = frozenset(
                x for x in range(G.space.size) if rng.random() < 0.5
            )
            lhs = image(G, A, n + 1)
            rhs = image(G, image(G, A, n), 1)
            assert lhs == rhs

    def test_walk_equivalences_exhaustive(self, rng):
        # membership in the n-step image matches walk enumeration, both ways
        for _ in range(60):
            G = make_random_relation(rng, max_points=5)
            n = rng.randint(0, 4)
            H = inverse_relation(G)
            for x in range(G.space.size):
                endpoints = {w[-1] for w in walks_from(G, x, n)}
                assert endpoints == image(G, frozenset({x}), n)
                for y in range(G.space.size):
                    assert (x in preimage(G, frozenset({y}), n)) == (
                        y in image(G, frozenset({x}), n)
                    )
                    assert (y in image(G, frozenset({x}), n)) == (
                        x in image(H, frozenset({y}), n)
                    )


class TestPreimage:
    def test_two_sources(self):
        G = rel(["1", "2"], [(0, 1), (1, 1)])
        assert preimage(G, frozenset({1}), 1) == frozenset({0, 1})

    def test_three_steps_into_loop(self):
        # only the looping point has length-3 incoming walks
        assert preimage(PAIR_LOOP, frozenset({0, 1}), 3) == frozenset({0})

    def test_matches_image_of_inverse_on_random(self, rng):
        for _ in range(500):
            G = make_random_relation(rng)
            n = rng.randint(0, 4)
            A = frozenset(x for x in range(G.space.size) if rng.random() < 0.5)
            assert preimage(G, A, n) == image(inverse_relation(G), A, n)


class TestOmegaSets:
    def test_pair_loop(self):
        assert omega_preimage(PAIR_LOOP) == frozenset({0})
        assert omega_image(PAIR_LOOP) == frozenset({0})

    def test_full_relation_idempotent(self):
        G = rel(["1", "2"], [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert omega_image(G) == frozenset({0, 1})

    def test_chain_stabilizes_within_size(self, rng):
        for _ in range(500):
            G = make_random_relation(rng)
            n = G.space.size
            X = G.space.all_points()
            chain = [X]
            while True:
                nxt = image(G, chain[-1], 1)
                if nxt == chain[-1]:
                    break
                chain.append(nxt)
            assert len(chain) - 1 <= n
            # monotone decreasing all the way down
            for bigger, smaller in zip(chain, chain[1:]):
                assert smaller <= bigger
            assert chain[-1] == omega_image(G)

    def test_omega_image_nonempty_iff_some_point_legal(self, rng):
        # a single edge with no continuation shows the chain can die out
        # entirely, so non-emptiness is equivalent to a cycle existing
        dead = rel(["a", "b"], [(0, 1)])
        assert omega_image(dead) == frozenset()
        assert legal_set(dead) == frozenset()
        for _ in range(300):
            G = make_random_relation(rng)
            assert (omega_image(G) != frozenset()) == (legal_set(G) != frozenset())


class TestLegal:
    def test_pair_example(self):
        assert legal_set(PAIR_LOOP) == frozenset({0})
        assert illegal_set(PAIR_LOOP) == frozenset({1})

    def test_cycle_all_legal(self):
        assert legal_set(CYCLE3) == frozenset({0, 1, 2})

    def test_equals_cycle_reachability_on_random(self, rng):
        for _ in range(500):
            G = make_random_relation(rng)
            by_cycles = frozenset(
                x for x in range(G.space.size) if _reaches_cycle(G, x)
            )
            assert legal_set(G) == by_cycles

    def test_main1_triple_equivalence_on_random(self, rng):
        for _ in range(500):
            G = make_random_relation(rng)
            n = G.space.size
            for x in range(n):
                illegal = x in illegal_set(G)
                empty_at = any(
                    image(G, frozenset({x}), k) == frozenset() for k in range(1, n + 1)
                )
                outside_omega = x not in omega_preimage(G)
                assert illegal == empty_at == outside_omega


class TestMahavier:
    def test_full_shift_count(self):
        G = rel(["1", "2"], [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert mahavier_count(G, 3) == 16

    def test_cycle_walks(self):
        assert mahavier_count(CYCLE3, 2) == 3
        walks = [w.points for w in mahavier_enumerate(CYCLE3, 2)]
        assert walks == [(0, 1, 2), (1, 2, 0), (2, 0, 1)]

    def test_enumeration_is_lexicographic_and_truncates(self):
        G = rel(["1", "2"], [(0, 0), (0, 1), (1, 0), (1, 1)])
        walks = [w.points for w in mahavier_enumerate(G, 2, limit=3)]
        assert walks == [(0, 0, 0), (0, 0, 1), (0, 1, 0)]

    def test_count_matches_enumeration_on_random(self, rng):
        for _ in range(100):
            G = make_random_relation(rng, max_points=4)
            m = rng.randint(1, 5)
            assert mahavier_count(G, m) == len(mahavier_enumerate(G, m))

    def test_count_is_exact_for_large_depth(self):
        G = rel(["1", "2"], [(0, 0), (0, 1), (1, 0), (1, 1)])
        assert mahavier_count(G, 200) == 2 ** 201

    def test_enumeration_does_not_depend_on_the_recursion_limit(self):
        G = rel(["1", "2"], [(0, 0), (0, 1), (1, 0), (1, 1)])
        (walk,) = mahavier_enumerate(G, 5000, limit=1)
        assert walk.points == (0,) * 5001
        first = next(walks_from(CYCLE3, 1, 5000))
        assert first == tuple((1 + k) % 3 for k in range(5001))

    def test_limit_zero_and_dead_ends(self):
        G = rel(["1", "2", "3"], [(0, 1), (0, 2), (2, 2)])
        assert mahavier_enumerate(G, 2, limit=0) == []
        assert [w.points for w in mahavier_enumerate(G, 2)] == [(0, 2, 2), (2, 2, 2)]
        assert list(walks_from(G, 1, 1)) == []
        assert list(walks_from(G, 1, 0)) == [(1,)]


def recursive_walks(G, start, steps):
    """Walks by plain recursion, the reference for the iterative enumeration."""
    if steps == 0:
        return [(start,)]
    return [(start,) + rest for nxt in G.successors(start)
            for rest in recursive_walks(G, nxt, steps - 1)]


def test_walks_from_checks_its_arguments_when_called():
    # the refusals come from the call itself, before any walk is asked for
    with pytest.raises(TypeError, match="^steps must be an int, not float$"):
        walks_from(CYCLE3, 0, 1.5)
    with pytest.raises(ValueError, match="^steps must be non-negative$"):
        walks_from(CYCLE3, 0, -1)
    for start in (-1, 3, 7):  # -1 would walk from the last point, 7 would raise IndexError
        with pytest.raises(ValueError, match="^point outside the space$"):
            walks_from(CYCLE3, start, 1)
    assert list(walks_from(CYCLE3, 2, 1)) == [(2, 0)]


def test_walks_from_matches_recursion_on_random(rng):
    for _ in range(100):
        G = make_random_relation(rng, max_points=4)
        x = rng.randrange(G.space.size)
        steps = rng.randint(0, 5)
        assert list(walks_from(G, x, steps)) == recursive_walks(G, x, steps)


class TestDensityPredicates:
    def test_exhaustive_is_equality_with_space(self):
        d = Exhaustive(3)
        assert d.dense(frozenset({0, 1, 2}))
        assert not d.dense(frozenset({0, 1}))

    def test_monotone_on_random(self, rng):
        sp = Space1D(intervals=[(0, 1)])
        cells = [(F(k, 8), F(k + 1, 8)) for k in range(8)]
        predicates = [Exhaustive(8), EpsNet(sp, cells, F(1, 8)), EpsNet(sp, cells, F(1, 3))]
        for _ in range(200):
            small = frozenset(i for i in range(8) if rng.random() < 0.5)
            extra = frozenset(i for i in range(8) if rng.random() < 0.5)
            big = small | extra
            for pred in predicates:
                if pred.dense(small):
                    assert pred.dense(big)

    def test_eps_net_covers_geometrically(self):
        sp = Space1D(intervals=[(0, 1)])
        cells = [(F(k, 4), F(k + 1, 4)) for k in range(4)]
        pred = EpsNet(sp, cells, F(1, 4))
        # two spread cells cover at radius 1/4: worst point distance is 1/4
        assert pred.dense(frozenset({0, 2}))
        assert not pred.dense(frozenset({0}))
