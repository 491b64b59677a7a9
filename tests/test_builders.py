from fractions import Fraction as F

import pytest

from crdyn import gallery
from crdyn.classify import BudgetExceededError
from crdyn.builders import (
    cantor_stage_intervals,
    cantor_staircase,
    dense_prefix_point,
    density_threshold_steps,
    forward_orbit,
    left_half_tent_graph,
    map_preimages,
    map_value,
    right_half_tent_graph,
    tent_map_graph,
)
from crdyn.region import Region1D, Space1D, eps_dense
from crdyn.symbolic import Segment, SymbolicRelation, sym_image

UNIT = Space1D(intervals=[(0, 1)])


class TestTentGraphs:
    def test_values(self):
        tent = tent_map_graph()
        assert map_value(tent, F(1, 4)) == F(1, 2)
        assert map_value(tent, F(1, 2)) == 1
        assert map_value(tent, F(3, 4)) == F(1, 2)

    def test_onto(self):
        R = SymbolicRelation(UNIT, tent_map_graph())
        assert sym_image(R, Region1D.interval(0, 1)) == Region1D.interval(0, 1)
        assert sym_image(R, Region1D.interval(0, F(1, 2))) == Region1D.interval(0, 1)

    def test_half_tents_stay_in_their_halves(self):
        left = left_half_tent_graph()
        right = right_half_tent_graph()
        assert map_value(left, F(1, 4)) == F(1, 2)
        assert map_value(left, F(1, 2)) == 0
        assert map_value(right, F(3, 4)) == 1
        assert map_value(right, 1) == F(1, 2)
        spL = Space1D(intervals=[(0, F(1, 2))])
        RL = SymbolicRelation(spL, left)
        assert sym_image(RL, Region1D.interval(0, F(1, 2))) == Region1D.interval(0, F(1, 2))

    def test_preimages(self):
        tent = tent_map_graph()
        assert map_preimages(tent, F(1, 2)) == [F(1, 4), F(3, 4)]
        assert map_preimages(tent, 1) == [F(1, 2)]
        assert map_preimages(tent, 0) == [F(0), F(1)]


    def test_preimages_equal_the_inverse_slope_formula(self):
        """Mirrored pieces give the preimages the per-piece inverse formula gave, and flag flat pieces."""

        def formula(segments, y):
            out = set()
            for seg in segments:
                ylo, yhi = seg.y_extent()
                if not ylo <= y <= yhi:
                    continue
                if seg.y1 == seg.y2:
                    return "flat"
                out.add(seg.x1 + (y - seg.y1) * (seg.x2 - seg.x1) / (seg.y2 - seg.y1))
            return sorted(out)

        def outcome(segments, y):
            try:
                return map_preimages(segments, y)
            except ValueError:
                return "flat"

        maps = [tent_map_graph(), left_half_tent_graph(), right_half_tent_graph(), cantor_staircase(2)]
        for name in gallery.names():
            relation = gallery.build(name).relation
            if isinstance(relation, SymbolicRelation):
                maps.append([p for p in relation.primitives if isinstance(p, Segment)])
        flats = 0
        for segments in maps:
            ys = {F(k, 64) for k in range(-2, 67)} | {y for seg in segments for y in (seg.y1, seg.y2)}
            for y in sorted(ys):
                want = formula(segments, y)
                flats += want == "flat"
                assert outcome(segments, y) == want, (segments, y)
        assert flats > 0

class TestCantor:
    def test_stage_intervals(self):
        assert cantor_stage_intervals(1) == [(F(0), F(1, 3)), (F(2, 3), F(1))]
        lvl2 = cantor_stage_intervals(2)
        assert len(lvl2) == 4
        assert lvl2[1] == (F(2, 9), F(1, 3))

    def test_level1_image_of_first_third(self):
        R = SymbolicRelation(UNIT, cantor_staircase(1))
        got = sym_image(R, Region1D.interval(0, F(1, 3)))
        assert got == Region1D.interval(0, F(1, 2))

    def test_staircase_is_total_and_monotone(self):
        segs = cantor_staircase(3)
        xs = [F(k, 81) for k in range(82)]
        values = [map_value(segs, x) for x in xs]
        assert values[0] == 0 and values[-1] == 1
        assert all(a <= b for a, b in zip(values, values[1:]))


class TestForwardOrbit:
    def test_matches_repeated_evaluation(self):
        tent = tent_map_graph()
        orbit = forward_orbit(tent, F(1, 5), 4)
        assert orbit == [F(1, 5), F(2, 5), F(4, 5), F(2, 5), F(4, 5)]

    def test_rejects_multivalued(self):
        # the full tent and the left half tent disagree at 3/8 (3/4 vs 1/4)
        with pytest.raises(ValueError):
            map_value([*tent_map_graph(), *left_half_tent_graph()], F(3, 8))


class TestDensePrefixPoint:
    def test_contract_verified(self):
        x = dense_prefix_point(tent_map_graph(), (0, 1), F(1, 16), 40,
                               min_denominator_bits=80, seed=11)
        orbit = forward_orbit(tent_map_graph(), x, 40)
        assert eps_dense(UNIT, Region1D.from_points(orbit), F(1, 16))
        assert x.denominator.bit_length() >= 80

    def test_impossible_budget_fails_explicitly(self):
        # 32 cells cannot be hit by a 10-step orbit
        with pytest.raises(BudgetExceededError):
            dense_prefix_point(tent_map_graph(), (0, 1), F(1, 32), 10)

    def test_half_tent_prefix(self):
        x = dense_prefix_point(right_half_tent_graph(), (F(1, 2), 1), F(1, 16), 40,
                               min_denominator_bits=80, seed=2)
        orbit = forward_orbit(right_half_tent_graph(), x, 40)
        sp = Space1D(intervals=[(F(1, 2), 1)])
        assert eps_dense(sp, Region1D.from_points(orbit), F(1, 16))
        assert all(F(1, 2) <= v <= 1 for v in orbit)


class TestDensityThresholds:
    def test_hand_case(self):
        # step 0 plants the midpoint, step 1 the quarters, step 2 the eighths
        batches = [
            [F(1, 2)],
            [F(1, 4), F(3, 4)],
            [F(1, 8), F(3, 8), F(5, 8), F(7, 8)],
        ]
        out = density_threshold_steps(0, 1, batches, [F(1, 2), F(1, 4), F(1, 8)])
        assert out[F(1, 2)] == 0
        assert out[F(1, 4)] == 1
        assert out[F(1, 8)] == 2

    def test_unreached_is_none(self):
        out = density_threshold_steps(0, 1, [[F(1, 2)]], [F(1, 100)])
        assert out[F(1, 100)] is None

    def test_one_point_interval(self):
        out = density_threshold_steps(F(1, 2), F(1, 2), [[F(1, 4)], [F(1, 2)]], [F(1, 4)])
        assert out == {F(1, 4): 1}

    def test_reversed_bounds_and_nonpositive_eps_are_rejected(self):
        with pytest.raises(ValueError, match="out of order"):
            density_threshold_steps(1, 0, [[F(1, 2)]], [F(1, 4)])
        with pytest.raises(ValueError, match="eps must be positive"):
            density_threshold_steps(0, 1, [[F(1, 2)]], [F(1, 4), 0])

    def test_matches_direct_eps_dense(self, rng):
        for _ in range(50):
            batches = [
                [F(rng.randint(0, 64), 64) for _ in range(rng.randint(0, 3))]
                for _ in range(6)
            ]
            eps = F(rng.randint(1, 16), 32)
            out = density_threshold_steps(0, 1, batches, [eps])
            acc: list = []
            direct = None
            for n, batch in enumerate(batches):
                acc.extend(batch)
                if acc and eps_dense(UNIT, Region1D.from_points(acc), eps):
                    direct = n
                    break
            assert out[eps] == direct
