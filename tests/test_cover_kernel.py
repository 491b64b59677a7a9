"""The shared covering kernel against the code it replaced.

eps_dense, OrbitCover, EpsNet.dense, density_threshold_steps and
Region1D.distance_to now share one gap-and-endpoint test and one
distance-to-sorted-pieces function.  The references below are the old
candidate-scan eps_dense, the old max-gap-heap density_threshold_steps, the
old EpsNet.dense that built a Region1D and ran the old eps_dense on it, and
the old linear distance_to.  The new code must give the same answers on
seeded random spaces (several components, isolated points), covered pieces
partly outside the space, touching and degenerate pieces, dyadic endpoints
and several eps.
"""

import bisect
import heapq
import random
from fractions import Fraction as F

import pytest

from crdyn.builders import density_threshold_steps
from crdyn.density import EpsNet, Exhaustive
from crdyn.region import OrbitCover, Region1D, Space1D, _CoverFrame, eps_dense

# ---------------------------------------------------------------------------
# references


def ref_eps_dense(space, covered, eps):
    if covered.is_empty():
        return False
    pieces = covered.pieces
    starts = [p[0] for p in pieces]

    def dist(x):
        i = bisect.bisect_right(starts, x) - 1
        best = None
        if i >= 0:
            plo, phi = pieces[i]
            if x <= phi:
                return F(0)
            best = x - phi
        if i + 1 < len(pieces):
            d = pieces[i + 1][0] - x
            if best is None or d < best:
                best = d
        return best

    for lo, hi in space.intervals + tuple((p, p) for p in space.isolated):
        if dist(lo) > eps or dist(hi) > eps:
            return False
        j = max(bisect.bisect_right(starts, lo) - 1, 0)
        while j + 1 < len(pieces):
            phi = pieces[j][1]
            if phi >= hi:
                break
            qlo = pieces[j + 1][0]
            mid = (phi + qlo) / 2
            if lo <= mid <= hi and mid - phi > eps:
                return False
            j += 1
    return True


def ref_net_dense(net, points):
    return ref_eps_dense(net.space, Region1D(net.extents[i] for i in points), net.eps)


def ref_distance_to(region, x):
    if not region.pieces:
        return None
    best = None
    for lo, hi in region.pieces:
        if lo <= x <= hi:
            return F(0)
        d = lo - x if x < lo else x - hi
        if best is None or d < best:
            best = d
    return best


def ref_threshold_steps(lo, hi, step_batches, eps_values):
    lo, hi = F(lo), F(hi)
    eps_values = sorted(eps_values, reverse=True)
    out = {e: None for e in eps_values}
    pending = list(eps_values)
    xs = []
    next_of = {}
    gap_heap = []

    def covering_radius():
        if not xs:
            return None
        best_gap = F(0)
        while gap_heap:
            neg, a, b = gap_heap[0]
            if next_of.get(a) == b:
                best_gap = -neg
                break
            heapq.heappop(gap_heap)
        return max(xs[0] - lo, hi - xs[-1], best_gap / 2)

    for n, batch in enumerate(step_batches):
        for v in batch:
            if not lo <= v <= hi:
                continue
            i = bisect.bisect_left(xs, v)
            if i < len(xs) and xs[i] == v:
                continue
            left = xs[i - 1] if i > 0 else None
            right = xs[i] if i < len(xs) else None
            xs.insert(i, v)
            if left is not None and right is not None:
                del next_of[left]
            if left is not None:
                next_of[left] = v
                heapq.heappush(gap_heap, (-(v - left), left, v))
            if right is not None:
                next_of[v] = right
                heapq.heappush(gap_heap, (-(right - v), v, right))
        radius = covering_radius()
        while pending and radius is not None and radius <= pending[0]:
            out[pending[0]] = n
            pending.pop(0)
        if not pending:
            break
    return out


# ---------------------------------------------------------------------------
# random inputs on a dyadic grid: spaces live in [0, 4], covered pieces in
# [-1/2, 9/2], so some pieces stick out of the space or miss it entirely

DEN = 16


def random_space(rng, dens=None):
    """A space in [0, 4]: ends on the dyadic grid, or with the denominators dens."""
    if dens is None:
        marks = sorted(F(m, DEN) for m in rng.sample(range(4 * DEN + 1), rng.randint(1, 7)))
    else:
        marks = sorted({F(rng.randint(0, 4 * d), d) for d in dens for _ in range(rng.randint(1, 3))})
    intervals, isolated = [], []
    i = 0
    while i < len(marks):
        if i + 1 < len(marks) and rng.random() < 0.6:
            intervals.append((marks[i], marks[i + 1]))
            i += 2
        else:
            isolated.append(marks[i])
            i += 1
    return Space1D(intervals=intervals, isolated=isolated)


def random_region(rng):
    pieces = []
    for _ in range(rng.randint(0, 10)):
        if pieces and rng.random() < 0.25:
            a = pieces[-1][1] * DEN  # touches the previous piece
        else:
            a = rng.randint(-DEN // 2, 4 * DEN + DEN // 2)
        b = a if rng.random() < 0.3 else a + rng.randint(1, DEN)
        pieces.append((F(a, DEN), F(b, DEN)))
    return Region1D(pieces)


def random_eps(rng):
    return rng.choice([F(1, 64), F(1, 16), F(1, 8), F(3, 16), F(1, 4), F(1, 2), F(1),
                       F(rng.randint(1, 32), 32)])


def random_extents(rng, space, n):
    comps = space.intervals + tuple((p, p) for p in space.isolated)
    extents = []
    for _ in range(n):
        lo, hi = rng.choice(comps)
        a, b = sorted(lo + (hi - lo) * F(rng.randint(0, 8), 8) for _ in range(2))
        extents.append((a, a) if rng.random() < 0.2 else (a, b))
    return extents


# ---------------------------------------------------------------------------


def test_eps_dense_matches_the_candidate_scan():
    rng = random.Random(61)
    dense = 0
    for _ in range(1500):
        space = random_space(rng)
        covered = random_region(rng)
        for eps in {random_eps(rng) for _ in range(3)}:
            got = eps_dense(space, covered, eps)
            assert got == ref_eps_dense(space, covered, eps), (space, covered, eps)
            dense += got
    assert dense > 200  # both verdicts are well represented


def test_eps_dense_on_a_region_that_is_the_space():
    rng = random.Random(62)
    for _ in range(200):
        space = random_space(rng)
        assert eps_dense(space, space.region(), F(1, 1024))
        assert ref_eps_dense(space, space.region(), F(1, 1024))


def test_orbit_cover_matches_the_candidate_scan():
    rng = random.Random(63)
    for _ in range(600):
        space = random_space(rng)
        eps = random_eps(rng)
        points = [F(rng.randint(-DEN // 2, 4 * DEN + DEN // 2), DEN) for _ in range(rng.randint(0, 12))]
        cover = OrbitCover(space, eps)
        for k, p in enumerate(points, 1):
            cover = cover.insert(p)
            assert cover.dense() == ref_eps_dense(space, Region1D.from_points(points[:k]), eps)
            assert OrbitCover(space, eps, points[:k]).bad == cover.bad
            x = F(rng.randint(-DEN, 5 * DEN), 2 * DEN)
            assert cover.distance(x) == ref_distance_to(Region1D.from_points(points[:k]), x)


def test_eps_net_dense_matches_the_region_route():
    rng = random.Random(64)
    dense = 0
    for _ in range(400):
        space = random_space(rng)
        n = rng.randint(1, 12)
        extents = random_extents(rng, space, n)
        net = EpsNet(space, extents, random_eps(rng))
        assert net.extents == tuple(extents)  # input order, not sorted order
        for _ in range(8):
            points = frozenset(i for i in range(n) if rng.random() < 0.6)
            got = net.dense(points)
            assert got == ref_net_dense(net, points), (space, extents, net.eps, points)
            assert got == eps_dense(space, Region1D(extents[i] for i in points), net.eps)
            dense += got
        assert net.dense(frozenset()) is False
        assert net.dense(frozenset(range(n))) == ref_net_dense(net, range(n))
    assert dense > 300


def test_eps_net_on_unlike_denominators_matches_the_region_route():
    # the net scales every end and eps by the lcm D of their denominators:
    # ends on thirds, sevenths, twelfths and 64ths, eps coprime to them, and
    # single-denominator spaces, where a D missing eps's factors shows
    rng = random.Random(67)
    dense = 0
    for _ in range(120):
        dens = rng.sample([3, 7, 12, 64], rng.randint(1, 3))
        space = random_space(rng, dens)
        comps = space.intervals + tuple((p, p) for p in space.isolated)
        n = rng.randint(1, 12)
        extents = []
        for _ in range(n):
            lo, hi = rng.choice(comps)
            m = rng.choice(dens)
            extents.append(tuple(sorted(lo + (hi - lo) * F(rng.randint(0, m), m) for _ in range(2))))
        eps = rng.choice([F(1, 5), F(2, 9), F(1, 3), F(5, 12), F(3, 7), F(1, 64), F(7, 5)])
        net = EpsNet(space, extents, eps)
        assert all(type(v) is int for v in net._values)
        subsets = range(2**n) if n <= 8 else [rng.getrandbits(n) for _ in range(64)]
        for bits in subsets:
            points = frozenset(i for i in range(n) if bits >> i & 1)
            got = net.dense(points)
            assert got == ref_net_dense(net, points), (space, extents, eps, points)
            dense += got
        other = net.with_eps(F(2, 9))
        for e, got in ((eps, net), (F(2, 9), other)):
            assert type(got.eps) is F and got.eps == e
            assert repr(got) == f"EpsNet(eps={e}, points={n})"
            assert got.extents == tuple(extents)
        assert other.dense(frozenset(range(n))) == ref_net_dense(other, range(n))
    assert dense > 1000


def whole_set_cover(net):
    """The covering test of all of the net's extents, merged, on Fractions."""
    return _CoverFrame(net.space._components, net.eps).covers(Region1D(net.extents).pieces)


class CountedFrame:
    def __init__(self, frame):
        self.frame, self.calls = frame, 0

    def covers(self, pieces):
        self.calls += 1
        return self.frame.covers(pieces)


def test_eps_net_keeps_one_whole_set_answer():
    # a net answers the whole index set once and keeps it: the kept answer is
    # the covering test of all extents whether asked first or after other
    # queries, and a with_eps net keeps its own
    rng = random.Random(68)
    seen, differ = set(), 0
    for _ in range(300):
        space = random_space(rng)
        n = rng.randint(1, 12)
        extents = random_extents(rng, space, n)
        eps = random_eps(rng)
        whole = frozenset(range(n))
        first, later = EpsNet(space, extents, eps), EpsNet(space, extents, eps)
        want = whole_set_cover(first)
        assert first.dense(whole) == want
        for _ in range(4):
            points = frozenset(i for i in range(n) if rng.random() < 0.6)
            assert later.dense(points) == ref_net_dense(later, points)
        assert later.dense(frozenset(reversed(range(n)))) == want
        for other_eps in (eps / 4, eps * 4):
            other = first.with_eps(other_eps)
            assert other.dense(whole) == whole_set_cover(other)
            differ += other.dense(whole) != want
        assert first.dense(whole) == later.dense(whole) == want
        seen.add(want)
    assert seen == {True, False} and differ > 20


def test_eps_net_runs_the_whole_set_cover_once():
    # the whole index set is covered once and its answer kept; a set of fewer
    # extents than the net's count makes no covering call at all.  Each extent
    # reaches 1/8 + 2 eps of [0, 1]: 5/8 at eps 1/4, so two extents may cover
    # it, and 1/4 at eps 1/16, so not even all three can
    sp = Space1D(intervals=[(0, 1)])
    for eps, want, least in ((F(1, 4), True, 2), (F(1, 16), False, 4)):
        net = EpsNet(sp, [(0, F(1, 8)), (F(1, 2), F(5, 8)), (F(7, 8), 1)], eps)
        assert net._least == least
        net._frame = counted = CountedFrame(net._frame)
        assert [net.dense(frozenset({0, 1, 2})) for _ in range(3)] == [want] * 3
        assert counted.calls == 1
        assert net.dense(frozenset({1})) is False
        assert counted.calls == 1
        assert net.dense(frozenset({0, 2})) is False
        assert counted.calls == (2 if least <= 2 else 1)


def tight_net(rng):
    """A net on one interval whose first m extents are points 2 eps apart.

    Those m points cover the interval, and their reaches (2 eps each) sum to
    its length exactly, so a count that undercounts reaches refuses them.
    The other extents are points too, so none lends the count a wider reach.
    """
    a, b = sorted(rng.sample(range(4 * DEN + 1), 2))
    lo, hi = F(a, DEN), F(b, DEN)
    m = rng.randint(1, 6)
    eps = (hi - lo) / (2 * m)
    tiles = [lo + (2 * j + 1) * eps for j in range(m)]
    others = [F(rng.randint(a, b), DEN) for _ in range(rng.randint(0, 4))]
    space = Space1D(intervals=[(lo, hi)])
    return EpsNet(space, [(p, p) for p in tiles + others], eps), frozenset(range(m))


def test_eps_net_count_refusal_matches_the_region_route():
    # the count refuses a set whose widest reaches fall short of the space's
    # length; it must never refuse a set the covering test accepts (a tight
    # net's tiling points are such a set), and on a space of isolated points
    # only (length 0) it must never fire
    rng = random.Random(69)
    counted = refused = isolated_cases = 0
    for trial in range(500):
        queries = []
        if trial % 5 == 1:
            net, tiles = tight_net(rng)
            queries.append(tiles)
        else:
            if trial % 5 == 0:
                marks = rng.sample(range(4 * DEN + 1), rng.randint(1, 6))
                space = Space1D(isolated=[F(m, DEN) for m in marks])
            else:
                space = random_space(rng)
            comps = space.intervals + tuple((p, p) for p in space.isolated)
            extents = random_extents(rng, space, rng.randint(1, 10))
            for i in range(len(extents)):
                if rng.random() < 0.15:
                    extents[i] = rng.choice(comps)  # full width, or an isolated point
            eps = rng.choice([F(1, 64), F(1, 32), F(1, 16), F(1, 8), F(1, 4), F(1, 2), F(1), F(5)])
            net = EpsNet(space, extents, eps)
        n = net.size
        queries += [frozenset(rng.sample(range(n), k)) for k in range(n + 1)]
        for points in queries:
            got = net.dense(points)
            assert got == ref_net_dense(net, points), (net.space, net.extents, net.eps, points)
            assert got == eps_dense(net.space, Region1D(net.extents[i] for i in points), net.eps)
            counted += len(points) < min(net._least, n)
            refused += not got and bool(net.space.intervals)
            if not net.space.intervals:
                isolated_cases += 1
                assert net._least == 0
        if trial % 5 == 1:
            assert net.dense(tiles)
    assert isolated_cases > 200
    assert counted * 3 > refused  # the count makes a large share of the refusals


def test_density_predicates_refuse_points_outside_the_space():
    # unchecked, a negative index would wrap to the last extent and the
    # exhaustive predicate would only compare sizes
    net = EpsNet(Space1D(intervals=[(0, 1)]), [(0, F(1, 2)), (F(1, 2), 1)], F(1, 4))
    for points in ({-1, 0}, {-2}, {5}, {0, 1, 2}):
        with pytest.raises(ValueError, match="outside the space"):
            net.dense(frozenset(points))
    for points in ({7, 9}, {-1}, {0, 2}):
        with pytest.raises(ValueError, match="outside the space"):
            Exhaustive(2).dense(frozenset(points))
    assert net.dense(frozenset({0, 1})) is True and net.dense(frozenset({0})) is False
    assert Exhaustive(2).dense(frozenset({0, 1})) is True
    assert Exhaustive(2).dense(frozenset()) is False and net.dense(frozenset()) is False

def test_distance_to_matches_the_linear_scan():
    rng = random.Random(65)
    for _ in range(1000):
        region = random_region(rng)
        for _ in range(6):
            x = F(rng.randint(-2 * DEN, 10 * DEN), 2 * DEN)
            assert region.distance_to(x) == ref_distance_to(region, x), (region, x)
        for lo, hi in region.pieces:  # endpoints and midpoints of pieces and gaps
            for x in (lo, hi, (lo + hi) / 2):
                assert region.distance_to(x) == ref_distance_to(region, x) == 0
        for (_, p), (q, _) in zip(region.pieces, region.pieces[1:]):
            assert region.distance_to((p + q) / 2) == ref_distance_to(region, (p + q) / 2)


def test_density_threshold_steps_matches_the_gap_heap():
    rng = random.Random(66)
    for _ in range(400):
        lo = F(rng.randint(0, DEN), DEN)
        hi = lo if rng.random() < 0.15 else lo + F(rng.randint(1, 2 * DEN), DEN)
        batches = [
            [F(rng.randint(-DEN // 2, 3 * DEN + DEN // 2), DEN) for _ in range(rng.randint(0, 4))]
            for _ in range(rng.randint(0, 12))
        ]
        eps_values = [random_eps(rng) for _ in range(rng.randint(0, 4))]
        got = density_threshold_steps(lo, hi, batches, eps_values)
        want = ref_threshold_steps(lo, hi, batches, eps_values)
        assert list(got.items()) == list(want.items()), (lo, hi, batches, eps_values)
