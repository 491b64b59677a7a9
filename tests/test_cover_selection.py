"""One cover selection and the finite traversals against the code they replaced.

The references below are sym_branch_cover with its own combination loop, the
depth-first unique_infinite_branch, and the separate image and preimage
loops, as they were before the interval backend chose its cover with
classify._min_cover, unique_infinite_branch read orbit_union, and image and
preimage shared one stepping loop.  The new code must give the same cover
sizes, witnesses and certainties, and the same booleans and sets.
"""

import itertools
import random
import time
from fractions import Fraction as F

import pytest

from conftest import make_random_relation
from crdyn import gallery
from crdyn.classify import BudgetExceededError, Certainty, _analysis, _min_cover
from crdyn.finite import image, preimage
from crdyn.region import OrbitCover, Space1D
from crdyn.symbolic import (
    Segment,
    SinglePoint,
    SymbolicRelation,
    sym_branch_cover,
)
from crdyn.tree import unique_infinite_branch
from fraction_reference import ref_orbit_dfs, ref_search_args

# ---------------------------------------------------------------------------
# references


def ref_combination_scan(kept, dense):
    """The old selection: the first dense index combination, smallest size first."""
    if not kept or not dense(frozenset().union(*(s for s, _ in kept))):
        return None
    for k in range(1, len(kept) + 1):
        for combo in itertools.combinations(range(len(kept)), k):
            if dense(frozenset().union(*(kept[i][0] for i in combo))):
                return k, list(combo)
    return None


def ref_sym_branch_cover(R, x, eps, horizon, choice_step=None, budget=50000, max_candidates=128):
    """sym_branch_cover with its own combination loop, as (size, witnesses, horizon, certainty)."""
    x, eps, step = ref_search_args(R, x, eps, choice_step)
    achieved = {}

    def visit(walk, orbit, cover):
        known = achieved.get(orbit)
        if known is None or (len(walk), walk) < (len(known), known):
            achieved[orbit] = walk
        return None

    status, _, _ = ref_orbit_dfs(R, x, eps, horizon, step, budget, visit)
    if status == "budget":
        raise BudgetExceededError("walk family too large for branch cover search")
    pairs = sorted(achieved.items(), key=lambda item: item[1])
    kept = []
    for orbit, walk in pairs:
        if any(orbit < other for other, _ in kept):
            continue
        kept = [(o, w) for o, w in kept if not (o < orbit)]
        kept.append((orbit, walk))
    if len(kept) > max_candidates:
        raise BudgetExceededError("too many candidate walks for branch cover search")
    kept.sort(key=lambda item: item[1])

    def dense_union(idx):
        return OrbitCover(R.space, eps, (p for i in idx for p in kept[i][0])).dense()

    if not kept or not dense_union(range(len(kept))):
        return None, (), horizon, Certainty.UNKNOWN_AT_HORIZON
    for k in range(1, len(kept) + 1):
        for combo in itertools.combinations(range(len(kept)), k):
            if dense_union(combo):
                return k, tuple(kept[i][1] for i in combo), horizon, Certainty.CERTIFIED
    return None, (), horizon, Certainty.UNKNOWN_AT_HORIZON


def ref_unique_infinite_branch(G, x):
    legal_pts = _analysis(G).legal
    if x not in legal_pts:
        return False
    seen = {x}
    work = [x]
    while work:
        v = work.pop()
        legal_succ = [w for w in G.successors(v) if w in legal_pts]
        if len(legal_succ) != 1:
            return False
        w = legal_succ[0]
        if w not in seen:
            seen.add(w)
            work.append(w)
    return True


def ref_image(G, A, n=1):
    current = frozenset(A)
    for _ in range(n):
        current = frozenset(b for a in current for b in G.successors(a))
        if not current:
            break
    return current


def ref_preimage(G, A, n=1):
    current = frozenset(A)
    for _ in range(n):
        current = frozenset(a for b in current for a in G.predecessors(b))
        if not current:
            break
    return current


# ---------------------------------------------------------------------------
# the interval cover against its old combination loop

UNIT = Space1D(intervals=[(0, 1)])
CROSS_MID = SymbolicRelation(UNIT, [Segment(0, F(1, 2), 1, F(1, 2)), Segment(F(1, 2), 0, F(1, 2), 1)])
FORK = SymbolicRelation(
    UNIT,
    [
        SinglePoint(F(1, 2), F(1, 8)),
        SinglePoint(F(1, 2), F(7, 8)),
        Segment(0, 0, F(1, 2), F(1, 2)),
        Segment(F(1, 2), F(1, 2), 1, 1),
    ],
)


def as_tuple(res):
    return res.size, res.witnesses, res.horizon, res.certainty


EX31 = gallery.build("ex31")
SYMBOLIC_CASES = [
    ("fork", FORK, F(1, 2), F(1, 2), 4, {}),
    ("fork-fine", FORK, F(1, 2), F(1, 8), 6, {}),
    ("fork-too-fine", FORK, F(1, 2), F(1, 64), 3, {}),
    ("cross-mid", CROSS_MID, F(1, 2), F(1, 4), 30, {}),
    ("cross-mid-short", CROSS_MID, F(1, 4), F(1, 8), 2, {}),
    ("ex31", EX31.relation, 0, EX31.params["cover_eps"], EX31.params["cover_horizon"], {"budget": 20000}),
]


class TestSymbolicCover:
    @pytest.mark.parametrize("name,R,x,eps,horizon,kw", SYMBOLIC_CASES, ids=[c[0] for c in SYMBOLIC_CASES])
    def test_equals_the_combination_loop(self, name, R, x, eps, horizon, kw):
        got = as_tuple(sym_branch_cover(R, x, eps, horizon, **kw))
        assert got == ref_sym_branch_cover(R, x, eps, horizon, **kw)

    def test_the_budget_bounds_the_cover_selection(self):
        # on ex4 the walks from 1/3 leave a family whose selection scans about
        # a million combinations; the budget stops it after 2000 density tests
        R = gallery.build("ex4").relation
        t0 = time.perf_counter()
        with pytest.raises(BudgetExceededError, match="^cover selection too large"):
            sym_branch_cover(R, F(1, 3), F(1, 16), 4, F(1, 8), budget=2000)
        assert time.perf_counter() - t0 < 1.0

    def test_random_families_under_monotone_predicates(self):
        rng = random.Random(9)
        space = Space1D(intervals=[(0, 1)])
        grid = [F(i, 8) for i in range(9)]
        for trial in range(20000):
            m = rng.randint(1, 7)
            points = rng.randint(3, 9)
            kept = [
                (frozenset(rng.sample(range(points), rng.randint(1, points))), (i,))
                for i in range(m)
            ]
            target = frozenset(rng.sample(range(points), rng.randint(1, points)))
            threshold = rng.randint(1, points)
            eps = rng.choice([F(1, 16), F(1, 8), F(1, 4)])
            predicates = (
                lambda s: target <= s,
                lambda s: len(s) >= threshold,
                lambda s: OrbitCover(space, eps, (grid[p % 9] for p in s)).dense(),
            )
            dense = predicates[trial % 3]
            assert _min_cover(kept, dense) == ref_combination_scan(kept, dense), (kept, trial)


# ---------------------------------------------------------------------------
# finite traversals against the loops they replaced


class TestFiniteTraversals:
    def test_unique_infinite_branch_equals_the_dfs(self):
        rng = random.Random(31)
        for _ in range(3000):
            G = make_random_relation(rng, max_points=8)
            for x in range(G.space.size):
                assert unique_infinite_branch(G, x) == ref_unique_infinite_branch(G, x), (G, x)

    def test_image_and_preimage_equal_their_loops(self):
        rng = random.Random(32)
        for _ in range(1500):
            G = make_random_relation(rng, max_points=8)
            n_pts = G.space.size
            A = frozenset(v for v in range(n_pts) if rng.random() < 0.4)
            for n in range(5):
                assert image(G, A, n) == ref_image(G, A, n)
                assert preimage(G, A, n) == ref_preimage(G, A, n)

    def test_image_and_preimage_keep_their_argument_checks(self):
        G = make_random_relation(random.Random(33))
        for step in (image, preimage):
            with pytest.raises(ValueError, match="non-negative"):
                step(G, frozenset(), -1)
            with pytest.raises(ValueError, match="subset"):
                step(G, frozenset({G.space.size}), 1)
