"""Routes that decide the same claim must not contradict each other.

An interval relation on isolated points only is a finite relation: its
twin has one point per isolated point and one edge per single point of the
relation, and the exhaustive finite classification (`classify_point`) is
exact.  At eps = 1/4, on points at least 1 apart, an eps-dense set is one
that holds every point, which is the exhaustive predicate.  So every claim
that `classify_interval_point` certifies at eps must hold for the finite
verdict, every claim it refutes must fail for it, and a verdict row it
settles must be the finite verdict.
"""

import random
from collections import Counter
from fractions import Fraction as F

from crdyn.classify import Verdict, classify_point
from crdyn.finite import FiniteRelation, FiniteSpace
from crdyn.region import Space1D
from crdyn.symbolic import SinglePoint, SymbolicRelation, classify_interval_point

EPS = F(1, 4)
SEEDS = range(300)

# the claims the finite verdict decides, and the verdicts under which each holds
HOLDS = {
    "legal": {Verdict.TRANS1, Verdict.TRANS2, Verdict.TRANS3, Verdict.INTRANSITIVE},
    "trans3-at-eps": {Verdict.TRANS1, Verdict.TRANS2, Verdict.TRANS3},
    "trans2-at-eps": {Verdict.TRANS1, Verdict.TRANS2},
    "trans1-at-eps": {Verdict.TRANS1},
}
# the verdict rows that settle the finite verdict
SETTLED = {"illegal": Verdict.ILLEGAL, "intransitive-at-eps": Verdict.INTRANSITIVE}


def isolated_points_only(seed):
    """(interval relation, its finite twin): k = 1..6 points at 2i + {0, 1} and random single-point edges."""
    rng = random.Random(seed)
    k = rng.randint(1, 6)
    points = [F(2 * i + rng.randint(0, 1)) for i in range(k)]
    pairs = [(a, b) for a in range(k) for b in range(k)]
    edges = rng.sample(pairs, rng.randint(1, len(pairs)))
    R = SymbolicRelation(Space1D(isolated=points), [SinglePoint(points[a], points[b]) for a, b in edges])
    G = FiniteRelation(FiniteSpace([str(p) for p in points]), edges)
    return R, G, points


def contradictions():
    """([(seed, point, claim row, finite verdict)] that disagree, Counter of the rows checked)."""
    bad, checked = [], Counter()
    for seed in SEEDS:
        R, G, points = isolated_points_only(seed)
        for i, x in enumerate(points):
            verdict = classify_point(G, i).verdict
            for claim in classify_interval_point(R, x, EPS, 3 * len(points)).claims:
                if claim.name in HOLDS and claim.status in ("certified", "refuted"):
                    holds = verdict in HOLDS[claim.name]
                    ok = holds if claim.status == "certified" else not holds
                elif claim.name == "verdict" and claim.status in SETTLED:
                    ok = SETTLED[claim.status] is verdict
                else:
                    continue
                checked[claim.name, claim.status] += 1
                if not ok:
                    bad.append((seed, x, claim, verdict))
    return bad, checked


def test_isolated_points_only_interval_claims_agree_with_the_finite_verdict():
    bad, checked = contradictions()
    assert bad == []
    # every claim and both settled verdicts are checked somewhere, so no check is vacuous
    assert all(checked[name, "certified"] + checked[name, "refuted"] for name in HOLDS), checked
    assert all(checked["verdict", status] for status in SETTLED), checked
