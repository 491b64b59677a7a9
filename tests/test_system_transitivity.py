"""System transitivity from the condensation, checked by the eight-statement suite.

`system_transitive` reads G's component count off its cached condensation;
`characterization_suite` decides the eight open-set statements from the
points' positive reaches, one search per point and relation.  The references
below are both functions as they were before: a loop over every point's
positive reach, and a suite that ran that loop (or a dense-union loop) once
per statement.
"""

import random
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from conftest import make_random_relation
from crdyn import classify, gallery
from crdyn.classify import CharacterizationReport, characterization_suite, system_transitive
from crdyn.finite import inverse_relation
from crdyn.symbolic import discretize
from test_fold_reference import cycle, path, relation

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

# ---------------------------------------------------------------------------
# references: the loop and the suite that ran it per statement


def ref_positive_reach(G, u):
    out, work = set(), list(G.successors(u))
    while work:
        v = work.pop()
        if v not in out:
            out.add(v)
            work.extend(G.successors(v))
    return frozenset(out)


def ref_system_transitive(G, plus=False):
    n = G.space.size
    for u in range(n):
        pos = ref_positive_reach(G, u)
        for v in range(n):
            if u == v and not plus:
                continue
            if v not in pos:
                return False
    return True


def ref_dense_union(R, include_self):
    full = frozenset(range(R.space.size))
    for u in range(R.space.size):
        union = ref_positive_reach(R, u)
        if include_self:
            union |= {u}
        if union != full:
            return False
    return True


def ref_characterization_suite(G):
    H = inverse_relation(G)
    s = (
        ref_system_transitive(G), ref_system_transitive(G, plus=True),
        ref_dense_union(G, True), ref_dense_union(G, False),
        ref_system_transitive(H), ref_system_transitive(H, plus=True),
        ref_dense_union(H, True), ref_dense_union(H, False),
    )
    return CharacterizationReport(
        statements=s,
        group1_consistent=(s[0] == s[2] == s[4] == s[6]),
        group2_consistent=(s[1] == s[3] == s[5] == s[7]),
        matches_transitive=(s[0] == ref_system_transitive(G)),
        matches_plus_transitive=(s[1] == ref_system_transitive(G, plus=True)),
        inverse_invariant=(s[0] == s[4]),
    )


# ---------------------------------------------------------------------------
# inputs


def relations():
    rng = random.Random(20261019)
    out = [make_random_relation(rng) for _ in range(500)]
    # a few with more points, so that some have one component and some more
    out += [make_random_relation(rng, max_points=12) for _ in range(100)]
    out.append(relation(1, [(0, 0)]))  # the one relation on one point
    for n in (30, 75, 150):
        out += [path(n), cycle(n)]
    for name in ("ex1", "exxi", "fse2"):
        out.append(discretize(gallery.build(name).relation, F(1, 32))[0])
    return out


RELATIONS = relations()


@pytest.fixture
def reach_calls(monkeypatch):
    """Count the library's positive-reach searches."""
    calls = []
    search = classify._positive_reach

    def counted(G, u):
        calls.append(u)
        return search(G, u)

    monkeypatch.setattr(classify, "_positive_reach", counted)
    return calls


def test_the_inputs_have_both_answers():
    answers = [ref_system_transitive(G) for G in RELATIONS]
    assert answers.count(True) >= 50 and answers.count(False) >= 50


class TestSystemTransitive:
    def test_it_runs_no_reach_search(self, reach_calls):
        for G in RELATIONS:
            system_transitive(G)
            system_transitive(G, plus=True)
        assert reach_calls == []

    def test_it_equals_the_loop_with_and_without_plus(self):
        for G in RELATIONS:
            plain = system_transitive(G)
            assert plain == ref_system_transitive(G), G
            assert system_transitive(G, plus=True) == ref_system_transitive(G, plus=True) == plain, G


class TestCharacterizationSuite:
    @pytest.mark.parametrize("G, searches", [
        (workloads._cycle(50), 100),
        (workloads._path(50), 3),
        (workloads._random_graph(random.Random(3), 100), 2),
    ], ids=["cycle50", "path50", "random100"])
    def test_one_reach_search_per_point_and_relation(self, reach_calls, G, searches):
        characterization_suite(G)
        assert len(reach_calls) == searches

    def test_it_builds_no_condensation(self):
        G = cycle(30)
        characterization_suite(G)
        assert G._analysis is None

    def test_it_equals_the_suite_that_ran_the_loop(self):
        for G in RELATIONS:
            assert characterization_suite(G) == ref_characterization_suite(G), G
