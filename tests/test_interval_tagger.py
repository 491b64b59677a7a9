"""The interval tagger against the CLI rows it replaced, and the record it returns.

`crdyn classify` on an interval document used to decide each claim inside
the CLI, in `_symbolic_point_rows` below, copied as it was.  Now
`classify_interval_point` decides each claim and words it as a `Claim` row
naming its route, and the CLI only prints the rows, so on every total
relation the tag's claims must give the reference's rows.  On a relation
that is not total the two differ on purpose: a dense reach and a found walk
certify type 3 and type 2 only at a certified legal point.
"""

import functools
import random
import re
from fractions import Fraction
from fractions import Fraction as F
from pathlib import Path

import pytest

import crdyn
import crdyn.cli as cli
import crdyn.symbolic as symbolic
from crdyn import gallery
from crdyn.classify import Certainty
from crdyn.io import parse_instance
from crdyn.region import Region1D, Space1D, eps_dense
from crdyn.symbolic import (
    ROUTES,
    IntervalPointTag,
    Segment,
    SymbolicRelation,
    bounded_walk_search,
    classify_interval_point,
    is_total,
    nondense_loop_search,
    point_successors,
    sym_image,
    sym_reach_chain,
)
from test_integer_frame import random_integer_slope_relation
from test_cli import GOLDEN_INTERVAL_CLASSIFY

# ---------------------------------------------------------------------------
# reference: the CLI's row builder before the tagger


def _symbolic_point_rows(R: SymbolicRelation, x: Fraction, eps: Fraction, horizon: int):
    rows = []
    if is_total(R):
        rows.append(("legal", "certified", "every point has a successor"))
        legal = True
    else:
        images = Region1D.point(x)
        legal = None
        for n in range(1, horizon + 1):
            images = sym_image(R, images)
            if images.is_empty():
                rows.append(("legal", "refuted", f"images die out at step {n}"))
                legal = False
                break
        if legal is None:
            rows.append(("legal", "unknown-at-horizon", "images stay non-empty"))
    if legal is False:
        rows.append(("verdict", "illegal", ""))
        return rows

    chain = sym_reach_chain(R, Region1D.point(x), horizon)
    stabilized = len(chain) >= 2 and chain[-1] == chain[-2]
    grade = None
    for n, region in enumerate(chain):
        if n >= 1 and eps_dense(R.space, region, eps):
            grade = n
            break
    if grade is not None:
        rows.append(("trans3-at-eps", "certified", f"reach dense at step {grade}"))
        rows.append(("reach-grade", str(grade), "least step with an eps-dense reach"))
    elif stabilized:
        rows.append(("trans3-at-eps", "refuted", "reach stabilized below density"))
        rows.append(("verdict", "intransitive-at-eps" if legal else "unknown", ""))
        return rows
    else:
        rows.append(("trans3-at-eps", "unknown-at-horizon", "reach still growing"))

    found = bounded_walk_search(R, x, eps, horizon)
    if found.found:
        rows.append(("trans2-at-eps", "certified", f"witness of {len(found.witness) - 1} steps"))
    else:
        rows.append(("trans2-at-eps", "unknown-at-horizon", f"search {found.status}"))
    loop = nondense_loop_search(R, x, eps, horizon)
    if loop.found:
        rows.append(("trans1-at-eps", "refuted", "a non-dense looping walk exists"))
    else:
        rows.append(("trans1-at-eps", "unknown-at-horizon", f"search {loop.status}"))
    return rows


# ---------------------------------------------------------------------------
# inputs

# an isolated point with a loop and a column onto [0, 1], where no point has
# a successor: every infinite walk from 2 is the constant one
DEAD = """{"space": {"kind": "interval_union", "intervals": [["0","1"]], "isolated": ["2"]},
 "relation": {"kind": "primitives", "primitives": [
   {"type": "point", "at": ["2","2"]},
   {"type": "segment", "from": ["2","0"], "to": ["2","1"]}]}}"""

# 1/2 -> 3/4, and 3/4 has no successor: the images of 1/2 die out at step 2
DIE = """{"space": {"kind": "interval_union", "intervals": [["0","1"]]},
 "relation": {"kind": "primitives", "primitives": [
   {"type": "point", "at": ["1/2","3/4"]},
   {"type": "segment", "from": ["0","0"], "to": ["1/4","1/4"]}]}}"""


def interval_instances():
    return [(name, inst.relation) for name in gallery.names()
            if isinstance((inst := gallery.build(name)).relation, SymbolicRelation)]


def starts(R):
    """The first interval end, 1/2, 1/3 and each isolated point, where they lie in the space."""
    space = R.space
    return sorted({v for v in (space.intervals[0][0], F(1, 2), F(1, 3), *space.isolated)
                   if space.contains_point(v)})


def rows(R, x, eps, horizon):
    return [(c.name, c.status, c.detail) for c in classify_interval_point(R, x, eps, horizon).claims]


def is_walk(R, walk):
    """Each step goes to a successor: a value of a row at the point, or inside a column at it."""
    for p, q in zip(walk, walk[1:]):
        values, columns = point_successors(R, p)
        if q not in values and not any(lo <= q <= hi for lo, hi in columns):
            return False
    return True


# ---------------------------------------------------------------------------
# the formatted tag against the reference


@pytest.mark.parametrize("name,R", interval_instances(), ids=lambda v: v if isinstance(v, str) else "")
def test_gallery_rows_match_the_reference(name, R):
    assert is_total(R)
    for x in starts(R):
        for eps in (F(1, 8), F(1, 32)):
            for horizon in (0, 1, 60, 200):
                assert rows(R, x, eps, horizon) == _symbolic_point_rows(R, x, eps, horizon), (x, eps, horizon)


def test_random_total_relations_match_the_reference():
    seen = set()
    for seed in range(10):
        R = random_integer_slope_relation(1000 + seed)
        assert is_total(R)
        rng = random.Random(seed)
        points = [F(1, 3), F(5, 2), F(5), F(rng.randint(0, 12), 6), F(rng.randint(18, 24), 6)]
        for x in points:
            for eps, horizon in ((F(1, 4), 0), (F(1, 2), 3), (F(1, 2), 20), (F(1, 3), 60), (F(1, 12), 40)):
                got = rows(R, x, eps, horizon)
                assert got == _symbolic_point_rows(R, x, eps, horizon), (seed, x, eps, horizon)
                seen.update((claim, status) for claim, status, _ in got)
    # every status each claim can take on a total relation came up
    for claim in ("trans3-at-eps", "trans2-at-eps", "trans1-at-eps"):
        assert (claim, "unknown-at-horizon") in seen
    assert {("trans3-at-eps", "certified"), ("trans3-at-eps", "refuted"), ("trans2-at-eps", "certified"),
            ("trans1-at-eps", "refuted"), ("verdict", "intransitive-at-eps")} <= seen


def test_images_that_die_out_match_the_reference():
    R = parse_instance(DIE)
    assert not is_total(R)
    expected = [("legal", "refuted", "images die out at step 2"), ("verdict", "illegal", "")]
    assert _symbolic_point_rows(R, F(1, 2), F(1, 64), 200) == expected
    assert rows(R, F(1, 2), F(1, 64), 200) == expected
    tag = classify_interval_point(R, F(1, 2), F(1, 64), 200)
    assert (tag.legal, tag.dies_at, tag.walk, tag.loop) == (Certainty.REFUTED, 2, None, None)
    assert (tag.trans3, tag.trans2, tag.trans1) == (Certainty.REFUTED,) * 3
    # within the horizon, and not before it
    assert classify_interval_point(R, F(1, 2), F(1, 64), 2).dies_at == 2
    assert classify_interval_point(R, F(1, 2), F(1, 64), 1).legal is Certainty.UNKNOWN_AT_HORIZON


def test_non_total_rows_without_a_certificate_match_the_reference():
    # from 1/8 the images stay in [0, 1/4]: legality unknown, reach stabilised
    R = parse_instance(DIE)
    for x, eps in ((F(1, 8), F(1, 2)), (F(1, 8), F(1, 16)), (F(0), F(1, 8))):
        assert rows(R, x, eps, 30) == _symbolic_point_rows(R, x, eps, 30)
    tag = classify_interval_point(R, F(1, 8), F(1, 2), 30)
    assert tag.legal is Certainty.UNKNOWN_AT_HORIZON
    assert (tag.trans3, tag.trans2, tag.trans1) == (Certainty.REFUTED,) * 3
    assert rows(R, F(1, 8), F(1, 2), 30)[-1] == ("verdict", "unknown", "")


# ---------------------------------------------------------------------------
# certificates need certified legality


def test_dead_end_withholds_the_type3_and_type2_certificates():
    R = parse_instance(DEAD)
    tag = classify_interval_point(R, 2, F(1, 2), 200)
    # the loop 2 -> 2 is an infinite walk from 2, so 2 is legal
    assert tag.legal is Certainty.CERTIFIED and not tag.total
    # the reach {2} u [0, 1] is dense at step 1, but 2's only infinite walk stays at 2
    assert tag.reach_grade == 1
    assert tag.trans3 is Certainty.UNKNOWN_AT_HORIZON
    # the walk 2 -> 1/2 is dense, and ends where no walk goes on
    assert tag.walk.witness == (2, F(1, 2))
    assert tag.trans2 is Certainty.UNKNOWN_AT_HORIZON
    # the loop 2 -> 2 is an infinite walk: type 1 stays refuted
    assert tag.loop.witness == (2, 2)
    assert tag.trans1 is Certainty.REFUTED
    # the reference certified both
    old = {claim: status for claim, status, _ in _symbolic_point_rows(R, F(2), F(1, 2), 200)}
    assert old["trans3-at-eps"] == old["trans2-at-eps"] == "certified"


def test_images_stop_once_they_repeat(monkeypatch):
    # G(2) = {2} u [0, 1] = G^2(2): the die-out chase stops there, not at the
    # horizon, so the tag images twice for legality and twice for its reach
    R = parse_instance(DEAD)
    calls = []
    image = symbolic.sym_image

    def counted(*args):
        calls.append(args)
        return image(*args)

    monkeypatch.setattr(symbolic, "sym_image", counted)
    assert rows(R, 2, F(1, 2), 200) == [
        ("legal", "certified", "a loop from the point is an infinite walk"),
        ("trans3-at-eps", "unknown-at-horizon", "reach dense at step 1, legal set unknown"),
        ("trans2-at-eps", "unknown-at-horizon", "witness of 1 steps, legal set unknown"),
        ("trans1-at-eps", "refuted", "a non-dense looping walk exists"),
    ]
    assert len(calls) <= 4


def test_legality_stays_unknown_without_a_loop():
    # x -> x/2 on [0, 1], and the isolated point 2 has no successor: the
    # walk from 1 halves forever, so it never dies and never loops
    R = SymbolicRelation(Space1D(intervals=[(0, 1)], isolated=[2]), [Segment(0, 0, 1, F(1, 2))])
    tag = classify_interval_point(R, 1, F(1, 2), 12)
    assert not tag.total and tag.loop.status == "exhausted"
    assert (tag.legal, tag.trans3, tag.trans2, tag.trans1) == (Certainty.UNKNOWN_AT_HORIZON,) * 4


# ---------------------------------------------------------------------------
# the record


def test_ex1_tag_certifies_type2_with_a_walk_and_refutes_type1():
    R = gallery.build("ex1").relation
    tag = classify_interval_point(R, F(1, 2), F(1, 16), 60)
    assert isinstance(tag, IntervalPointTag)
    assert tag.legal is tag.trans3 is tag.trans2 is Certainty.CERTIFIED
    assert tag.trans1 is Certainty.REFUTED
    assert tag.dies_at is None and tag.reach_grade == 1
    walk = tag.walk.witness
    assert walk[0] == F(1, 2) and is_walk(R, walk)
    assert eps_dense(R.space, Region1D.from_points(walk), F(1, 16))
    loop = tag.loop.witness
    assert loop[0] == F(1, 2) and is_walk(R, loop) and loop[-1] in loop[:-1]
    assert tag.walk == bounded_walk_search(R, F(1, 2), F(1, 16), 60)
    assert tag.loop == nondense_loop_search(R, F(1, 2), F(1, 16), 60)


@pytest.mark.parametrize("doc,x,searched", [
    (None, F(1, 2), True),  # ex1: the tag runs both searches
    (DIE, F(1, 2), False),  # the images die out at step 2
    (DIE, F(1, 8), False),  # the reach stabilises below density
])
def test_one_search_frame_per_tag(monkeypatch, doc, x, searched):
    R = gallery.build("ex1").relation if doc is None else parse_instance(doc)
    built = []
    init = symbolic._SearchFrame.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(symbolic._SearchFrame, "__init__", counted)
    tag = classify_interval_point(R, x, F(1, 16), 30)
    assert (tag.walk is not None, tag.loop is not None) == (searched, searched)
    assert len(built) == 1


def test_reach_grade_is_the_least_dense_step():
    R = gallery.build("ex1").relation
    for x in (F(0), F(1, 3)):
        tag = classify_interval_point(R, x, F(1, 8), 200)
        chain = sym_reach_chain(R, Region1D.point(x), 200)
        dense = [n for n in range(1, len(chain)) if eps_dense(R.space, chain[n], F(1, 8))]
        assert tag.reach_grade == dense[0]


def test_exported_from_the_package():
    assert crdyn.classify_interval_point is classify_interval_point
    assert crdyn.IntervalPointTag is IntervalPointTag


@pytest.mark.parametrize("doc", [None, DIE], ids=["total", "not-total"])
@pytest.mark.parametrize("x,eps,horizon,message", [
    (F(3, 2), F(1, 8), 10, "not a point of the space"),
    (F(1, 2), F(0), 10, "eps must be positive"),
    (F(1, 2), F(1, 8), -1, "horizon must be non-negative"),
])
def test_bad_queries_raise_before_any_chase(monkeypatch, doc, x, eps, horizon, message):
    R = gallery.build("ex1").relation if doc is None else parse_instance(doc)

    def no_chase(*args):
        raise AssertionError("chased before the query was checked")

    monkeypatch.setattr(symbolic, "sym_image", no_chase)
    with pytest.raises(ValueError, match=message):
        classify_interval_point(R, x, eps, horizon)


# ---------------------------------------------------------------------------
# every claim names its route


def golden_queries():
    """(relation, point, eps) of each command in the interval golden, at its default horizon 200."""
    commands = re.findall(r"^\$ crdyn classify (\S+)\.json --point (\S+) --eps (\S+)$",
                          GOLDEN_INTERVAL_CLASSIFY.read_text(), re.MULTILINE)
    assert commands
    return [(gallery.build(name).relation, F(x), F(eps)) for name, x, eps in commands]


@functools.cache
def tagged_claims():
    """The tags of the interval golden, of DIE at 1/2 and 1/8, and of DEAD at 2 (made once)."""
    queries = golden_queries() + [
        (parse_instance(DIE), F(1, 2), F(1, 64)),
        (parse_instance(DIE), F(1, 8), F(1, 2)),
        (parse_instance(DEAD), F(2), F(1, 2)),
    ]
    return [classify_interval_point(R, x, eps, 200) for R, x, eps in queries]


def test_every_claim_names_a_route_and_every_route_occurs():
    seen = set()
    for tag in tagged_claims():
        fields = {"legal": tag.legal, "trans3-at-eps": tag.trans3,
                  "trans2-at-eps": tag.trans2, "trans1-at-eps": tag.trans1}
        assert tag.claims and tag.claims[0].name == "legal"
        for claim in tag.claims:
            assert claim.route in ROUTES, claim
            if claim.name in fields:
                assert claim.status == fields[claim.name].value, claim
            seen.add(claim.route)
    assert seen == ROUTES


def test_each_route_writes_its_claims():
    die, dead = parse_instance(DIE), parse_instance(DEAD)

    def routes(R, x, eps):
        return [(c.name, c.route) for c in classify_interval_point(R, x, eps, 200).claims]

    assert routes(die, F(1, 2), F(1, 64)) == [("legal", "die-out"), ("verdict", "die-out")]
    assert routes(die, F(1, 8), F(1, 2)) == [
        ("legal", "die-out"), ("trans3-at-eps", "stabilised-chase"), ("verdict", "stabilised-chase")]
    assert routes(dead, F(2), F(1, 2)) == [("legal", "loop-search"), ("trans3-at-eps", "reach-chain"),
                                           ("trans2-at-eps", "walk-search"), ("trans1-at-eps", "loop-search")]
    assert routes(gallery.build("ex1").relation, F(1, 2), F(1, 8)) == [
        ("legal", "total"), ("trans3-at-eps", "reach-chain"), ("reach-grade", "reach-chain"),
        ("trans2-at-eps", "walk-search"), ("trans1-at-eps", "loop-search")]


# ---------------------------------------------------------------------------
# structure: the CLI formats, the library decides

SEARCHES_AND_CHASES = {
    "bounded_walk_search", "nondense_loop_search", "sym_branch_cover", "is_total",
    "sym_image", "sym_preimage", "sym_reach", "sym_reach_chain", "forward_union", "eps_dense",
}


def test_cli_imports_no_search_or_chase_of_the_tagger():
    for name in ("bounded_walk_search", "nondense_loop_search", "is_total", "sym_image", "eps_dense"):
        assert not hasattr(cli, name), name


def test_classify_command_calls_no_search_or_chase():
    assert not SEARCHES_AND_CHASES & set(cli._cmd_classify.__code__.co_names)
    assert "classify_interval_point" in cli._cmd_classify.__code__.co_names


CLAIM_PHRASES = ("every point has a successor", "images die out", "legal set unknown",
                 "reach stabilized below density", "a non-dense looping walk exists")


def test_cli_holds_no_wording_of_an_interval_claim():
    source = Path(cli.__file__).read_text()
    for phrase in CLAIM_PHRASES:
        assert phrase not in source, phrase
    assert all(any(phrase in c.detail for tag in tagged_claims() for c in tag.claims)
               for phrase in CLAIM_PHRASES)
