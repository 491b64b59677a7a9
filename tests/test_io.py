import json
from fractions import Fraction as F

import pytest

from crdyn.finite import FiniteRelation, InvalidInstanceError
from crdyn.io import parse_document, parse_instance, serialize_instance
from crdyn.symbolic import Segment, SinglePoint, SymbolicRelation
from crdyn.symbolic import discretize
from crdyn.region import Space1D


FINITE_DOC = """
{"space": {"kind": "finite", "points": ["1", "2"]},
 "relation": {"kind": "pairs", "pairs": [["1", "1"]]}}
"""

EX1_DOC = """
{"space": {"kind": "interval_union", "intervals": [["0", "1"]], "isolated": []},
 "relation": {"kind": "primitives", "primitives": [
    {"type": "segment", "from": ["0", "1/2"], "to": ["1", "1/2"]},
    {"type": "segment", "from": ["1/2", "0"], "to": ["1/2", "1"]}]}}
"""


class TestParsing:
    def test_finite_doc(self):
        rel = parse_instance(FINITE_DOC)
        assert isinstance(rel, FiniteRelation)
        assert rel.space.labels == ("1", "2")
        assert rel.edges == frozenset({(0, 0)})

    def test_symbolic_doc(self):
        rel = parse_instance(EX1_DOC)
        assert isinstance(rel, SymbolicRelation)
        assert len(rel.primitives) == 2
        assert rel.space.intervals == ((F(0), F(1)),)

    def test_empty_pairs_rejected(self):
        doc = '{"space": {"kind": "finite", "points": ["a"]}, "relation": {"kind": "pairs", "pairs": []}}'
        with pytest.raises(InvalidInstanceError):
            parse_instance(doc)

    def test_unknown_fields_rejected(self):
        doc = json.loads(FINITE_DOC)
        doc["extra"] = 1
        with pytest.raises(InvalidInstanceError, match="unknown fields"):
            parse_instance(json.dumps(doc))
        doc2 = json.loads(FINITE_DOC)
        doc2["space"]["color"] = "blue"
        with pytest.raises(InvalidInstanceError, match="unknown fields"):
            parse_instance(json.dumps(doc2))

    def test_floats_rejected(self):
        doc = json.loads(EX1_DOC)
        doc["relation"]["primitives"][0]["from"] = [0.5, 1]
        with pytest.raises(InvalidInstanceError):
            parse_instance(json.dumps(doc))

    @pytest.mark.parametrize("text", ["0.5", "1e-3", "1_000", " 1/2 "])
    def test_non_rational_strings_rejected(self, text):
        doc = json.loads(EX1_DOC)
        doc["relation"]["primitives"][0]["from"] = [text, "1/2"]
        with pytest.raises(InvalidInstanceError, match="malformed rational"):
            parse_instance(json.dumps(doc))

    def test_unreduced_rationals_are_read_and_written_reduced(self):
        doc = json.loads(EX1_DOC)
        doc["relation"]["primitives"][0]["from"] = ["0", "2/4"]
        text = serialize_instance(parse_instance(json.dumps(doc)))
        assert '"2/4"' not in text and '"1/2"' in text

    def test_unknown_point_in_pair(self):
        doc = json.loads(FINITE_DOC)
        doc["relation"]["pairs"] = [["1", "zzz"]]
        with pytest.raises(InvalidInstanceError, match="unknown point"):
            parse_instance(json.dumps(doc))

    def test_malformed_json_is_a_parse_error(self):
        with pytest.raises(InvalidInstanceError, match="not valid JSON"):
            parse_instance("{nope")

    def test_degenerate_segment_becomes_point(self):
        doc = json.loads(EX1_DOC)
        doc["relation"]["primitives"].append(
            {"type": "segment", "from": ["1/4", "1/4"], "to": ["1/4", "1/4"]}
        )
        rel = parse_instance(json.dumps(doc))
        assert any(isinstance(p, SinglePoint) for p in rel.primitives)


class TestRoundTrip:
    def test_finite_roundtrip_is_identity(self):
        rel = parse_instance(FINITE_DOC)
        text = serialize_instance(rel)
        again = parse_instance(text)
        assert again == rel
        assert serialize_instance(again) == text

    def test_symbolic_roundtrip_preserves_primitives(self):
        rel = parse_instance(EX1_DOC)
        text = serialize_instance(rel)
        again = parse_instance(text)
        assert serialize_instance(again) == text
        assert again.primitives == rel.primitives

    def test_canonical_form_is_sorted_and_reduced(self):
        sp = Space1D(intervals=[(0, 1)])
        rel = SymbolicRelation(sp, [Segment(F(2, 4), F(0), F(2, 4), F(1))])
        text = serialize_instance(rel)
        assert '"1/2"' in text
        assert "2/4" not in text
        data = json.loads(text)
        assert list(data) == sorted(data)

    def test_density_block_roundtrip(self):
        rel = parse_instance(EX1_DOC)
        finite, pred = discretize(rel, F(1, 4))
        text = serialize_instance(finite, pred)
        back, density = parse_document(text)
        assert back == finite
        assert density is not None
        assert density.eps == pred.eps
        assert density.extents == pred.extents
        assert serialize_instance(back, density) == text

    def test_parse_instance_ignores_density(self):
        rel = parse_instance(EX1_DOC)
        finite, pred = discretize(rel, F(1, 4))
        text = serialize_instance(finite, pred)
        assert parse_instance(text) == finite
