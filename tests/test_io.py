import json
import random
import time
from fractions import Fraction as F
from pathlib import Path

import pytest

from crdyn import gallery
from crdyn.cli import main
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


def _box_document() -> dict:
    finite, pred = discretize(parse_instance(EX1_DOC), F(1, 4))
    return json.loads(serialize_instance(finite, pred))


class TestDensityBlock:
    @pytest.mark.parametrize("space", [
        {"intervals": None},
        {"isolated": "2"},
        {"intervals": []},
        {"intervals": [[1, 0]]},
        {"intervals": [[0, 1], ["1/2", 2]]},
        {"intervals": [["0.5", 1]]},
    ])
    def test_malformed_space_is_a_parse_error(self, space):
        doc = _box_document()
        doc["density"]["space"] = space
        with pytest.raises(InvalidInstanceError, match="density.space"):
            parse_document(json.dumps(doc))

    @pytest.mark.parametrize("field,value", [
        ("eps", 0),
        ("eps", "-1/4"),
        ("extents", [[0, "1/4"], ["1/4", "1/2"], ["1/2", "3/4"], ["3/4", 2]]),
        ("extents", [[0, "1/4"], ["1/2", "1/4"], ["1/2", "3/4"], ["3/4", 1]]),
        ("space", {"intervals": [[0, "1/2"], ["3/4", 1]]}),
    ])
    def test_invalid_eps_net_is_a_parse_error(self, field, value):
        doc = _box_document()
        doc["density"][field] = value
        with pytest.raises(InvalidInstanceError, match="density"):
            parse_document(json.dumps(doc))

    def test_classify_reports_a_bad_density_block_in_one_line(self, tmp_path, capsys):
        doc = _box_document()
        doc["density"]["space"] = {"intervals": None}
        path = tmp_path / "bad-density.json"
        path.write_text(json.dumps(doc))
        assert main(["classify", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("parse error: density.space") and len(err.splitlines()) == 1

    def test_an_interval_document_carries_no_density_block(self, tmp_path, capsys):
        doc = json.loads(EX1_DOC)
        doc["density"] = _box_document()["density"]
        message = "density: only a finite document carries a density block"
        with pytest.raises(InvalidInstanceError, match=f"^{message}$"):
            parse_document(json.dumps(doc))
        path = tmp_path / "interval-density.json"
        path.write_text(json.dumps(doc))
        assert main(["classify", str(path)]) == 2
        assert capsys.readouterr() == ("", f"parse error: {message}\n")


# ---------------------------------------------------------------------------
# seeded mutation fuzzing

_DATA = Path(__file__).resolve().parent.parent / "perfbench" / "data"
_ODD_VALUES = [
    None, True, False, 0, -1, 1, 2**70, 0.5, "", "x", "1/2", "-3/4", "1/0", "0.5",
    [], {}, [0], [[0, 1]], [1, 0], ["a", "b"], {"kind": "finite"}, {"intervals": None},
]


def _seed_documents() -> list[str]:
    texts = [p.read_text(encoding="utf-8") for p in sorted(_DATA.glob("*.json"))
             if p.name != "manifest.json"]
    return texts + [gallery.build(name).document() for name in gallery.names()]


def _nodes(obj, path=()):
    yield path, obj
    children = obj.items() if isinstance(obj, dict) else enumerate(obj) if isinstance(obj, list) else ()
    for key, value in children:
        yield from _nodes(value, path + (key,))


def _mutate(doc, rng: random.Random):
    """One structural edit: replace a value, drop a key, or swap, cut or repeat list items."""
    path, node = rng.choice(list(_nodes(doc)))
    op = rng.randrange(5)
    if op == 0 or not path:
        value = json.loads(json.dumps(rng.choice(_ODD_VALUES)))
        if not path:
            return value
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = value
    elif op == 1 and isinstance(node, dict) and node:
        del node[rng.choice(list(node))]
    elif op == 2 and isinstance(node, list) and len(node) >= 2:
        i, j = rng.sample(range(len(node)), 2)
        node[i], node[j] = node[j], node[i]
    elif op == 3 and isinstance(node, list) and node:
        del node[rng.randrange(len(node)):]
    elif op == 4 and isinstance(node, list) and node:
        node.append(json.loads(json.dumps(rng.choice(node))))
    return doc


def test_mutated_documents_parse_or_raise_invalid_instance():
    rng = random.Random(20261018)
    seeds = _seed_documents()
    start = time.perf_counter()
    for i in range(2500):
        text = rng.choice(seeds)
        if i % 10 == 0:
            cut = rng.randrange(len(text))
            mutated = text[:cut] + rng.choice(["", "}", "]", ",", '"', "0"]) + text[cut + 1:]
        else:
            doc = json.loads(text)
            for _ in range(rng.randint(1, 3)):
                doc = _mutate(doc, rng)
            mutated = json.dumps(doc)
        try:
            parse_document(mutated)
        except InvalidInstanceError:
            pass
    assert time.perf_counter() - start < 10
