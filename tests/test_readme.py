"""The README's library example runs as written, and its instance documents parse."""

import re
from fractions import Fraction as F
from pathlib import Path

from crdyn.finite import FiniteRelation
from crdyn.io import parse_document
from crdyn.symbolic import Segment, SinglePoint, SymbolicRelation

README = Path(__file__).resolve().parent.parent / "README.md"


def blocks(language):
    return re.findall(rf"^```{language}\n(.*?)^```$", README.read_text(), re.MULTILINE | re.DOTALL)


def test_library_example_runs():
    code = blocks("python")
    assert len(code) == 1
    namespace = {}
    exec(compile(code[0], str(README), "exec"), namespace)
    tag = namespace["tag"]
    assert [c.route for c in tag.claims] == ["total", "reach-chain", "reach-chain", "walk-search", "loop-search"]


def test_instance_documents_parse():
    finite_doc, interval_doc = blocks("json")
    G, density = parse_document(finite_doc)
    assert isinstance(G, FiniteRelation) and density is None
    assert (G.space.labels, sorted(G.edges)) == (("1", "2"), [(0, 0)])
    R, density = parse_document(interval_doc)
    assert isinstance(R, SymbolicRelation) and density is None
    assert (R.space.intervals, R.space.isolated) == (((0, 1),), (2,))
    assert R.primitives == (Segment(0, 0, F(1, 2), 1), SinglePoint(2, F(1, 3)))
