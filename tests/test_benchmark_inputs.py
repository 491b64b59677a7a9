"""The benchmark's frozen input documents are still the gallery's instances.

`perfbench/export_inputs.py` wrote `perfbench/data/` from the gallery once;
the benchmark reads those files and never the gallery.  These tests read
them back and compare them with a fresh export held in memory: each
instance's document and params, and each grid discretization.
"""

import json
import sys
from fractions import Fraction as F
from pathlib import Path

import pytest

from crdyn import gallery
from crdyn.io import serialize_instance
from crdyn.symbolic import discretize

sys.path.append(str(Path(__file__).resolve().parent.parent / "perfbench"))
import export_inputs  # noqa: E402

MANIFEST = json.loads((export_inputs.DATA / "manifest.json").read_text(encoding="utf-8"))
INSTANCES = sorted(name for name, entry in MANIFEST.items() if "source" not in entry["params"])
BOXES = sorted(name for name, entry in MANIFEST.items() if "source" in entry["params"])


def frozen(name: str) -> str:
    return (export_inputs.DATA / MANIFEST[name]["file"]).read_text(encoding="utf-8")


def test_the_manifest_lists_instances_and_boxes():
    assert INSTANCES == sorted(export_inputs.INTERVAL + export_inputs.FINITE)
    assert len(BOXES) == sum(len(qs) for qs in export_inputs.BOXES.values())


@pytest.mark.parametrize("name", INSTANCES)
def test_an_instance_is_its_gallery_build(name):
    inst = gallery.build(name)
    assert frozen(name) == inst.document()
    params = {k: export_inputs._param(v) for k, v in sorted(inst.params.items())}
    assert params == MANIFEST[name]["params"]


@pytest.mark.parametrize("name", BOXES)
def test_a_box_document_is_the_discretized_instance(name):
    params = MANIFEST[name]["params"]
    delta = F(params["delta"])
    assert delta.numerator == 1 and name == f"{params['source']}-boxes{delta.denominator}"
    relation = gallery.build(params["source"]).relation
    assert frozen(name) == serialize_instance(*discretize(relation, delta))
