"""Write the frozen input documents the benchmark reads.

Run once from the repository root:

    PYTHONPATH=src python3 perfbench/export_inputs.py

It exports the gallery's interval relations (surrogate points included, as
they appear in the primitives), the gallery's finite ex32 system, and grid
discretizations of several interval relations with their eps-net `density`
blocks.  `data/manifest.json` lists every document with the parameters the
workloads draw from (the gallery's eps and the surrogate points).  The
benchmark's timed queries never call into `crdyn.builders` or `crdyn.gallery`
(the command line imports them, but the commands it runs do not use them), so
its inputs stay fixed when those modules change.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from pathlib import Path

from crdyn import gallery
from crdyn.io import serialize_instance
from crdyn.region import format_fraction
from crdyn.symbolic import discretize

DATA = Path(__file__).resolve().parent / "data"

INTERVAL = ("exhura", "fse2", "fse3", "tistile", "ex1", "ex4", "exxi", "ex31")
FINITE = ("ex32",)
BOXES = {"exhura": (16, 32), "exxi": (16, 32), "ex1": (16, 32), "fse3": (16, 32),
         "tistile": (16, 32), "ex2": (16, 32)}


def _param(value):
    if isinstance(value, Fraction):
        return format_fraction(value)
    if isinstance(value, tuple):
        return [_param(v) for v in value]
    return value


def main() -> int:
    DATA.mkdir(exist_ok=True)
    manifest: dict[str, dict] = {}
    for name in INTERVAL + FINITE:
        inst = gallery.build(name)
        path = DATA / f"{name}.json"
        path.write_text(inst.document(), encoding="utf-8")
        manifest[name] = {
            "file": path.name,
            "params": {k: _param(v) for k, v in sorted(inst.params.items())},
        }
    for name, denominators in BOXES.items():
        relation = gallery.build(name).relation
        for q in denominators:
            finite, net = discretize(relation, Fraction(1, q))
            box_name = f"{name}-boxes{q}"
            path = DATA / f"{box_name}.json"
            path.write_text(serialize_instance(finite, net), encoding="utf-8")
            manifest[box_name] = {
                "file": path.name,
                "params": {"source": name, "delta": f"1/{q}"},
            }
    text = json.dumps(manifest, sort_keys=True, indent=2) + "\n"
    (DATA / "manifest.json").write_text(text, encoding="utf-8")
    print(f"wrote {len(manifest)} documents to {DATA}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
