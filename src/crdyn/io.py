"""Instance documents: exact JSON round-tripping of relations.

Schema (UTF-8 JSON, unknown fields rejected):

    {"space": {"kind": "finite", "points": ["a", "b", ...]},
     "relation": {"kind": "pairs", "pairs": [["a", "b"], ...]}}

    {"space": {"kind": "interval_union", "intervals": [[lo, hi], ...],
               "isolated": [p, ...]},
     "relation": {"kind": "primitives", "primitives": [
         {"type": "segment", "from": [x, y], "to": [x, y]} |
         {"type": "point", "at": [x, y]}, ...]}}

Rationals are JSON integers, or strings that are an integer or "p/q" with
an optional leading minus and decimal digits only; floats, decimals,
exponents, underscores and whitespace are rejected.  Input need not be
reduced; output always is.  An optional top-level "density" block carries
the eps-net metadata written by the discretize command.  Serialization is
canonical: sorted keys, reduced rationals, integers as JSON integers.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .density import EpsNet
from .finite import FiniteRelation, FiniteSpace, InvalidInstanceError
from .region import Space1D, format_fraction, parse_fraction
from .symbolic import Segment, SinglePoint, SymbolicRelation


def _reject_unknown(obj: dict, allowed: set[str], where: str):
    extra = set(obj) - allowed
    if extra:
        raise InvalidInstanceError(f"{where}: unknown fields {sorted(extra)}")


def _rational(value, where: str) -> Fraction:
    try:
        return parse_fraction(value)
    except ValueError as exc:
        raise InvalidInstanceError(f"{where}: {exc}") from exc


def _rational_json(x: Fraction):
    x = Fraction(x)
    if x.denominator == 1:
        return x.numerator
    return format_fraction(x)


def _pair(value, where: str) -> tuple[Fraction, Fraction]:
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise InvalidInstanceError(f"{where}: expected a [x, y] pair")
    return _rational(value[0], where), _rational(value[1], where)


def parse_document(text: str):
    """Parse a document into (FiniteRelation | SymbolicRelation, EpsNet | None)."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InvalidInstanceError(f"not valid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise InvalidInstanceError("top level must be an object")
    _reject_unknown(doc, {"space", "relation", "density"}, "document")
    if "space" not in doc or "relation" not in doc:
        raise InvalidInstanceError("document needs 'space' and 'relation'")
    space_doc = doc["space"]
    rel_doc = doc["relation"]
    if not isinstance(space_doc, dict) or not isinstance(rel_doc, dict):
        raise InvalidInstanceError("'space' and 'relation' must be objects")
    kind = space_doc.get("kind")
    if kind == "finite":
        relation = _parse_finite(space_doc, rel_doc)
    elif kind == "interval_union":
        relation = _parse_symbolic(space_doc, rel_doc)
    else:
        raise InvalidInstanceError(f"space.kind: expected 'finite' or 'interval_union', got {kind!r}")
    density = None
    if "density" in doc:
        density = _parse_density(doc["density"], relation)
    return relation, density


def parse_instance(text: str):
    """Parse a document, returning just the relation."""
    relation, _ = parse_document(text)
    return relation


def _parse_finite(space_doc: dict, rel_doc: dict) -> FiniteRelation:
    _reject_unknown(space_doc, {"kind", "points"}, "space")
    points = space_doc.get("points")
    if not isinstance(points, list) or not all(isinstance(p, str) for p in points):
        raise InvalidInstanceError("space.points: expected a list of names")
    space = FiniteSpace(points)
    _reject_unknown(rel_doc, {"kind", "pairs"}, "relation")
    if rel_doc.get("kind") != "pairs":
        raise InvalidInstanceError("relation.kind: expected 'pairs' for a finite space")
    pairs = rel_doc.get("pairs")
    if not isinstance(pairs, list):
        raise InvalidInstanceError("relation.pairs: expected a list")
    edges = []
    for i, pair in enumerate(pairs):
        if not isinstance(pair, list) or len(pair) != 2 or not all(isinstance(p, str) for p in pair):
            raise InvalidInstanceError(f"relation.pairs[{i}]: expected [source, target] names")
        a, b = pair
        if a not in space.index or b not in space.index:
            raise InvalidInstanceError(f"relation.pairs[{i}]: unknown point in {pair}")
        edges.append((space.index[a], space.index[b]))
    return FiniteRelation(space, edges)


def _parse_space(space_doc: dict, where: str) -> Space1D:
    intervals = space_doc.get("intervals", [])
    isolated = space_doc.get("isolated", [])
    if not isinstance(intervals, list) or not isinstance(isolated, list):
        raise InvalidInstanceError(f"{where}.intervals/isolated: expected lists")
    iv = [_pair(p, f"{where}.intervals[{i}]") for i, p in enumerate(intervals)]
    iso = [_rational(p, f"{where}.isolated[{i}]") for i, p in enumerate(isolated)]
    try:
        return Space1D(intervals=iv, isolated=iso)
    except ValueError as exc:
        raise InvalidInstanceError(f"{where}: {exc}") from exc


def _parse_symbolic(space_doc: dict, rel_doc: dict) -> SymbolicRelation:
    _reject_unknown(space_doc, {"kind", "intervals", "isolated"}, "space")
    space = _parse_space(space_doc, "space")
    _reject_unknown(rel_doc, {"kind", "primitives"}, "relation")
    if rel_doc.get("kind") != "primitives":
        raise InvalidInstanceError("relation.kind: expected 'primitives' for an interval space")
    prims_doc = rel_doc.get("primitives")
    if not isinstance(prims_doc, list):
        raise InvalidInstanceError("relation.primitives: expected a list")
    prims = []
    for i, p in enumerate(prims_doc):
        where = f"relation.primitives[{i}]"
        if not isinstance(p, dict):
            raise InvalidInstanceError(f"{where}: expected an object")
        ptype = p.get("type")
        if ptype == "segment":
            _reject_unknown(p, {"type", "from", "to"}, where)
            x1, y1 = _pair(p.get("from"), f"{where}.from")
            x2, y2 = _pair(p.get("to"), f"{where}.to")
            if (x1, y1) == (x2, y2):
                prims.append(SinglePoint(x1, y1))
            else:
                prims.append(Segment(x1, y1, x2, y2))
        elif ptype == "point":
            _reject_unknown(p, {"type", "at"}, where)
            x, y = _pair(p.get("at"), f"{where}.at")
            prims.append(SinglePoint(x, y))
        else:
            raise InvalidInstanceError(f"{where}.type: expected 'segment' or 'point', got {ptype!r}")
    try:
        return SymbolicRelation(space, prims)
    except ValueError as exc:
        raise InvalidInstanceError(f"relation: {exc}") from exc


def _parse_density(doc, relation) -> EpsNet:
    if not isinstance(relation, FiniteRelation):
        raise InvalidInstanceError("density: only a finite document carries a density block")
    if not isinstance(doc, dict):
        raise InvalidInstanceError("density: expected an object")
    _reject_unknown(doc, {"kind", "eps", "space", "extents"}, "density")
    if doc.get("kind") != "eps_net":
        raise InvalidInstanceError("density.kind: expected 'eps_net'")
    eps = _rational(doc.get("eps"), "density.eps")
    space_doc = doc.get("space")
    if not isinstance(space_doc, dict):
        raise InvalidInstanceError("density.space: expected an object")
    _reject_unknown(space_doc, {"intervals", "isolated"}, "density.space")
    space = _parse_space(space_doc, "density.space")
    extents_doc = doc.get("extents")
    if not isinstance(extents_doc, list):
        raise InvalidInstanceError("density.extents: expected a list")
    if len(extents_doc) != relation.space.size:
        raise InvalidInstanceError("density.extents: must list one extent per point")
    extents = [_pair(p, f"density.extents[{i}]") for i, p in enumerate(extents_doc)]
    try:
        return EpsNet(space, extents, eps)
    except ValueError as exc:
        raise InvalidInstanceError(f"density: {exc}") from exc


def _space_json(space: Space1D) -> dict:
    """The "intervals" and "isolated" lists of an interval space."""
    return {
        "intervals": [[_rational_json(lo), _rational_json(hi)] for lo, hi in space.intervals],
        "isolated": [_rational_json(p) for p in space.isolated],
    }


def instance_to_dict(relation, density: EpsNet | None = None) -> dict:
    if isinstance(relation, FiniteRelation):
        doc = {
            "space": {"kind": "finite", "points": list(relation.space.labels)},
            "relation": {
                "kind": "pairs",
                "pairs": [
                    [relation.space.labels[a], relation.space.labels[b]]
                    for a, b in sorted(relation.edges)
                ],
            },
        }
    elif isinstance(relation, SymbolicRelation):
        prims = []
        for p in relation.primitives:
            if isinstance(p, Segment):
                prims.append(
                    {
                        "type": "segment",
                        "from": [_rational_json(p.x1), _rational_json(p.y1)],
                        "to": [_rational_json(p.x2), _rational_json(p.y2)],
                    }
                )
            else:
                prims.append({"type": "point", "at": [_rational_json(p.x), _rational_json(p.y)]})
        doc = {
            "space": {"kind": "interval_union", **_space_json(relation.space)},
            "relation": {"kind": "primitives", "primitives": prims},
        }
    else:
        raise TypeError(f"not a relation: {relation!r}")
    if density is not None:
        doc["density"] = {
            "kind": "eps_net",
            "eps": _rational_json(density.eps),
            "space": _space_json(density.space),
            "extents": [[_rational_json(lo), _rational_json(hi)] for lo, hi in density.extents],
        }
    return doc


def serialize_instance(relation, density: EpsNet | None = None) -> str:
    """Canonical document text: sorted keys, reduced rationals, newline-terminated."""
    return json.dumps(instance_to_dict(relation, density), sort_keys=True, indent=2) + "\n"
