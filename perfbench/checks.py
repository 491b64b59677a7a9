"""Output checks: golden summaries for the committed seed, certificates for any seed.

Every check runs outside the timed intervals.  Node counts are counters, not
part of any summary, so a change that alters the search order only shows in
the counters.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from crdyn import classify, finite, symbolic
from crdyn.classify import Certainty, Verdict
from crdyn.region import Region1D, eps_dense

from workloads import BudgetStop, Doc, Query, finite_input

GOLDEN = Path(__file__).resolve().parent / "golden"
GOLDEN_SEED = 1
ORACLE_MAX_POINTS = 16


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:20]


def _walk_text(walk) -> str:
    return " ".join(str(v) for v in walk)


def _tag_text(tag) -> str:
    grade = "-" if tag.reach_grade is None else tag.reach_grade
    return f"{tag.verdict.value}/{grade}/{tag.certainty.value}"


def summarize(query: Query, result) -> dict:
    """Canonical, compact description of a result, compared with the golden file."""
    if isinstance(result, BudgetStop):
        return {"budget_error": result.message}
    kind = query.kind
    if kind in ("walk", "loop"):
        witness = None if result.witness is None else _digest(_walk_text(result.witness))
        return {"status": result.status, "witness": witness}
    if kind == "forward_union":
        return {"region": _digest(repr(result)), "pieces": len(result.pieces)}
    if kind == "reach_chain":
        return {"chain": _digest("\n".join(repr(r) for r in result)), "length": len(result)}
    if kind == "grid_check":
        return {"transitive": result.transitive, "max_steps": result.max_steps_needed,
                "misses": _digest(repr(result.misses))}
    if kind == "discretize":
        G, net = result
        return {"boxes": G.space.size, "edges": _digest(repr(sorted(G.edges))),
                "extents": _digest(repr(net.extents))}
    if kind == "cli":
        code, text = result
        return {"exit": code, "stdout": _digest(text)}
    if kind == "classify_all":
        return {"tags": _digest(",".join(_tag_text(t) for t in result))}
    if kind == "branch_summary_all":
        return {"summaries": _digest(repr(result))}
    if kind == "characterization":
        return {"report": repr(result)}
    if kind == "legal":
        return {"legal": _digest(repr(sorted(result)))}
    if kind == "tree":
        return {"levels": _digest(repr([sorted(level) for level in result]))}
    raise ValueError(f"unknown query kind {kind!r}")


# ---------------------------------------------------------------------------
# certificates


def _walk_errors(R, walk, start, horizon) -> list[str]:
    errors = []
    if walk[0] != start:
        errors.append("witness does not start at the query point")
    if len(walk) - 1 > horizon:
        errors.append("witness is longer than the horizon")
    for a, b in zip(walk, walk[1:]):
        singles, ranges = symbolic.point_successors(R, a)
        if b not in singles and not any(lo <= b <= hi for lo, hi in ranges):
            errors.append(f"witness step {a} -> {b} is not in the relation")
            break
    return errors


def _oracle_errors(G, tags, dense) -> list[str]:
    for x, tag in enumerate(tags):
        if tag.certainty is Certainty.CERTIFIED and classify.oracle_classify(G, x, dense) != tag:
            return [f"tag of point {x} differs from oracle_classify"]
    return []


def _structure_errors(G, tags) -> list[str]:
    """Verdicts known in closed form for paths and cycles under the exhaustive predicate."""
    n = G.space.size
    cycle = frozenset((i, (i + 1) % n) for i in range(n))
    path = frozenset([(i, i + 1) for i in range(n - 1)] + [(n - 1, n - 1)])
    verdicts = [t.verdict for t in tags]
    if G.edges == cycle and verdicts != [Verdict.TRANS1] * n:
        return ["a cycle point is not type-1"]
    if G.edges == path and verdicts != [Verdict.TRANS1] + [Verdict.INTRANSITIVE] * (n - 1):
        return ["path verdicts differ from head type-1, rest intransitive"]
    return []


def evidence(query: Query, result):
    """The part of a result that certify() needs, so whole results need not be kept."""
    if query.kind == "reach_chain":
        return tuple(result[-2:])
    if query.kind == "cli":
        code, text = result
        return code, text.startswith("# crdyn ")
    if query.kind in ("walk", "loop", "classify_all", "legal") or isinstance(result, BudgetStop):
        return result
    return None


def certify(query: Query, kept, docs: dict[str, Doc]) -> list[str]:
    """Errors found by checks that need no golden file; empty when all pass.

    `kept` is what evidence() returned for the query's result.
    """
    if isinstance(kept, BudgetStop):
        return []
    kind = query.kind
    if kind in ("walk", "loop"):
        if kept.witness is None:
            return [] if kept.status in ("exhausted", "budget") else ["no witness"]
        R = docs[query.doc].relation
        start, eps, horizon = query.args
        errors = _walk_errors(R, kept.witness, start, horizon)
        dense = eps_dense(R.space, Region1D.from_points(kept.witness), eps)
        if kind == "walk" and not dense:
            errors.append("walk witness orbit is not eps-dense")
        if kind == "loop":
            if dense:
                errors.append("loop witness orbit is eps-dense")
            if kept.witness[-1] not in kept.witness[:-1]:
                errors.append("loop witness does not revisit a point")
        return errors
    if kind == "reach_chain":
        R = docs[query.doc].relation
        if len(kept) == 2 and kept[0] == kept[1]:
            acc = kept[1]
            if acc.union(symbolic.sym_image(R, acc)) != acc:
                return ["stabilized reach is not closed under one more image"]
        return []
    if kind == "cli":
        code, has_header = kept
        if code != 0 or not has_header:
            return [f"command exited {code}"]
        return []
    if kind == "classify_all":
        G, dense = finite_input(query, docs)
        errors = []
        if len(kept) != G.space.size:
            return ["one tag per point expected"]
        legal = finite.legal_set(G)
        if any((t.verdict is not Verdict.ILLEGAL) != (x in legal) for x, t in enumerate(kept)):
            errors.append("illegal tags disagree with finite.legal_set")
        if dense is None and G.space.size <= ORACLE_MAX_POINTS:
            errors += _oracle_errors(G, kept, dense)
        if dense is None:
            errors += _structure_errors(G, kept)
        return errors
    if kind == "legal":
        G = query.args[0]
        if kept != classify.legal_by_cycle_reach(G):
            return ["legal_set differs from legal_by_cycle_reach"]
    return []


# ---------------------------------------------------------------------------
# golden file


def golden_path(workload: str) -> Path:
    return GOLDEN / f"{workload}.json"


def load_golden(workload: str) -> dict[str, dict]:
    data = json.loads(golden_path(workload).read_text(encoding="utf-8"))
    if data["seed"] != GOLDEN_SEED:
        raise ValueError("golden file was written for another seed")
    return data["queries"]


def write_golden(workload: str, summaries: dict[str, dict]) -> None:
    GOLDEN.mkdir(exist_ok=True)
    text = json.dumps({"seed": GOLDEN_SEED, "queries": summaries}, sort_keys=True, indent=1)
    golden_path(workload).write_text(text + "\n", encoding="utf-8")
