"""The signatures of the functions the benchmark's traced run wraps.

`perfbench/trace.py` wraps each name in its TARGETS list in place, and its
per-layer metrics read the wrapped calls' arguments by position, so every
traced name keeps its signature.  TARGETS is read from the file by path,
and each name is resolved and compared with the signature pinned here.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

TRACE = Path(__file__).resolve().parent.parent / "perfbench" / "trace.py"

PINNED = {
    ("crdyn.region", "Region1D.from_points"):
        '(points: \'Iterable\') -> "\'Region1D\'"',
    ("crdyn.region", "Region1D.union"):
        '(self, other: "\'Region1D\'") -> "\'Region1D\'"',
    ("crdyn.region", "Region1D.intersect"):
        '(self, other: "\'Region1D\'") -> "\'Region1D\'"',
    ("crdyn.region", "Region1D.contains_region"):
        '(self, other: "\'Region1D\'") -> \'bool\'',
    ("crdyn.region", "Region1D.distance_to"):
        "(self, x) -> 'Fraction | None'",
    ("crdyn.region", "eps_dense"):
        "(space: 'Space1D', covered: 'Region1D', eps) -> 'bool'",
    ("crdyn.symbolic", "sym_image"):
        "(R: 'SymbolicRelation', A: 'Region1D') -> 'Region1D'",
    ("crdyn.symbolic", "region_difference_closure"):
        "(a: 'Region1D', b: 'Region1D') -> 'Region1D'",
    ("crdyn.symbolic", "forward_union"):
        "(R: 'SymbolicRelation', U: 'Region1D', horizon: 'int', include_start: 'bool') -> 'Region1D'",
    ("crdyn.symbolic", "sym_reach_chain"):
        "(R: 'SymbolicRelation', start: 'Region1D', max_iter: 'int') -> 'list[Region1D]'",
    ("crdyn.symbolic", "grid_transitivity_check"):
        "(R: 'SymbolicRelation', delta, horizon: 'int', positive_only: 'bool' = False) -> 'GridTransitivityReport'",
    ("crdyn.symbolic", "discretize"):
        "(R: 'SymbolicRelation', delta, box_cap: 'int' = 4096) -> 'tuple[FiniteRelation, EpsNet]'",
    ("crdyn.symbolic", "bounded_walk_search"):
        "(R: 'SymbolicRelation', x, eps, horizon: 'int', choice_step=None, budget: 'int' = 100000) -> 'WalkSearchResult'",
    ("crdyn.symbolic", "nondense_loop_search"):
        "(R: 'SymbolicRelation', x, eps, horizon: 'int', choice_step=None, budget: 'int' = 100000) -> 'WalkSearchResult'",
    ("crdyn.symbolic", "successor_choices"):
        "(R: 'SymbolicRelation', p: 'Fraction', choice_step: 'Fraction') -> 'list[Fraction]'",
    ("crdyn.classify", "classify_point"):
        "(G: 'FiniteRelation', x: 'int', dense: 'DensityPredicate | None' = None, search_budget: 'int' = 20000) -> 'ClassificationTag'",
    ("crdyn.classify", "Condensation.__init__"):
        "(self, G: 'FiniteRelation')",
    ("crdyn.classify", "legal_by_cycle_reach"):
        "(G: 'FiniteRelation') -> 'frozenset'",
    ("crdyn.classify", "reach"):
        "(G: 'FiniteRelation', x: 'int', n: 'int | None' = None) -> 'frozenset'",
    ("crdyn.classify", "reach_grade"):
        "(G: 'FiniteRelation', x: 'int', dense: 'DensityPredicate') -> 'int | None'",
    ("crdyn.classify", "characterization_suite"):
        "(G: 'FiniteRelation') -> 'CharacterizationReport'",
    ("crdyn.density", "Exhaustive.dense"):
        "(self, points: 'frozenset[int]') -> 'bool'",
    ("crdyn.density", "EpsNet.dense"):
        "(self, points: 'frozenset[int]') -> 'bool'",
    ("crdyn.finite", "legal_set"):
        "(G: 'FiniteRelation') -> 'frozenset'",
    ("crdyn.finite", "image"):
        "(G: 'FiniteRelation', A: 'frozenset', n: 'int' = 1) -> 'frozenset'",
    ("crdyn.tree", "branch_summary"):
        "(G: 'FiniteRelation', x: 'int', dense: 'DensityPredicate | None' = None, search_budget: 'int' = 20000) -> 'BranchSummary'",
    ("crdyn.tree", "build_tree"):
        "(G: 'FiniteRelation', x: 'int', depth: 'int') -> 'TransTree'",
    ("crdyn.io", "parse_document"):
        "(text: 'str')",
    ("crdyn.cli", "main"):
        "(argv: 'list[str] | None' = None) -> 'int'",
}


def traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_trace_targets", TRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [(name, attr) for name, attr, _ in module.TARGETS]


def resolve(module_name: str, attr: str):
    obj = importlib.import_module(module_name)
    for part in attr.split("."):
        obj = getattr(obj, part)
    return obj


def test_every_traced_name_is_pinned():
    assert traced_targets() == list(PINNED)


@pytest.mark.parametrize("target", list(PINNED), ids=lambda t: f"{t[0]}.{t[1]}")
def test_traced_signature_is_unchanged(target):
    assert str(inspect.signature(resolve(*target))) == PINNED[target]
