"""Transitivity taxonomy for dynamical systems given by closed relations.

Exact classification of points as illegal, type 1/2/3 transitive (with
finite-reach grades), or intransitive, on finite relations and on relations
over unions of rational intervals; transitivity trees; system transitivity;
a gallery of worked instances; and a command-line interface.
"""

from .classify import (
    BranchCoverResult,
    BudgetExceededError,
    Certainty,
    ClassificationTag,
    Condensation,
    IllegalPointError,
    Verdict,
    characterization_suite,
    classify_all,
    classify_point,
    do_transitive,
    membership,
    minimal_dense_branch_cover,
    oracle_classify,
    projection_check,
    reach,
    system_transitive,
    trans_set,
)
from .density import EpsNet, Exhaustive
from .finite import (
    FiniteRelation,
    FiniteSpace,
    InvalidInstanceError,
    Walk,
    illegal_set,
    image,
    inverse_relation,
    legal_set,
    mahavier_count,
    mahavier_enumerate,
    omega_image,
    omega_preimage,
    preimage,
)
from .region import Region1D, Space1D, eps_dense
from .symbolic import (
    IntervalPointTag,
    Segment,
    SinglePoint,
    SymbolicRelation,
    bounded_walk_search,
    classify_interval_point,
    discretize,
    grid_transitivity_check,
    projections,
    sym_image,
    sym_preimage,
    sym_reach,
)
from .tree import TransTree, branch_summary, build_tree, dot_export, function_graph_tests

__version__ = "0.1.0"
