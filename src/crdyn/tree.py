"""Finite-depth transitivity trees and their branch structure.

The literal tree of all walks from a point is exponentially large, so trees
are stored as level-indexed unfoldings with node identity (point, level); a
point reached twice at the same level is one shared node.  Every branch
statistic is computed structurally from the relation instead of enumerating
branches.
"""

from __future__ import annotations

from dataclasses import dataclass

from .classify import _SEARCH_BUDGET, Condensation, _analysis, _decide, _density, orbit_union, reach
from .density import DensityPredicate
from .finite import FiniteRelation, _check_steps, image


class TransTree:
    """Memoized unfolding of the walk tree from a root, to a fixed depth."""

    __slots__ = ("relation", "root", "depth", "levels")

    def __init__(self, relation: FiniteRelation, root: int, depth: int):
        if not 0 <= root < relation.space.size:
            raise ValueError("root outside the space")
        _check_steps(depth, "depth")
        self.relation = relation
        self.root = root
        self.depth = depth
        levels = [frozenset([root])]
        for _ in range(depth):
            levels.append(image(relation, levels[-1], 1))
        self.levels = tuple(levels)

    def level(self, n: int) -> frozenset:
        return self.levels[n]

    def cumulative_level(self, n: int) -> frozenset:
        out: frozenset = frozenset()
        for lvl in self.levels[: n + 1]:
            out |= lvl
        return out

    def nodes(self) -> list[tuple[int, int]]:
        """(point, level) pairs, sorted by level then point index."""
        return [(p, l) for l, lvl in enumerate(self.levels) for p in sorted(lvl)]

    def node_count(self) -> int:
        return sum(len(lvl) for lvl in self.levels)

    def child_edges(self) -> list[tuple[tuple[int, int], tuple[int, int]]]:
        out = []
        for l in range(self.depth):
            nxt = self.levels[l + 1]
            for p in sorted(self.levels[l]):
                for q in self.relation.successors(p):
                    if q in nxt:
                        out.append(((p, l), (q, l + 1)))
        return out


def build_tree(G: FiniteRelation, x: int, depth: int) -> TransTree:
    return TransTree(G, x, depth)


@dataclass(frozen=True)
class BranchSummary:
    """Branch facts about the full (unbounded) tree from a root.

    finite_branch_count is None when loops make the number of dead-ending
    walks unbounded; max_finite_branch_length is None in that case or when
    there is no finite branch at all.  height is None exactly when some
    branch is infinite, which happens exactly for legal roots.  The two
    density booleans may be None when a bounded eps-net search was
    inconclusive.
    """

    root: int
    is_legal: bool
    finite_branch_count: int | None
    max_finite_branch_length: int | None
    height: int | None
    infinite_branch_cover: frozenset
    all_infinite_branches_dense: bool | None
    exists_infinite_dense_branch: bool | None
    cover_dense: bool
    intransitive: bool


def _finite_branch_stats(
    G: FiniteRelation, x: int, cond: Condensation, reached: frozenset
) -> tuple[int | None, int | None]:
    """(number, max length) of walks from x ending at successor-free points; reached is x's reach."""
    relevant = frozenset(v for v in reached if cond.reach_dead[cond.scc_of[v]])
    if not relevant:
        return 0, None
    # a cycle on the way to a dead end makes the walk family unbounded
    if any(cond.live[cond.scc_of[v]] for v in relevant):
        return None, None
    # DAG: count walks and longest walk from x by dynamic programming
    counts: dict[int, int] = {}
    longest: dict[int, int] = {}
    for v in sorted(relevant, key=cond.scc_of.__getitem__):  # successors first
        succ = [w for w in G.successors(v) if w in relevant]
        counts[v] = sum(counts[w] for w in succ) if succ else 1
        longest[v] = max((longest[w] + 1 for w in succ), default=0)
    return counts[x], longest[x]


def tree_height(G: FiniteRelation, x: int) -> int | None:
    """Height of the full tree: None when infinite (legal root)."""
    a = _analysis(G)
    if x in a.legal:
        return None
    _, longest = _finite_branch_stats(G, x, a, reach(G, x))
    return longest or 0


def branch_summary(
    G: FiniteRelation,
    x: int,
    dense: DensityPredicate | None = None,
    search_budget: int = _SEARCH_BUDGET,
) -> BranchSummary:
    """Branch-based restatement of the classification of x.

    The cover of infinite branches is the orbit union, x's reach inside the
    legal set; the density booleans are the classify decision, so that one
    routine answers both views.  One reach BFS serves the cover and the
    finite-branch counts.
    """
    dense = _density(G, dense)
    a = _analysis(G)
    is_legal = x in a.legal
    reached = reach(G, x)
    count, max_len = _finite_branch_stats(G, x, a, reached)
    cover_dense, some_dense, all_dense = _decide(G, x, dense, search_budget)
    return BranchSummary(
        root=x,
        is_legal=is_legal,
        finite_branch_count=count,
        max_finite_branch_length=max_len,
        height=None if is_legal else (max_len or 0),
        infinite_branch_cover=reached & a.legal,
        all_infinite_branches_dense=all_dense,
        exists_infinite_dense_branch=some_dense,
        cover_dense=cover_dense,
        intransitive=is_legal and not cover_dense,
    )


def unique_branch(G: FiniteRelation, x: int) -> bool:
    """|branches of T(x)| = 1: every point reachable from x has at most one successor."""
    return all(len(G.successors(v)) <= 1 for v in reach(G, x))


def unique_infinite_branch(G: FiniteRelation, x: int) -> bool:
    """|infinite branches of T(x)| = 1: x is legal and each point of its orbit
    union has exactly one legal successor.

    Every point on a walk to a legal point is legal, so the orbit union is
    what a walk along legal successors from x can visit.
    """
    legal = _analysis(G).legal
    orbit = orbit_union(G, x)
    return x in orbit and all(sum(w in legal for w in G.successors(v)) == 1 for v in orbit)


def function_graph_tests(G: FiniteRelation) -> tuple[bool, bool]:
    """(partial single-valued, total single-valued) successor-count tests."""
    counts = [len(G.successors(v)) for v in range(G.space.size)]
    return all(c <= 1 for c in counts), all(c == 1 for c in counts)


def _dot_string(text: str) -> str:
    """A DOT double-quoted string showing `text` literally."""
    for raw, escaped in (("\\", "\\\\"), ('"', '\\"'), ("\n", "\\n"), ("\r", "\\r")):
        text = text.replace(raw, escaped)
    return f'"{text}"'


def dot_export(tree: TransTree) -> str:
    """Deterministic DOT rendering: one node per (point, level), ranked by level."""
    labels = tree.relation.space.labels
    lines = ["digraph transitivity_tree {", "  rankdir=TB;"]
    for p, l in tree.nodes():
        lines.append(f"  p{p}_l{l} [label={_dot_string(labels[p])}];")
    for l, lvl in enumerate(tree.levels):
        if not lvl:
            continue
        ids = " ".join(f"p{p}_l{l};" for p in sorted(lvl))
        lines.append(f"  {{ rank=same; {ids} }}")
    for (p, l), (q, m) in tree.child_edges():
        lines.append(f"  p{p}_l{l} -> p{q}_l{m};")
    lines.append("}")
    return "\n".join(lines) + "\n"
