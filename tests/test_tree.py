import re

import pytest

from conftest import make_random_function, make_random_relation
from crdyn.classify import Verdict, classify_point, orbit_union, reach
from crdyn.finite import FiniteRelation, FiniteSpace, image
from crdyn.tree import (
    branch_summary,
    build_tree,
    dot_export,
    function_graph_tests,
    tree_height,
    unique_branch,
    unique_infinite_branch,
)


def rel(labels, edges) -> FiniteRelation:
    return FiniteRelation(FiniteSpace(labels), edges)


CYCLE3 = rel(["1", "2", "3"], [(0, 1), (1, 2), (2, 0)])
DENS = rel(["0", "1"], [(0, 1), (1, 1)])
PAIR_LOOP = rel(["1", "2"], [(0, 0)])


class TestBuildTree:
    def test_cycle_unrolls(self):
        tree = build_tree(CYCLE3, 0, 4)
        assert [sorted(lvl) for lvl in tree.levels] == [[0], [1], [2], [0], [1]]

    def test_bad_roots_and_depths_are_rejected(self):
        for root in (3, -1):
            with pytest.raises(ValueError, match="root outside the space"):
                build_tree(CYCLE3, root, 2)
        with pytest.raises(ValueError, match="depth must be non-negative"):
            build_tree(CYCLE3, 0, -1)
        assert build_tree(CYCLE3, 0, 0).levels == (frozenset([0]),)

    def test_illegal_root_has_single_node(self):
        tree = build_tree(PAIR_LOOP, 1, 3)
        assert tree.node_count() == 1
        assert tree_height(PAIR_LOOP, 1) == 0

    def test_levels_match_images_on_random(self, rng):
        for _ in range(200):
            G = make_random_relation(rng)
            x = rng.randrange(G.space.size)
            depth = rng.randint(0, 5)
            tree = build_tree(G, x, depth)
            for n in range(depth + 1):
                assert tree.level(n) == image(G, frozenset({x}), n)
            assert tree.node_count() <= G.space.size * (depth + 1)

    def test_cumulative_levels_equal_reach(self, rng):
        for _ in range(200):
            G = make_random_relation(rng)
            x = rng.randrange(G.space.size)
            depth = rng.randint(0, 5)
            tree = build_tree(G, x, depth)
            for n in range(depth + 1):
                assert tree.cumulative_level(n) == reach(G, x, n)

    def test_reach_grade_is_first_dense_cumulative_level(self, rng):
        from crdyn.density import Exhaustive

        for _ in range(300):
            G = make_random_relation(rng)
            x = rng.randrange(G.space.size)
            tag = classify_point(G, x)
            if tag.verdict is not Verdict.TRANS3:
                continue
            dense = Exhaustive(G.space.size)
            tree = build_tree(G, x, G.space.size + 1)
            first = next(
                n
                for n in range(1, tree.depth + 1)
                if dense.dense(tree.cumulative_level(n))
            )
            assert tag.reach_grade == first


class TestHeight:
    def test_finite_height_iff_illegal(self, rng):
        for _ in range(300):
            G = make_random_relation(rng)
            for x in range(G.space.size):
                h = tree_height(G, x)
                illegal = classify_point(G, x).verdict is Verdict.ILLEGAL
                assert (h is not None) == illegal

    def test_height_value(self):
        # 0 -> 1 -> 2 with no loops: all illegal, heights count down
        G = rel(["0", "1", "2"], [(0, 1), (1, 2)])
        assert tree_height(G, 0) == 2
        assert tree_height(G, 1) == 1
        assert tree_height(G, 2) == 0


class TestBranchSummary:
    def test_dens_root(self):
        s = branch_summary(DENS, 0)
        assert s.is_legal
        assert s.all_infinite_branches_dense is True
        assert s.exists_infinite_dense_branch is True
        assert s.finite_branch_count == 0

    def test_illegal_root(self):
        s = branch_summary(PAIR_LOOP, 1)
        assert not s.is_legal
        assert s.infinite_branch_cover == frozenset()
        assert s.height == 0
        assert s.finite_branch_count == 1

    def test_unbounded_finite_branches(self):
        # loop at 0 with an exit to a dead end: arbitrarily long dead walks
        G = rel(["0", "1"], [(0, 0), (0, 1)])
        s = branch_summary(G, 0)
        assert s.finite_branch_count is None
        assert s.max_finite_branch_length is None
        assert s.is_legal

    def test_one_reach_per_summary(self, monkeypatch):
        import crdyn.classify
        import crdyn.tree

        calls = []

        def counted(G, x, *rest):
            calls.append(x)
            return reach(G, x, *rest)

        monkeypatch.setattr(crdyn.classify, "reach", counted)
        monkeypatch.setattr(crdyn.tree, "reach", counted)
        G = rel(list("abcd"), [(0, 1), (1, 2), (2, 3), (3, 3)])
        summaries = []
        for x in range(4):
            calls.clear()
            summaries.append(branch_summary(G, x))
            assert calls == [x]
        assert repr(summaries[1]) == (
            "BranchSummary(root=1, is_legal=True, finite_branch_count=0, max_finite_branch_length=None, "
            "height=None, infinite_branch_cover=frozenset({1, 2, 3}), all_infinite_branches_dense=False, "
            "exists_infinite_dense_branch=False, cover_dense=False, intransitive=True)"
        )
        assert [s.infinite_branch_cover for s in summaries] == [orbit_union(G, x) for x in range(4)]

    def test_booleans_match_classification_on_random(self, rng):
        for _ in range(500):
            G = make_random_relation(rng)
            x = rng.randrange(G.space.size)
            s = branch_summary(G, x)
            tag = classify_point(G, x)
            assert s.is_legal == (tag.verdict is not Verdict.ILLEGAL)
            assert s.cover_dense == (
                tag.verdict in (Verdict.TRANS1, Verdict.TRANS2, Verdict.TRANS3)
            )
            assert s.intransitive == (tag.verdict is Verdict.INTRANSITIVE)
            assert s.exists_infinite_dense_branch == (
                tag.verdict in (Verdict.TRANS1, Verdict.TRANS2)
            )
            assert s.all_infinite_branches_dense == (tag.verdict is Verdict.TRANS1)
            assert s.infinite_branch_cover <= reach(G, x)


class TestFunctionGraphTests:
    def test_points_outside_the_space_are_rejected(self):
        for query in (unique_branch, unique_infinite_branch, tree_height, branch_summary):
            for x in (99, -1):
                with pytest.raises(ValueError, match="outside the space"):
                    query(CYCLE3, x)

    def test_examples(self):
        assert function_graph_tests(CYCLE3) == (True, True)
        assert function_graph_tests(PAIR_LOOP) == (True, False)
        fork = rel(["0", "a", "b"], [(0, 1), (0, 2), (1, 1), (2, 2)])
        assert function_graph_tests(fork) == (False, False)

    def test_branch_count_characterizations(self, rng):
        for _ in range(300):
            G = make_random_relation(rng, max_points=6)
            partial, total = function_graph_tests(G)
            assert partial == all(unique_branch(G, x) for x in range(G.space.size))
            assert total == all(
                unique_infinite_branch(G, x) for x in range(G.space.size)
            )

    def test_functions_pass_both(self, rng):
        for _ in range(100):
            G = make_random_function(rng)
            assert function_graph_tests(G) == (True, True)


DOT_NODE = re.compile(r'^  (p\d+_l\d+) \[label="((?:[^"\\]|\\.)*)"\];$')
DOT_EDGE = re.compile(r"^  (p\d+_l\d+) -> (p\d+_l\d+);$")
DOT_RANK = re.compile(r"^  \{ rank=same;( p\d+_l\d+;)+ \}$")


def validate_dot(text: str):
    """Tiny structural validator for the DOT dialect this package emits."""
    lines = text.splitlines()
    assert lines[0] == "digraph transitivity_tree {"
    assert lines[1] == "  rankdir=TB;"
    assert lines[-1] == "}"
    declared: set[str] = set()
    edges = []
    for line in lines[2:-1]:
        m = DOT_NODE.match(line)
        if m:
            declared.add(m.group(1))
            continue
        m = DOT_EDGE.match(line)
        if m:
            edges.append((m.group(1), m.group(2)))
            continue
        assert DOT_RANK.match(line), f"unparseable line: {line!r}"
    for a, b in edges:
        assert a in declared and b in declared
    return declared, edges


class TestDotExport:
    def test_depth_zero_single_node(self):
        tree = build_tree(CYCLE3, 0, 0)
        declared, edges = validate_dot(dot_export(tree))
        assert declared == {"p0_l0"}
        assert edges == []

    def test_cycle_depth_two(self):
        tree = build_tree(CYCLE3, 0, 2)
        declared, edges = validate_dot(dot_export(tree))
        assert len(declared) == 3
        assert len(edges) == 2

    def test_random_trees_validate_and_are_stable(self, rng):
        for _ in range(100):
            G = make_random_relation(rng)
            x = rng.randrange(G.space.size)
            tree = build_tree(G, x, rng.randint(0, 4))
            text = dot_export(tree)
            validate_dot(text)
            again = dot_export(build_tree(G, x, tree.depth))
            assert text == again

    def test_labels_with_quotes_and_backslashes_are_escaped(self):
        labels = ['say "hi"', "back\\slash", "trailing\\", "two\nlines"]
        G = rel(labels, [(0, 1), (1, 2), (2, 3), (3, 0)])
        text = dot_export(build_tree(G, 0, 3))
        declared, edges = validate_dot(text)
        assert len(declared) == 4 and len(edges) == 3
        shown = [m.group(2) for m in map(DOT_NODE.match, text.splitlines()) if m]
        unescaped = [re.sub(r"\\(.)", lambda m: "\n" if m.group(1) == "n" else m.group(1), s)
                     for s in shown]
        assert unescaped == labels

    def test_ordinary_labels_are_unchanged(self):
        text = dot_export(build_tree(CYCLE3, 0, 1))
        assert '  p0_l0 [label="1"];' in text.splitlines()

    def test_shared_nodes_are_emitted_once(self):
        # both walks reach point 2 at level 1: one node, two parent edges
        G = rel(["0", "1", "2"], [(0, 2), (0, 1), (1, 2), (2, 2)])
        tree = build_tree(G, 0, 1)
        declared, _ = validate_dot(dot_export(tree))
        assert declared == {"p0_l0", "p1_l1", "p2_l1"}
