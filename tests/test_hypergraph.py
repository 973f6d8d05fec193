"""Tests for hypergraphs, α-acyclicity, free-connexity, and join trees."""

import sys

import pytest

from repro.query.hypergraph import (
    Hypergraph,
    is_alpha_acyclic,
    is_free_connex,
    join_tree,
    verify_running_intersection,
)
from repro.query.parser import parse_query


class TestAlphaAcyclicity:
    @pytest.mark.parametrize(
        "text",
        [
            "Q(A, C) = R(A, B), S(B, C)",
            "Q(A) = R(A, B), S(B)",
            "Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)",
            "Q(A, C, F) = R(A, B, C), S(A, B, D), T(A, E, F), U(A, E, G)",
            # the classic non-hierarchical but acyclic path query
            "Q(A, C) = R(A, B), S(B, C), T(C)",
        ],
    )
    def test_acyclic_queries(self, text):
        assert is_alpha_acyclic(parse_query(text))

    @pytest.mark.parametrize(
        "text",
        [
            # triangle query
            "Q(A, B, C) = R(A, B), S(B, C), T(C, A)",
            # 4-cycle
            "Q(A, B, C, D) = R(A, B), S(B, C), T(C, D), U(D, A)",
        ],
    )
    def test_cyclic_queries(self, text):
        assert not is_alpha_acyclic(parse_query(text))

    def test_single_atom_is_acyclic(self):
        assert is_alpha_acyclic(parse_query("Q(A, B) = R(A, B)"))

    def test_triangle_with_covering_edge_is_acyclic(self):
        # adding an edge covering the cycle makes the hypergraph α-acyclic
        text = "Q(A, B, C) = R(A, B), S(B, C), T(C, A), U(A, B, C)"
        assert is_alpha_acyclic(parse_query(text))


class TestFreeConnex:
    @pytest.mark.parametrize(
        "text,expected",
        [
            # Example 28: acyclic but not free-connex
            ("Q(A, C) = R(A, B), S(B, C)", False),
            # Example 29: free-connex
            ("Q(A) = R(A, B), S(B)", True),
            # Example 18: free-connex
            ("Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)", True),
            # Example 12: free-connex
            ("Q(A, C, F) = R(A, B, C), S(A, B, D), T(A, E, F), U(A, E, G)", True),
            # Example 19: not free-connex (bound A above free C,D,E,F not covered)
            ("Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)", False),
            # full queries are free-connex when acyclic
            ("Q(A, B, C) = R(A, B), S(B, C)", True),
            # Boolean acyclic queries are free-connex
            ("Q() = R(A, B), S(B, C)", True),
            # cyclic queries are never free-connex
            ("Q(A) = R(A, B), S(B, C), T(C, A)", False),
        ],
    )
    def test_free_connex_classification(self, text, expected):
        assert is_free_connex(parse_query(text)) is expected


class TestJoinTree:
    def test_join_tree_of_acyclic_query(self):
        q = parse_query("Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)")
        tree = join_tree(q)
        assert tree is not None
        assert len(tree) == 3
        assert verify_running_intersection(tree)

    def test_join_tree_of_cyclic_query_is_none(self):
        q = parse_query("Q(A, B, C) = R(A, B), S(B, C), T(C, A)")
        assert join_tree(q) is None

    def test_example12_join_tree(self):
        q = parse_query("Q(A, C, F) = R(A, B, C), S(A, B, D), T(A, E, F), U(A, E, G)")
        tree = join_tree(q)
        assert tree is not None
        assert verify_running_intersection(tree)

    def test_example12_join_tree_needs_no_networkx(self, monkeypatch):
        monkeypatch.setitem(sys.modules, "networkx", None)  # any import raises
        q = parse_query("Q(A, C, F) = R(A, B, C), S(A, B, D), T(A, E, F), U(A, E, G)")
        tree = join_tree(q)
        assert tree is not None
        assert {name: variables for name, (variables, _) in tree.items()} == {
            "R#0": {"A", "B", "C"},
            "S#1": {"A", "B", "D"},
            "T#2": {"A", "E", "F"},
            "U#3": {"A", "E", "G"},
        }
        # three edges joining four atoms: a tree
        assert sum(len(neighbours) for _, neighbours in tree.values()) == 2 * 3
        assert verify_running_intersection(tree)

    def test_running_intersection_fails_on_a_broken_tree(self):
        tree = join_tree(parse_query("Q(A) = R(A, B), S(B, C), T(C, D)"))
        assert verify_running_intersection(tree)
        # cut the edge between the two atoms that share C
        tree["S#1"][1].discard("T#2")
        tree["T#2"][1].discard("S#1")
        assert not verify_running_intersection(tree)


class TestHypergraphClass:
    def test_vertices(self):
        graph = Hypergraph.from_edge_sets([("A", "B"), ("B", "C")])
        assert graph.vertices == {"A", "B", "C"}

    def test_copy_is_independent(self):
        graph = Hypergraph.from_edge_sets([("A",)])
        clone = graph.copy()
        clone.add_edge("extra", ("B",))
        assert "extra" not in graph.edges

    def test_empty_hypergraph_is_acyclic(self):
        assert Hypergraph({}).is_alpha_acyclic()

    def test_from_query_names_edges_by_position(self):
        q = parse_query("Q(A) = R(A, B), S(B)")
        graph = Hypergraph.from_query(q)
        assert set(graph.edges) == {"R#0", "S#1"}
