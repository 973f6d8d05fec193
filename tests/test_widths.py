"""Tests for edge covers and the static/dynamic width measures."""

import random

import pytest

from repro.conformance.queries import HEAD_MODES, random_labeled_query
from repro.query.parser import parse_query
from repro.vo.free_top import free_top_order
from repro.vo.variable_order import build_canonical_variable_order
from repro.workloads.scenarios import SCENARIOS
from repro.widths.edge_cover import (
    fractional_edge_cover,
    integral_edge_cover,
    rho,
    rho_star,
)
from repro.widths.dynamic_width import dynamic_width, dynamic_width_profile
from repro.widths.static_width import static_width, static_width_profile


class TestEdgeCovers:
    def test_single_atom_cover(self):
        q = parse_query("Q(A, B) = R(A, B)")
        assert rho_star(q, {"A", "B"}) == pytest.approx(1.0)
        assert rho(q, {"A", "B"}) == 1

    def test_empty_target_set(self):
        q = parse_query("Q(A) = R(A, B), S(B)")
        assert rho_star(q, set()) == 0.0
        assert rho(q, set()) == 0

    def test_two_disjoint_atoms_needed(self):
        q = parse_query("Q(A, C) = R(A, B), S(B, C)")
        assert rho_star(q, {"A", "C"}) == pytest.approx(2.0)
        assert rho(q, {"A", "C"}) == 2

    def test_uncoverable_variable_raises(self):
        q = parse_query("Q(A) = R(A, B)")
        with pytest.raises(ValueError):
            rho_star(q, {"Z"})
        with pytest.raises(ValueError):
            rho(q, {"Z"})

    def test_fractional_weights_are_a_cover(self):
        q = parse_query("Q(A, C) = R(A, B), S(B, C)")
        value, weights = fractional_edge_cover(q.atoms, {"A", "B", "C"})
        assert value == pytest.approx(2.0)
        for variable in ("A", "B", "C"):
            covered = sum(w for a, w in weights.items() if variable in a.variables)
            assert covered >= 1.0 - 1e-6

    def test_integral_cover_returns_chosen_atoms(self):
        q = parse_query("Q(A, C) = R(A, B), S(B, C)")
        size, chosen = integral_edge_cover(q.atoms, {"A", "C"})
        assert size == 2
        assert {a.relation for a in chosen} == {"R", "S"}

    def test_lemma_30_on_paper_queries(self):
        """ρ* = ρ for hierarchical queries (Lemma 30), on several variable sets.

        The catalogue spans the paper's examples, every scenario query the
        planner serves and the conformance generator's hierarchical families;
        the variable sets include each one the width measures cover, so the
        widths computed with ρ equal the LP-based ones on each query.
        """
        rng = random.Random(30)
        catalogue = [
            parse_query(text)
            for text in [
                "Q(A, C) = R(A, B), S(B, C)",
                "Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)",
                "Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)",
                "Q(Y0, Y1, Y2) = R0(X, Y0), R1(X, Y1), R2(X, Y2)",
                *sorted({scenario.query for scenario in SCENARIOS.values()}),
            ]
        ] + [
            random_labeled_query(rng, head_mode=mode).query
            for mode in HEAD_MODES
            for _ in range(10)
        ]
        for q in catalogue:
            variable_sets = [q.free_variables, q.variables, q.bound_variables]
            for variables in variable_sets:
                if not variables:
                    continue
                assert rho_star(q, variables) == pytest.approx(rho(q, variables))
            order = free_top_order(build_canonical_variable_order(q), q)
            static_lp = dynamic_lp = 0.0
            for node in order.iter_variable_nodes():
                base = {node.variable} | set(order.dep(node.variable))
                cover = rho_star(q, base)
                assert cover == pytest.approx(rho(q, base)), (q, base)
                static_lp = max(static_lp, cover)
                for atom in node.subtree_atoms():
                    rest = base - set(atom.variables)
                    cover = rho_star(q, rest)
                    assert cover == pytest.approx(rho(q, rest)), (q, rest)
                    dynamic_lp = max(dynamic_lp, cover)
            assert static_width(q) == pytest.approx(max(1.0, static_lp)), q
            assert dynamic_width(q) == pytest.approx(dynamic_lp), q

    def test_fractional_can_beat_integral_on_non_hierarchical(self):
        """The triangle query has ρ* = 3/2 < ρ = 2 — showing the LP is real."""
        q = parse_query("Q(A, B, C) = R(A, B), S(B, C), T(C, A)")
        assert rho_star(q, {"A", "B", "C"}) == pytest.approx(1.5)
        assert rho(q, {"A", "B", "C"}) == 2


class TestStaticWidth:
    @pytest.mark.parametrize(
        "text,expected",
        [
            # Example 28: w = 2 (preprocessing O(N^{1+ε}))
            ("Q(A, C) = R(A, B), S(B, C)", 2.0),
            # Example 29 / free-connex queries: w = 1 (Proposition 3)
            ("Q(A) = R(A, B), S(B)", 1.0),
            ("Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)", 1.0),
            ("Q(A, C, F) = R(A, B, C), S(A, B, D), T(A, E, F), U(A, E, G)", 1.0),
            # Example 19: preprocessing O(N^{1+2ε}) -> w = 3
            ("Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)", 3.0),
            # star query with 3 branches all free below the bound centre
            ("Q(Y0, Y1, Y2) = R0(X, Y0), R1(X, Y1), R2(X, Y2)", 3.0),
            # q-hierarchical queries
            ("Q(A, B) = R(A, B), S(A)", 1.0),
            ("Q() = R(A, B), S(B)", 1.0),
        ],
    )
    def test_static_width(self, text, expected):
        assert static_width(parse_query(text)) == pytest.approx(expected)

    def test_profile_identifies_expensive_variable(self):
        profile = static_width_profile(parse_query("Q(A, C) = R(A, B), S(B, C)"))
        assert profile["B"] == pytest.approx(2.0)
        assert max(profile.values()) == pytest.approx(2.0)


class TestDynamicWidth:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("Q(A, C) = R(A, B), S(B, C)", 1.0),
            ("Q(A) = R(A, B), S(B)", 1.0),
            ("Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)", 1.0),
            ("Q(C, D, E, F) = R(A, B, D), S(A, B, E), T(A, C, F), U(A, C, G)", 3.0),
            ("Q(Y0, Y1, Y2) = R0(X, Y0), R1(X, Y1), R2(X, Y2)", 2.0),
            ("Q(A, B) = R(A, B), S(A)", 0.0),
            ("Q() = R(A, B), S(B)", 0.0),
        ],
    )
    def test_dynamic_width(self, text, expected):
        assert dynamic_width(parse_query(text)) == pytest.approx(expected)

    def test_profile_contains_variable_atom_pairs(self):
        profile = dynamic_width_profile(parse_query("Q(A, C) = R(A, B), S(B, C)"))
        assert ("B", "R") in profile and ("B", "S") in profile
        assert max(profile.values()) == pytest.approx(1.0)
