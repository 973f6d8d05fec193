"""Static width ``w`` (Definition 15).

``w(Q) = min over free-top variable orders ω of max_X ρ*({X} ∪ dep_ω(X))``.

For hierarchical queries the free-top transformation of the canonical
variable order attains the minimum (this is how the paper proves the upper
bounds of Theorem 2 and Proposition 3), so the width is evaluated on that
order.  Free-connex hierarchical queries get static width 1 (Proposition 3),
which the test suite asserts for a catalogue of queries from the paper.
Every ``ρ*`` here is computed as the integral ``ρ``, which Lemma 30 makes
exact on hierarchical queries.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.query.conjunctive import ConjunctiveQuery
from repro.vo.free_top import free_top_order
from repro.vo.variable_order import VariableOrder, build_canonical_variable_order
from repro.widths.edge_cover import rho


def static_width_of_order(order: VariableOrder, query: ConjunctiveQuery) -> float:
    """``w(ω) = max_X ρ*({X} ∪ dep_ω(X))`` for one variable order."""
    width = 0.0
    for node in order.iter_variable_nodes():
        variables = {node.variable} | set(order.dep(node.variable))
        width = max(width, float(rho(query, variables)))
    return width


def static_width_profile(query: ConjunctiveQuery) -> Dict[str, float]:
    """Per-variable contribution ``ρ*({X} ∪ dep(X))`` on the free-top order.

    Useful for explaining *why* a query has a given width (exposed through
    the planner's ``explain`` output).
    """
    canonical = build_canonical_variable_order(query)
    order = free_top_order(canonical, query)
    profile: Dict[str, float] = {}
    for node in order.iter_variable_nodes():
        variables = {node.variable} | set(order.dep(node.variable))
        profile[node.variable] = float(rho(query, variables))
    return profile


def static_width(query: ConjunctiveQuery) -> float:
    """Static width ``w`` of a hierarchical query.

    Queries are required to contain at least one atom with a non-empty
    schema, so the returned value is at least 1 (paper footnote 1).
    """
    canonical = build_canonical_variable_order(query)
    order = free_top_order(canonical, query)
    return max(1.0, static_width_of_order(order, query))
