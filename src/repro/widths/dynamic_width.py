"""Dynamic width ``δ`` (Definition 16).

``δ(Q) = min over free-top variable orders ω of
         max_X max_{R(Y) ∈ atoms(ω_X)} ρ*(({X} ∪ dep_ω(X)) − Y)``

For hierarchical queries the free-top transformation of the canonical
variable order attains the minimum (Lemma 37), and by Proposition 8 the
dynamic width equals the δ-index of Definition 5, which the test suite
asserts against :func:`repro.query.classes.delta_index`.  Proposition 17
(δ ∈ {w−1, w}) is asserted as well.  As for the static width, ``ρ*`` is
computed as the integral ``ρ`` (exact on hierarchical queries by Lemma 30).
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.query.conjunctive import ConjunctiveQuery
from repro.vo.free_top import free_top_order
from repro.vo.variable_order import VariableOrder, build_canonical_variable_order
from repro.widths.edge_cover import rho


def dynamic_width_of_order(order: VariableOrder, query: ConjunctiveQuery) -> float:
    """``δ(ω)`` for a single (free-top) variable order."""
    width = 0.0
    for node in order.iter_variable_nodes():
        base = {node.variable} | set(order.dep(node.variable))
        for atom in node.subtree_atoms():
            remaining = base - set(atom.variables)
            width = max(width, float(rho(query, remaining)))
    return width


def dynamic_width_profile(query: ConjunctiveQuery) -> Dict[Tuple[str, str], float]:
    """Per (variable, atom) contribution to the dynamic width."""
    canonical = build_canonical_variable_order(query)
    order = free_top_order(canonical, query)
    profile: Dict[Tuple[str, str], float] = {}
    for node in order.iter_variable_nodes():
        base = {node.variable} | set(order.dep(node.variable))
        for atom in node.subtree_atoms():
            remaining = base - set(atom.variables)
            profile[(node.variable, atom.relation)] = float(rho(query, remaining))
    return profile


def dynamic_width(query: ConjunctiveQuery) -> float:
    """Dynamic width ``δ`` of a hierarchical query."""
    canonical = build_canonical_variable_order(query)
    order = free_top_order(canonical, query)
    return dynamic_width_of_order(order, query)
