"""Skew-aware view-tree construction — the τ algorithm of Figure 11.

Given a canonical variable order of a hierarchical query, τ produces a set of
view trees that together encode the query result (Proposition 20):

* wherever the residual query at a node is free-connex (static mode) or
  δ₀-hierarchical (dynamic mode), a single ``BuildVT`` tree suffices;
* at a free variable the child strategies are combined (one tree per
  combination of child trees);
* at a bound variable that violates the property, the construction forks
  into the *light* strategy (a ``BuildVT`` tree over the light parts of the
  relations, partitioned on ``anc(X) ∪ {X}``) and the *heavy* strategies
  (the child combinations joined with the heavy indicator ``∃H``).

The function returns a :class:`SkewAwarePlan` bundling, for every connected
component of the variable order, its list of view trees, plus the indicator
triples and the partition registry shared by all of them.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.data.database import Database
from repro.data.partition import PartitionRegistry
from repro.query.classes import delta_index, is_hierarchical
from repro.query.conjunctive import ConjunctiveQuery
from repro.query.hypergraph import is_free_connex
from repro.rings.base import Ring, check_ring_laws
from repro.rings.library import COUNTING
from repro.vo.variable_order import AtomNode, VariableNode, VariableOrder, VONode
from repro.views.build import (
    DYNAMIC_MODE,
    STATIC_MODE,
    aux_view,
    build_view_tree,
    make_light_part_leaf_factory,
    make_relation_leaf_factory,
    new_view_tree,
)
from repro.views.indicators import IndicatorTriple, build_indicator_triple
from repro.views.view import (
    IndicatorLeaf,
    NameGenerator,
    RelationLeaf,
    ViewNode,
    ViewTreeNode,
)


@dataclass
class SkewAwarePlan:
    """Everything the engine needs to materialize, enumerate, and maintain."""

    query: ConjunctiveQuery
    mode: str
    order: VariableOrder
    # one list of strategy trees per connected component of the query
    component_trees: List[List[ViewTreeNode]] = field(default_factory=list)
    indicator_triples: List[IndicatorTriple] = field(default_factory=list)
    partitions: PartitionRegistry = field(default_factory=PartitionRegistry)
    # Payload algebra of the materialized multiplicities (repro.rings).
    # Counting — the implicit pre-ring payload — keeps the plan
    # byte-identical to the pre-ring engine; non-counting rings are carried
    # by the maintained aggregate states fed from the roots' result deltas.
    ring: Ring = COUNTING
    # Memos of the three lookups below.  Which trees and triples reference a
    # relation is fixed once the plan is built (only view *contents* change
    # afterwards), and the maintenance layer asks on every update.
    _trees_by_source: Dict[str, Tuple[ViewTreeNode, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _triples_by_relation: Dict[str, Tuple[IndicatorTriple, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )
    _triples_by_light_source: Dict[str, Tuple[IndicatorTriple, ...]] = field(
        default_factory=dict, repr=False, compare=False
    )

    def annotate_ring(self, ring: Ring) -> "SkewAwarePlan":
        """Annotate every tree of the plan with ``ring`` (returns ``self``).

        The ring's abelian-group laws are what the maintenance machinery
        relies on, so they are spot-checked here rather than assumed — an
        unlawful ring fails loudly at annotation time instead of silently
        corrupting maintained payloads.
        """
        check_ring_laws(ring, [(1, 1), (2, 2), (3, -3)])
        self.ring = ring
        for tree in self.all_trees():
            tree.annotate_ring(ring)
        return self

    def all_trees(self) -> Tuple[ViewTreeNode, ...]:
        """All skew-aware strategy trees across components."""
        return tuple(tree for trees in self.component_trees for tree in trees)

    def trees_referencing(self, source_name: str) -> Tuple[ViewTreeNode, ...]:
        """Strategy trees whose leaves reference the relation ``source_name``."""
        trees = self._trees_by_source.get(source_name)
        if trees is None:
            trees = self._trees_by_source[source_name] = tuple(
                tree
                for tree in self.all_trees()
                if source_name in tree.source_names()
            )
        return trees

    def triples_referencing(self, relation_name: str) -> Tuple[IndicatorTriple, ...]:
        """Indicator triples whose All tree is fed by ``relation_name``."""
        triples = self._triples_by_relation.get(relation_name)
        if triples is None:
            triples = self._triples_by_relation[relation_name] = tuple(
                triple
                for triple in self.indicator_triples
                if relation_name in triple.relation_names
            )
        return triples

    def light_triples_referencing(
        self, source_name: str
    ) -> Tuple[IndicatorTriple, ...]:
        """Indicator triples whose light (``L``) tree reads ``source_name``."""
        triples = self._triples_by_light_source.get(source_name)
        if triples is None:
            triples = self._triples_by_light_source[source_name] = tuple(
                triple
                for triple in self.indicator_triples
                if source_name in triple.light_tree.source_names()
            )
        return triples

    def describe(self) -> str:
        """Human-readable rendering of the whole plan (used by ``explain``)."""
        lines = [
            f"mode: {self.mode}",
            f"query: {self.query}",
            f"payload ring: {self.ring.name}",
        ]
        for i, trees in enumerate(self.component_trees):
            lines.append(f"component {i}: {len(trees)} strategy tree(s)")
            for tree in trees:
                lines.append(tree.pretty(1))
        if self.indicator_triples:
            lines.append("indicator triples:")
            for triple in self.indicator_triples:
                lines.append(
                    f"  {triple.exists_heavy.name} on keys ({', '.join(triple.keys)})"
                )
        return "\n".join(lines)


class _TauBuilder:
    """Stateful helper carrying the shared context of one τ run."""

    def __init__(
        self,
        query: ConjunctiveQuery,
        database: Database,
        mode: str,
        namer: NameGenerator,
        registry: PartitionRegistry,
    ) -> None:
        self.query = query
        self.database = database
        self.mode = mode
        self.namer = namer
        self.registry = registry
        self.indicator_triples: List[IndicatorTriple] = []
        self.free = query.free_variables
        self.base_factory = make_relation_leaf_factory(database, query)

    # ------------------------------------------------------------------
    def residual_query(self, vo_node: VariableNode) -> ConjunctiveQuery:
        """The residual query ``Q_X(F_X)`` of Figure 11 (lines 3-4)."""
        ancestors = set(vo_node.ancestors())
        subtree_vars = vo_node.subtree_variables()
        head = tuple(sorted(ancestors | (self.free & subtree_vars)))
        return ConjunctiveQuery(head, vo_node.subtree_atoms(), name=f"Q_{vo_node.variable}")

    def residual_is_easy(self, vo_node: VariableNode) -> bool:
        """Free-connex test in static mode, δ₀-hierarchical test in dynamic mode."""
        residual = self.residual_query(vo_node)
        if self.mode == STATIC_MODE:
            return is_free_connex(residual)
        return is_hierarchical(residual) and delta_index(residual) == 0

    # ------------------------------------------------------------------
    def tau(self, vo_node: VONode) -> List[ViewTreeNode]:
        """The recursive construction of Figure 11."""
        if isinstance(vo_node, AtomNode):
            return [self.base_factory(vo_node.atom)]
        assert isinstance(vo_node, VariableNode)
        x = vo_node.variable
        keys = set(vo_node.ancestors()) | {x}
        residual = self.residual_query(vo_node)
        if self.residual_is_easy(vo_node):
            tree = build_view_tree(
                "V",
                vo_node,
                frozenset(residual.head),
                self.mode,
                self.base_factory,
                self.namer,
            )
            return [tree]
        child_tree_lists = [self.tau(child) for child in vo_node.children]
        if x in self.free:
            return self._combine(vo_node, keys, child_tree_lists, indicator=None)
        # bound variable violating the property: build indicators, fork
        light_factory = make_light_part_leaf_factory(
            self.database, self.registry, tuple(sorted(keys))
        )
        triple = build_indicator_triple(
            vo_node, self.base_factory, light_factory, self.mode, self.namer
        )
        self.indicator_triples.append(triple)
        heavy_trees = self._combine(vo_node, keys, child_tree_lists, indicator=triple)
        light_tree = build_view_tree(
            "V",
            vo_node,
            frozenset(residual.head),
            self.mode,
            light_factory,
            self.namer,
        )
        return heavy_trees + [light_tree]

    # ------------------------------------------------------------------
    def _combine(
        self,
        vo_node: VariableNode,
        keys,
        child_tree_lists: Sequence[List[ViewTreeNode]],
        indicator,
    ) -> List[ViewTreeNode]:
        """Lines 9-11 / 13-15 of Figure 11: one tree per child combination.

        When several combinations exist, the chosen child trees are
        deep-copied (inner views only — leaves stay shared) so each strategy
        tree owns its materialized views and can absorb delta propagation
        independently of its siblings.
        """
        combos = list(itertools.product(*child_tree_lists))
        trees: List[ViewTreeNode] = []
        for combo in combos:
            chosen: List[ViewTreeNode] = []
            for tree in combo:
                if len(combos) > 1 and isinstance(tree, ViewNode):
                    chosen.append(tree.copy(self.namer))
                else:
                    chosen.append(tree)
            hatted = [
                aux_view(child, tree, self.mode, self.namer)
                for child, tree in zip(vo_node.children, chosen)
            ]
            subtrees: List[ViewTreeNode] = []
            if indicator is not None:
                subtrees.append(
                    IndicatorLeaf(indicator.keys, indicator.exists_heavy)
                )
            subtrees.extend(hatted)
            trees.append(
                new_view_tree(f"V_{vo_node.variable}", keys, subtrees, self.namer)
            )
        return trees


def build_skew_aware_plan(
    query: ConjunctiveQuery,
    order: VariableOrder,
    database: Database,
    mode: str = DYNAMIC_MODE,
) -> SkewAwarePlan:
    """Run τ (Figure 11) over every connected component of the variable order."""
    if mode not in (STATIC_MODE, DYNAMIC_MODE):
        raise ValueError(f"unknown mode {mode!r}")
    namer = NameGenerator()
    registry = PartitionRegistry()
    plan = SkewAwarePlan(query=query, mode=mode, order=order, partitions=registry)
    builder = _TauBuilder(query, database, mode, namer, registry)
    for root in order.roots:
        plan.component_trees.append(builder.tau(root))
    plan.indicator_triples = builder.indicator_triples
    return plan
