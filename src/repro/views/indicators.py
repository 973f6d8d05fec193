"""Heavy and light indicator view trees (Figure 10).

For a bound join variable ``X`` that violates the free-connex (static) or
δ₀-hierarchical (dynamic) property, the skew-aware construction partitions
the relations below ``X`` on ``keys = anc(X) ∪ {X}`` and keeps two indicator
views over those key values:

* the *light* indicator ``L(keys)`` joins the light parts of the relations
  below ``X`` (so a key is in ``L`` exactly when it exists in every relation
  and is light in all of them);
* the *heavy* indicator ``H(keys) = All(keys) ⋈ ∄L(keys)`` contains the keys
  that exist in every relation and are heavy in at least one.

The ``All`` and ``L`` view trees are ordinary ``BuildVT`` trees (their
residual queries are δ₀-hierarchical, hence cheap to build and maintain).
The heavy indicator is exposed to the skew-aware trees through a
set-semantics relation ``∃H`` whose support is recomputed from the roots of
``All`` and ``L``: ``∃H(t) = 1`` iff ``All(t) ≠ 0`` and ``L(t) = 0``.  This
is exactly the support the paper maintains through ``UpdateIndTree``
(Figure 18); keeping it as a derived set avoids materializing the ``∄``
complement view.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Optional, Tuple

from repro.data.relation import Relation
from repro.data.schema import Schema, ValueTuple
from repro.vo.variable_order import VariableNode
from repro.views.build import LeafFactory, build_view_tree
from repro.views.view import NameGenerator, ViewTreeNode


@dataclass
class IndicatorTriple:
    """The (All, L, ∃H) triple of Figure 10 for one bound variable.

    ``keys`` is the (sorted) partition schema ``anc(X) ∪ {X}``;
    ``relation_names`` records which base relations feed the ``All`` tree so
    the maintenance layer can find the triples affected by an update.
    """

    variable: str
    keys: Schema
    all_tree: ViewTreeNode
    light_tree: ViewTreeNode
    exists_heavy: Relation
    relation_names: FrozenSet[str]

    def all_root(self) -> Relation:
        return self.all_tree.relation()

    def light_root(self) -> Relation:
        return self.light_tree.relation()

    def heavy_support(self, key: ValueTuple) -> bool:
        """Whether ``key`` should currently be in the heavy indicator."""
        return (
            self.all_root().multiplicity(key) != 0
            and self.light_root().multiplicity(key) == 0
        )

    def refresh_key(self, key: ValueTuple) -> int:
        """Synchronise ``∃H`` for one key; return the support change (−1/0/+1).

        This is the effect of the two ``UpdateIndTree`` calls of Figure 19
        combined: after the ``All`` tree and the light tree have absorbed an
        update, the support of the heavy indicator at the update's key either
        appears, disappears, or stays unchanged.
        """
        change = int(self.heavy_support(key)) - int(key in self.exists_heavy)
        if change:
            self.exists_heavy.apply_delta(key, change)
        return change

    def rebuild_support(self) -> None:
        """Recompute the full ``∃H`` support (used after major rebalancing)."""
        self.exists_heavy.clear()
        light = self.light_root()
        self.exists_heavy.apply_deltas(
            (key, 1) for key in self.all_root().tuples() if not light.multiplicity(key)
        )

    def check_support(self) -> bool:
        """Consistency check used by tests: ``∃H`` matches its definition."""
        expected = {
            key
            for key in self.all_root().tuples()
            if self.light_root().multiplicity(key) == 0
        }
        actual = set(self.exists_heavy.tuples())
        return expected == actual


def build_indicator_triple(
    vo_node: VariableNode,
    base_factory: LeafFactory,
    light_factory: LeafFactory,
    mode: str,
    namer: NameGenerator,
) -> IndicatorTriple:
    """``IndicatorVTs`` (Figure 10) for the subtree rooted at ``vo_node``.

    ``light_factory`` must produce leaves over the light parts partitioned on
    ``keys = anc(X) ∪ {X}``; the caller (the skew-aware τ) owns the partition
    registry and passes a factory already bound to the right key schema.
    """
    x = vo_node.variable
    keys: Schema = tuple(sorted(set(vo_node.ancestors()) | {x}))
    key_set = frozenset(keys)
    all_tree = build_view_tree(f"All_{x}", vo_node, key_set, mode, base_factory, namer)
    light_tree = build_view_tree(f"L_{x}", vo_node, key_set, mode, light_factory, namer)
    exists_heavy = Relation(namer.fresh(f"H_{x}"), keys)
    relation_names = frozenset(atom.relation for atom in vo_node.subtree_atoms())
    return IndicatorTriple(
        variable=x,
        keys=keys,
        all_tree=all_tree,
        light_tree=light_tree,
        exists_heavy=exists_heavy,
        relation_names=relation_names,
    )
