"""Bottom-up materialization of view trees (the preprocessing stage).

Preprocessing (Section 4, Proposition 21) materializes every view of every
view tree produced by the skew-aware construction.  The order matters:

1. the light parts of all partitions are (re)computed with the strict
   threshold ``θ``;
2. the ``All`` and ``L`` indicator trees are materialized (they only read
   base relations and light parts);
3. the heavy-indicator supports ``∃H`` are derived from the indicator roots;
4. the skew-aware strategy trees are materialized (they may read base
   relations, light parts, and ``∃H`` leaves).
"""

from __future__ import annotations

from typing import Iterable

from repro.engine.join import join_children
from repro.views.indicators import IndicatorTriple
from repro.views.skew import SkewAwarePlan
from repro.views.view import ViewNode, ViewTreeNode


def materialize_tree(tree: ViewTreeNode) -> None:
    """Materialize every inner view of ``tree`` bottom-up."""
    for child in tree.children:
        materialize_tree(child)
    if isinstance(tree, ViewNode):
        tree.reset()
        children = [(child.schema, child.relation()) for child in tree.children]
        content = join_children(children, tree.schema)
        tree.relation().apply_deltas(content.items())


def materialize_indicator_triple(triple: IndicatorTriple) -> None:
    """Materialize the All and L trees of a triple and derive ``∃H``."""
    materialize_tree(triple.all_tree)
    materialize_tree(triple.light_tree)
    triple.rebuild_support()


def materialize_plan(plan: SkewAwarePlan, threshold: float) -> None:
    """Run the full preprocessing stage for a skew-aware plan."""
    for partition in plan.partitions:
        partition.strict_repartition(threshold)
    for triple in plan.indicator_triples:
        materialize_indicator_triple(triple)
    for tree in plan.all_trees():
        materialize_tree(tree)


def total_view_size(plan: SkewAwarePlan) -> int:
    """Total number of tuples stored across all materialized views.

    This is the "extra space" column of the paper's comparison tables and is
    reported by the benchmark harness.
    """
    size = 0
    seen = set()
    trees: Iterable[ViewTreeNode] = list(plan.all_trees())
    for triple in plan.indicator_triples:
        trees = list(trees) + [triple.all_tree, triple.light_tree]
        if id(triple.exists_heavy) not in seen:
            seen.add(id(triple.exists_heavy))
            size += len(triple.exists_heavy)
    for tree in trees:
        for view in tree.views():
            if id(view.relation()) not in seen:
                seen.add(id(view.relation()))
                size += len(view.relation())
    for partition in plan.partitions:
        if id(partition.light) not in seen:
            seen.add(id(partition.light))
            size += len(partition.light)
    return size
