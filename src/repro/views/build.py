"""View-tree construction: ``NewVT``, ``AuxView``, and ``BuildVT``.

These are direct implementations of Figures 6–8 of the paper:

* :func:`new_view_tree` (Figure 7) creates a view node over child trees —
  or returns the single child unchanged when it already has the requested
  schema;
* :func:`aux_view` (Figure 8) inserts, in dynamic mode, an auxiliary view
  that aggregates a child's subtree down to the child's ancestor variables so
  that updates arriving through siblings only need constant-time lookups;
* :func:`build_view_tree` (Figure 6) builds the view tree that encodes the
  result of a (residual) query over a canonical variable order.

The functions are parameterised by a *leaf factory* mapping atoms to leaf
nodes, which is how the same code builds trees over base relations (``R``)
and over light parts (``R^keys``) without duplicating logic.
"""

from __future__ import annotations

from typing import Callable, FrozenSet, Iterable, List, Sequence

from repro.data.schema import Schema
from repro.vo.variable_order import AtomNode, VariableNode, VONode
from repro.views.view import LeafNode, NameGenerator, ViewNode, ViewTreeNode

# A leaf factory maps a query atom to a leaf node referencing its relation.
LeafFactory = Callable[[object], LeafNode]

STATIC_MODE = "static"
DYNAMIC_MODE = "dynamic"


def _ordered_schema(variables: Iterable[str]) -> Schema:
    """Deterministic (sorted) schema for a set of variables."""
    return tuple(sorted(set(variables)))


def new_view_tree(
    name: str,
    schema: Iterable[str],
    subtrees: Sequence[ViewTreeNode],
    namer: NameGenerator,
    is_aux: bool = False,
) -> ViewTreeNode:
    """``NewVT`` (Figure 7).

    When there is a single subtree whose root already has exactly the
    requested schema, that subtree is returned unchanged; otherwise a new
    view node over the subtrees is created.
    """
    schema = _ordered_schema(schema)
    if len(subtrees) == 1 and set(subtrees[0].schema) == set(schema):
        return subtrees[0]
    return ViewNode(namer.fresh(name), schema, subtrees, is_aux=is_aux)


def aux_view(
    vo_child: VONode,
    tree: ViewTreeNode,
    mode: str,
    namer: NameGenerator,
) -> ViewTreeNode:
    """``AuxView`` (Figure 8).

    In dynamic mode, when the child node ``Z`` of the variable order has a
    sibling and its ancestor set is a proper subset of the root schema of the
    tree constructed for it, an auxiliary view with schema ``anc(Z)`` is
    placed on top.  This is what enables constant-time update propagation
    through siblings (Section 6.1).
    """
    if mode != DYNAMIC_MODE:
        return tree
    ancestors = set(vo_child.ancestors())
    has_sibling = vo_child.parent is not None and len(vo_child.parent.children) > 1
    root_schema = set(tree.schema)
    if has_sibling and ancestors < root_schema:
        return new_view_tree(
            f"{tree.name.split('#')[0]}'",
            ancestors,
            [tree],
            namer,
            is_aux=True,
        )
    return tree


def build_view_tree(
    prefix: str,
    vo_node: VONode,
    free: FrozenSet[str],
    mode: str,
    leaf_factory: LeafFactory,
    namer: NameGenerator,
) -> ViewTreeNode:
    """``BuildVT`` (Figure 6): the view tree encoding a residual query result.

    ``free`` is the set of variables treated as free for this construction
    (the ``F`` parameter of the figure — it may include bound query
    variables that an enclosing skew-aware strategy treats as free).
    """
    if isinstance(vo_node, AtomNode):
        return leaf_factory(vo_node.atom)
    assert isinstance(vo_node, VariableNode)
    x = vo_node.variable
    ancestors = set(vo_node.ancestors())
    child_trees: List[ViewTreeNode] = [
        build_view_tree(prefix, child, free, mode, leaf_factory, namer)
        for child in vo_node.children
    ]
    if ancestors | {x} <= free:
        schema = ancestors | {x}
        subtrees = [
            aux_view(child, tree, mode, namer)
            for child, tree in zip(vo_node.children, child_trees)
        ]
        return new_view_tree(f"{prefix}_{x}", schema, subtrees, namer)
    subtree_vars = vo_node.subtree_variables()
    schema = ancestors | (free & subtree_vars)
    return new_view_tree(f"{prefix}_{x}", schema, child_trees, namer)


def make_relation_leaf_factory(database, query) -> LeafFactory:
    """Leaf factory over the base relations of a database.

    Raised errors are deferred to the planner which validates relation
    presence before building trees.
    """
    from repro.views.view import RelationLeaf

    def factory(atom) -> LeafNode:
        return RelationLeaf(atom, database.relation(atom.relation))

    return factory


def make_light_part_leaf_factory(database, registry, keys) -> LeafFactory:
    """Leaf factory over light parts ``R^keys`` registered in ``registry``.

    ``keys`` are query variables; they are translated positionally into the
    column names of each atom's stored relation before the partition is
    created, so stored relations may use arbitrary column names.
    """
    from repro.views.view import LightPartLeaf

    def factory(atom) -> LeafNode:
        relation = database.relation(atom.relation)
        columns = [
            relation.schema[atom.variables.index(variable)]
            for variable in keys
            if variable in atom.variables
        ]
        partition = registry.get_or_create(relation, columns)
        return LightPartLeaf(atom, partition)

    return factory
