"""View-tree node classes.

A *view tree* (Section 4 of the paper) is a tree whose leaves reference
relations (base relations, light parts of partitions, or heavy-indicator
relations) and whose inner nodes are materialized views defined over the join
of their children, projected onto the node schema.

The classes here are purely structural: materialization lives in
:mod:`repro.engine.materialize`, enumeration in :mod:`repro.enumeration`, and
maintenance in :mod:`repro.ivm`.  Leaves *share* the underlying
:class:`~repro.data.relation.Relation` objects (base relations, light parts,
and indicator relations are updated exactly once per update by the
maintenance layer), whereas inner views are private to their tree.
"""

from __future__ import annotations

import itertools
from typing import Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from repro.data.relation import Relation
from repro.data.schema import Schema
from repro.query.atom import Atom


class NameGenerator:
    """Generates unique view names within one query plan."""

    def __init__(self) -> None:
        self._counters: Dict[str, itertools.count] = {}

    def fresh(self, base: str) -> str:
        counter = self._counters.setdefault(base, itertools.count())
        return f"{base}#{next(counter)}"


class ViewTreeNode:
    """Base class of view-tree nodes.

    Views carry counting-ring multiplicities; ring aggregates other than
    counting live in the maintained aggregate states fed by the root's
    result deltas (``docs/architecture.md`` §16), not in the tree.
    """

    def __init__(self, name: str, schema: Schema) -> None:
        self.name = name
        self.schema: Schema = tuple(schema)
        # Memos of path_from, shape and the pre-order list of descendants:
        # a tree's shape is fixed once it is built.
        self._paths: Dict[str, Optional[PropagationPath]] = {}
        self._shape: Optional[Shape] = None
        self._descendants: Optional[Tuple["ViewTreeNode", ...]] = None

    # -- structural interface ------------------------------------------------
    @property
    def children(self) -> Tuple["ViewTreeNode", ...]:
        return ()

    def relation(self) -> Relation:
        """The relation holding this node's content (materialized or referenced)."""
        raise NotImplementedError

    def is_leaf(self) -> bool:
        return not self.children

    def leaves(self) -> Iterator["LeafNode"]:
        """All leaf nodes of the subtree, in left-to-right order."""
        if isinstance(self, LeafNode):
            yield self
            return
        for child in self.children:
            yield from child.leaves()

    def nodes(self) -> Iterator["ViewTreeNode"]:
        """All nodes of the subtree in pre-order."""
        yield self
        for child in self.children:
            yield from child.nodes()

    def shape(self) -> "Shape":
        """``(kind, schema, child shapes)`` of the subtree, memoised.

        The kind is ``"view"`` for a node with children, ``"indicator"`` for
        a heavy-indicator leaf and ``"leaf"`` for any other leaf.  It is all
        that :func:`repro.enumeration.plan.compile_enumeration` reads of a
        tree, so trees of equal shape share one compiled plan.
        """
        if self._shape is None:
            if self.children:
                kind = "view"
            else:
                kind = "indicator" if isinstance(self, IndicatorLeaf) else "leaf"
            self._shape = (
                kind,
                self.schema,
                tuple(child.shape() for child in self.children),
            )
        return self._shape

    def relations(self) -> Tuple[Relation, ...]:
        """The relation currently behind every node of the subtree, pre-order.

        Resolved on every call: a major rebalance replaces the relations of
        inner views (:meth:`ViewNode.reset`), never the nodes.
        """
        if self._descendants is None:
            # (without the node itself: the memo is no reference cycle)
            self._descendants = tuple(self.nodes())[1:]
        return (self.relation(), *[node.relation() for node in self._descendants])

    def views(self) -> Iterator["ViewNode"]:
        """All inner (materialized) view nodes of the subtree in pre-order."""
        for node in self.nodes():
            if isinstance(node, ViewNode):
                yield node

    def variables(self) -> FrozenSet[str]:
        """All variables appearing anywhere in the subtree."""
        result = set(self.schema)
        for child in self.children:
            result.update(child.variables())
        return frozenset(result)

    def source_names(self) -> FrozenSet[str]:
        """Names of the relations referenced by the leaves of this subtree."""
        return frozenset(leaf.source_name for leaf in self.leaves())

    def path_from(self, source_name: str) -> Optional["PropagationPath"]:
        """The leaf-to-root path a change of ``source_name`` travels.

        ``None`` when no leaf of this subtree references the relation;
        otherwise the first such leaf in left-to-right order (a relation
        occurs at most once per tree, footnote 2) and, for every view from
        its parent up to this node, the view with the children that did not
        change.  Computed on first use and memoised.
        """
        try:
            return self._paths[source_name]
        except KeyError:
            pass
        path: Optional[PropagationPath] = None
        if isinstance(self, LeafNode):
            if self.source_name == source_name:
                path = (self, ())
        else:
            for child in self.children:
                below = child.path_from(source_name)
                if below is not None:
                    siblings = tuple(c for c in self.children if c is not child)
                    path = (below[0], below[1] + ((self, siblings),))
                    break
        self._paths[source_name] = path
        return path

    def pretty(self, indent: int = 0) -> str:
        """Render the tree as an indented string (used by ``explain`` and docs)."""
        pad = "  " * indent
        lines = [f"{pad}{self.name}({', '.join(self.schema)})"]
        for child in self.children:
            lines.append(child.pretty(indent + 1))
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}({self.name!r}, schema={self.schema!r})"


#: ``(kind, schema, child shapes)`` — see :meth:`ViewTreeNode.shape`.
Shape = Tuple[str, Schema, Tuple]

#: ``(changed leaf, ((view, unchanged children), …) from the leaf's parent up)``.
PropagationPath = Tuple[
    "LeafNode", Tuple[Tuple["ViewNode", Tuple[ViewTreeNode, ...]], ...]
]


class LeafNode(ViewTreeNode):
    """A leaf referencing a shared relation object.

    ``source_name`` identifies the referenced relation for the maintenance
    layer; ``schema`` names the columns with the query variables of the atom
    the leaf stands for (the stored relation may use different column names —
    the mapping is positional).
    """

    def __init__(self, name: str, schema: Schema, relation: Relation) -> None:
        super().__init__(name, schema)
        self._relation = relation

    def relation(self) -> Relation:
        return self._relation

    @property
    def source_name(self) -> str:
        return self._relation.name

    def copy(self) -> "LeafNode":
        """Leaves are shared by design; copying returns a new node wrapper."""
        return type(self)(self.name, self.schema, self._relation)


class RelationLeaf(LeafNode):
    """A leaf referencing a base relation through a query atom."""

    def __init__(self, atom: Atom, relation: Relation) -> None:
        super().__init__(str(atom), atom.variables, relation)
        self.atom = atom

    def copy(self) -> "RelationLeaf":
        return RelationLeaf(self.atom, self._relation)


class LightPartLeaf(LeafNode):
    """A leaf referencing the light part ``R^keys`` of a partitioned relation."""

    def __init__(self, atom: Atom, partition) -> None:
        # `partition` is a repro.data.partition.Partition; typed loosely to
        # avoid an import cycle with the data layer.
        super().__init__(
            f"{partition.light.name}({', '.join(atom.variables)})",
            atom.variables,
            partition.light,
        )
        self.atom = atom
        self.partition = partition

    def copy(self) -> "LightPartLeaf":
        return LightPartLeaf(self.atom, self.partition)


class IndicatorLeaf(LeafNode):
    """A leaf referencing a heavy-indicator relation ``∃H`` (set semantics)."""

    def __init__(self, schema: Schema, relation: Relation) -> None:
        super().__init__(f"∃{relation.name}", tuple(schema), relation)

    def copy(self) -> "IndicatorLeaf":
        return IndicatorLeaf(self.schema, self._relation)


class ViewNode(ViewTreeNode):
    """An inner node: a materialized view over the join of its children."""

    def __init__(
        self,
        name: str,
        schema: Schema,
        children: Sequence[ViewTreeNode],
        is_aux: bool = False,
    ) -> None:
        super().__init__(name, schema)
        self._children: Tuple[ViewTreeNode, ...] = tuple(children)
        self.is_aux = is_aux
        self._relation = Relation(name, schema)

    @property
    def children(self) -> Tuple[ViewTreeNode, ...]:
        return self._children

    def relation(self) -> Relation:
        return self._relation

    def reset(self) -> None:
        """Discard the materialized content (used by major rebalancing)."""
        self._relation = Relation(self.name, self.schema)

    def copy(self, namer: Optional[NameGenerator] = None) -> "ViewNode":
        """Deep-copy the inner view structure; leaves stay shared.

        Skew-aware construction assembles several top-level trees from
        combinations of child strategies; each top-level tree needs private
        inner views (they receive delta propagation independently) while
        leaves deliberately reference the same base/light/indicator
        relations.
        """
        new_children = []
        for child in self._children:
            if isinstance(child, ViewNode):
                new_children.append(child.copy(namer))
            else:
                new_children.append(child.copy())  # type: ignore[attr-defined]
        name = namer.fresh(self.name.split("#")[0]) if namer else self.name
        return ViewNode(name, self.schema, new_children, is_aux=self.is_aux)
