"""Variable orders (Definition 13 of the paper).

A variable order ``ω`` for a conjunctive query is a forest with one node per
variable or atom: the variables of every atom lie on a single root-to-leaf
path, and every atom hangs below its lowest variable.  The function
``dep_ω(X)`` maps a variable to the subset of its ancestors on which the
variables in the subtree rooted at ``X`` depend (i.e. with which they share
an atom).

Hierarchical queries admit *canonical* variable orders — where the inner
nodes of every root-to-leaf path are exactly the variables of the leaf atom —
and the canonical order is unique up to the ordering of variables that share
the same atom set.  This module builds canonical variable orders and exposes
the node/forest API used by the view-tree construction (anc, dep, subtree
variables and atoms, sibling tests) and by the width measures.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, Iterator, List, Optional, Sequence, Tuple

from repro.exceptions import NotHierarchicalError, UnsupportedQueryError
from repro.query.atom import Atom
from repro.query.classes import is_hierarchical
from repro.query.conjunctive import ConjunctiveQuery


class VONode:
    """Base class for variable-order nodes (variables and atoms)."""

    __slots__ = ("parent",)

    def __init__(self) -> None:
        self.parent: Optional["VariableNode"] = None

    def ancestors(self) -> Tuple[str, ...]:
        """Variables on the path from this node to the root (nearest first)."""
        result: List[str] = []
        node = self.parent
        while node is not None:
            result.append(node.variable)
            node = node.parent
        return tuple(result)

    def root(self) -> "VONode":
        """The root of the tree containing this node."""
        node: VONode = self
        while node.parent is not None:
            node = node.parent
        return node


class AtomNode(VONode):
    """A leaf node holding a query atom."""

    __slots__ = ("atom",)

    def __init__(self, atom: Atom) -> None:
        super().__init__()
        self.atom = atom

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AtomNode({self.atom})"


class VariableNode(VONode):
    """An inner node holding a variable and its child subtrees."""

    __slots__ = ("variable", "children")

    def __init__(self, variable: str, children: Optional[List[VONode]] = None) -> None:
        super().__init__()
        self.variable = variable
        self.children: List[VONode] = []
        for child in children or []:
            self.add_child(child)

    def add_child(self, child: VONode) -> None:
        child.parent = self
        self.children.append(child)

    def variable_children(self) -> Tuple["VariableNode", ...]:
        return tuple(c for c in self.children if isinstance(c, VariableNode))

    def subtree_variables(self) -> FrozenSet[str]:
        """All variables in the subtree rooted at this node (including itself)."""
        result = {self.variable}
        for child in self.children:
            if isinstance(child, VariableNode):
                result.update(child.subtree_variables())
        return frozenset(result)

    def subtree_atoms(self) -> Tuple[Atom, ...]:
        """All atoms at the leaves of the subtree rooted at this node."""
        atoms: List[Atom] = []
        for child in self.children:
            if isinstance(child, AtomNode):
                atoms.append(child.atom)
            else:
                atoms.extend(child.subtree_atoms())
        return tuple(atoms)

    def iter_variable_nodes(self) -> Iterator["VariableNode"]:
        """Pre-order iteration over the variable nodes of this subtree."""
        yield self
        for child in self.children:
            if isinstance(child, VariableNode):
                yield from child.iter_variable_nodes()

    def has_sibling(self) -> bool:
        """True when this node's parent has other children (Definition 13 flag)."""
        if self.parent is None:
            return False
        return len(self.parent.children) > 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VariableNode({self.variable!r}, children={len(self.children)})"


class VariableOrder:
    """A variable-order forest for a conjunctive query."""

    def __init__(self, roots: Sequence[VONode], query: ConjunctiveQuery) -> None:
        self.roots: Tuple[VONode, ...] = tuple(roots)
        self.query = query
        self._variable_nodes: Dict[str, VariableNode] = {}
        for root in self.roots:
            if isinstance(root, VariableNode):
                for node in root.iter_variable_nodes():
                    if node.variable in self._variable_nodes:
                        raise UnsupportedQueryError(
                            f"variable {node.variable!r} appears twice in the variable order"
                        )
                    self._variable_nodes[node.variable] = node

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def variables(self) -> FrozenSet[str]:
        return frozenset(self._variable_nodes)

    def atoms(self) -> Tuple[Atom, ...]:
        atoms: List[Atom] = []
        for root in self.roots:
            if isinstance(root, VariableNode):
                atoms.extend(root.subtree_atoms())
            else:
                atoms.append(root.atom)  # type: ignore[union-attr]
        return tuple(atoms)

    def node(self, variable: str) -> VariableNode:
        return self._variable_nodes[variable]

    def iter_variable_nodes(self) -> Iterator[VariableNode]:
        for root in self.roots:
            if isinstance(root, VariableNode):
                yield from root.iter_variable_nodes()

    def ancestors(self, variable: str) -> Tuple[str, ...]:
        """``anc(X)``: variables on the path from X to the root, excluding X."""
        return self.node(variable).ancestors()

    def subtree_variables(self, variable: str) -> FrozenSet[str]:
        return self.node(variable).subtree_variables()

    def subtree_atoms(self, variable: str) -> Tuple[Atom, ...]:
        return self.node(variable).subtree_atoms()

    def dep(self, variable: str) -> FrozenSet[str]:
        """``dep_ω(X)``: ancestors of X occurring in atoms of X's subtree.

        A variable of the subtree rooted at X depends on an ancestor exactly
        when they share an atom; since every atom sits below its lowest
        variable, such atoms are leaves of the subtree, hence the formula
        ``anc(X) ∩ vars(atoms(ω_X))``.
        """
        node = self.node(variable)
        atom_vars: set = set()
        for atom in node.subtree_atoms():
            atom_vars.update(atom.variables)
        return frozenset(set(node.ancestors()) & atom_vars)

    def has_sibling(self, variable: str) -> bool:
        return self.node(variable).has_sibling()

    # ------------------------------------------------------------------
    # structural predicates
    # ------------------------------------------------------------------
    def is_valid(self) -> bool:
        """Check the two conditions of Definition 13.

        (1) every atom's variables lie on a single root-to-leaf path and the
        atom hangs below its lowest variable; (2) the dep condition holds
        (it does by construction of :meth:`dep`, so only (1) is checked).
        """
        order_atoms = set(self.atoms())
        if order_atoms != set(self.query.atoms):
            return False
        for root in self.roots:
            stack: List[VONode] = [root]
            while stack:
                node = stack.pop()
                if isinstance(node, AtomNode):
                    path = set(node.ancestors())
                    if not set(node.atom.variables) <= path:
                        return False
                else:
                    stack.extend(node.children)
        return True

    def is_free_top(self, free_variables: Optional[Iterable[str]] = None) -> bool:
        """True when no bound variable is an ancestor of a free variable."""
        free = set(free_variables) if free_variables is not None else set(
            self.query.free_variables
        )
        for node in self.iter_variable_nodes():
            if node.variable in free:
                if any(anc not in free for anc in node.ancestors()):
                    return False
        return True

    def is_canonical(self) -> bool:
        """True when each leaf atom's variables equal the inner nodes of its path."""
        for root in self.roots:
            stack: List[VONode] = [root]
            while stack:
                node = stack.pop()
                if isinstance(node, AtomNode):
                    if set(node.atom.variables) != set(node.ancestors()):
                        return False
                else:
                    stack.extend(node.children)
        return True

    # ------------------------------------------------------------------
    # misc
    # ------------------------------------------------------------------
    def pretty(self) -> str:
        """Render the forest as an indented string (used in docs and debugging)."""
        lines: List[str] = []

        def render(node: VONode, depth: int) -> None:
            prefix = "  " * depth
            if isinstance(node, AtomNode):
                lines.append(f"{prefix}{node.atom}")
            else:
                lines.append(f"{prefix}{node.variable}")
                for child in node.children:
                    render(child, depth + 1)

        for root in self.roots:
            render(root, 0)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"VariableOrder(roots={len(self.roots)}, vars={sorted(self.variables())})"


# ----------------------------------------------------------------------
# canonical variable order construction
# ----------------------------------------------------------------------
def _order_shared_variables(
    variables: Iterable[str], free: FrozenSet[str]
) -> List[str]:
    """Deterministic ordering of variables sharing one atom set.

    Free variables come first (this makes the canonical order free-top for
    q-hierarchical queries, recovering the linear/constant results without a
    separate transformation) and ties are broken lexicographically.
    """
    return sorted(variables, key=lambda v: (v not in free, v))


def _build_component(
    atoms: Sequence[Atom], ancestors: Tuple[str, ...], free: FrozenSet[str]
) -> VariableNode:
    """Recursively build the canonical order of one connected atom group."""
    ancestor_set = set(ancestors)
    # Variables occurring in every atom of the group (and not used yet).
    shared = set(atoms[0].variables) - ancestor_set
    for atom in atoms[1:]:
        shared &= set(atom.variables)
    if not shared:
        raise NotHierarchicalError(
            "connected atom group without a shared variable; "
            "the query is not hierarchical"
        )
    chain = _order_shared_variables(shared, free)
    top = VariableNode(chain[0])
    bottom = top
    for variable in chain[1:]:
        node = VariableNode(variable)
        bottom.add_child(node)
        bottom = node
    new_ancestors = ancestors + tuple(chain)
    covered = set(new_ancestors)
    # Atoms fully covered by the chain + ancestors become leaf children.
    leaf_atoms = [atom for atom in atoms if set(atom.variables) <= covered]
    remaining = [atom for atom in atoms if set(atom.variables) - covered]
    for atom in leaf_atoms:
        bottom.add_child(AtomNode(atom))
    # Remaining atoms split into connected groups over the uncovered variables.
    for group in _connected_groups(remaining, covered):
        bottom.add_child(_build_component(group, new_ancestors, free))
    return top


def _connected_groups(
    atoms: Sequence[Atom], covered: set
) -> List[List[Atom]]:
    """Group atoms that share a variable outside the covered set."""
    remaining = list(atoms)
    groups: List[List[Atom]] = []
    while remaining:
        seed = remaining.pop(0)
        group = [seed]
        group_vars = set(seed.variables) - covered
        changed = True
        while changed:
            changed = False
            keep: List[Atom] = []
            for atom in remaining:
                if group_vars & (set(atom.variables) - covered):
                    group.append(atom)
                    group_vars |= set(atom.variables) - covered
                    changed = True
                else:
                    keep.append(atom)
            remaining = keep
        groups.append(group)
    return groups


def build_canonical_variable_order(query: ConjunctiveQuery) -> VariableOrder:
    """Build the canonical variable order of a hierarchical query.

    Raises :class:`NotHierarchicalError` for non-hierarchical queries and
    :class:`UnsupportedQueryError` for atoms with empty schemas (the paper's
    footnote 1 excludes them).
    """
    if any(not atom.variables for atom in query.atoms):
        raise UnsupportedQueryError(
            "atoms with empty schemas are outside the supported fragment"
        )
    if not is_hierarchical(query):
        raise NotHierarchicalError(f"query {query} is not hierarchical")
    free = query.free_variables
    roots: List[VONode] = []
    for component in query.connected_components():
        roots.append(_build_component(component.atoms, (), free))
    return VariableOrder(roots, query)
