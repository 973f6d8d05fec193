"""Query hypergraphs, GYO reduction, α-acyclicity, and join trees.

The hypergraph of a query has one node per variable and one hyperedge per
atom (Section 3).  α-acyclicity is decided with the GYO (Graham / Yu–Özsoyoğlu)
reduction: repeatedly remove *ear* hyperedges (edges whose variables are
either private to the edge or contained in another edge) and isolated
variables; the query is α-acyclic iff the reduction empties the hypergraph.
A join tree is produced as a by-product of the reduction, which the tests use
to validate the free-connex characterisation (the paper's definition via a
join tree including the head atom); it is a plain dict, checked with a
breadth-first search.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.query.conjunctive import ConjunctiveQuery

#: A join tree: every atom label ``R#i`` maps to ``(variables, neighbours)``.
JoinTree = Dict[str, Tuple[FrozenSet[str], Set[str]]]


@dataclass
class Hypergraph:
    """A multiset of named hyperedges over a set of vertices."""

    edges: Dict[str, FrozenSet[str]] = field(default_factory=dict)

    @classmethod
    def from_query(cls, query: ConjunctiveQuery) -> "Hypergraph":
        """Build the hypergraph of a query; edge names follow atom positions."""
        edges: Dict[str, FrozenSet[str]] = {}
        for i, atom in enumerate(query.atoms):
            edges[f"{atom.relation}#{i}"] = atom.variable_set
        return cls(edges)

    @classmethod
    def from_edge_sets(cls, edge_sets: Iterable[Iterable[str]]) -> "Hypergraph":
        """Build a hypergraph from anonymous variable sets."""
        return cls({f"e{i}": frozenset(edge) for i, edge in enumerate(edge_sets)})

    @property
    def vertices(self) -> FrozenSet[str]:
        result: set = set()
        for edge in self.edges.values():
            result.update(edge)
        return frozenset(result)

    def add_edge(self, name: str, variables: Iterable[str]) -> None:
        self.edges[name] = frozenset(variables)

    def copy(self) -> "Hypergraph":
        return Hypergraph(dict(self.edges))

    # ------------------------------------------------------------------
    # GYO reduction
    # ------------------------------------------------------------------
    def gyo_reduction(self) -> Tuple["Hypergraph", List[Tuple[str, Optional[str]]]]:
        """Run the GYO reduction.

        Returns the (possibly non-empty) residual hypergraph and the list of
        ear eliminations performed, as pairs ``(removed_edge, witness_edge)``
        where the witness is the edge the ear was absorbed into (``None`` for
        the last remaining edge).
        """
        edges: Dict[str, set] = {name: set(vs) for name, vs in self.edges.items()}
        eliminations: List[Tuple[str, Optional[str]]] = []
        changed = True
        while changed and len(edges) > 1:
            changed = False
            # remove vertices that occur in exactly one edge
            occurrence: Dict[str, List[str]] = {}
            for name, vs in edges.items():
                for v in vs:
                    occurrence.setdefault(v, []).append(name)
            for v, owners in occurrence.items():
                if len(owners) == 1:
                    edges[owners[0]].discard(v)
                    changed = True
            # remove edges contained in other edges (ears)
            names = list(edges)
            for name in names:
                if name not in edges:
                    continue
                for other in edges:
                    if other == name:
                        continue
                    if edges[name] <= edges[other]:
                        eliminations.append((name, other))
                        del edges[name]
                        changed = True
                        break
        if len(edges) == 1:
            last = next(iter(edges))
            eliminations.append((last, None))
            edges = {}
        residual = Hypergraph({name: frozenset(vs) for name, vs in edges.items()})
        return residual, eliminations

    def is_alpha_acyclic(self) -> bool:
        """True when the GYO reduction empties the hypergraph."""
        if not self.edges:
            return True
        residual, _ = self.gyo_reduction()
        return not residual.edges


def is_alpha_acyclic(query: ConjunctiveQuery) -> bool:
    """α-acyclicity of a conjunctive query via GYO reduction."""
    return Hypergraph.from_query(query).is_alpha_acyclic()


def is_free_connex(query: ConjunctiveQuery) -> bool:
    """Free-connex test.

    A query is free-connex iff it is α-acyclic and remains α-acyclic after
    adding an atom over exactly its free variables (Brault-Baron's
    characterisation, used in the paper's Appendix B.3 and D).  Queries with
    an empty head are free-connex exactly when they are α-acyclic.
    """
    graph = Hypergraph.from_query(query)
    if not graph.is_alpha_acyclic():
        return False
    if not query.head:
        return True
    extended = graph.copy()
    extended.add_edge("__head__", query.head)
    return extended.is_alpha_acyclic()


def join_tree(query: ConjunctiveQuery) -> Optional[JoinTree]:
    """Return a join tree of an α-acyclic query, or ``None`` if cyclic.

    The join tree is built by connecting each eliminated ear to its witness
    edge from the GYO reduction; by construction it satisfies the running
    intersection property.  Nodes are atom labels ``R#i``.
    """
    graph = Hypergraph.from_query(query)
    residual, eliminations = graph.gyo_reduction()
    if residual.edges:
        return None
    tree: JoinTree = {name: (variables, set()) for name, variables in graph.edges.items()}
    for removed, witness in eliminations:
        if witness is not None:
            tree[removed][1].add(witness)
            tree[witness][1].add(removed)
    return tree


def verify_running_intersection(tree: JoinTree) -> bool:
    """Check the running-intersection property of a candidate join tree.

    For every variable, the nodes whose edge contains it must induce a
    connected subtree: a breadth-first search from one of them, through
    them only, reaches them all.  Used by tests to validate :func:`join_tree`.
    """
    variables = set().union(*(names for names, _ in tree.values()))
    for variable in variables:
        holders = {label for label, (names, _) in tree.items() if variable in names}
        start = next(iter(holders))
        reached, frontier = {start}, deque([start])
        while frontier:
            for neighbour in (tree[frontier.popleft()][1] & holders) - reached:
                reached.add(neighbour)
                frontier.append(neighbour)
        if reached != holders:
            return False
    return True
