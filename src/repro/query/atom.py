"""Query atoms.

An atom ``R(X₁,…,Xₙ)`` pairs a relation symbol with a schema of variables.
Atoms are hashable value objects so they can be used as hypergraph edges,
dictionary keys, and members of ``atoms(X)`` sets exactly as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.data.schema import Schema
from repro.exceptions import SchemaError


@dataclass(frozen=True)
class Atom:
    """A query atom: relation symbol plus ordered tuple of variables."""

    relation: str
    variables: Schema

    def __post_init__(self) -> None:
        object.__setattr__(self, "variables", tuple(self.variables))
        if len(set(self.variables)) != len(self.variables):
            raise SchemaError(
                f"atom {self.relation}({', '.join(self.variables)}) repeats a variable; "
                "self-joins on a single atom are not part of the supported fragment"
            )

    @property
    def arity(self) -> int:
        """Number of variables in the atom."""
        return len(self.variables)

    @property
    def variable_set(self) -> frozenset:
        """The variables as a frozen set (hyperedge view)."""
        return frozenset(self.variables)

    def contains(self, variable: str) -> bool:
        """True when ``variable`` occurs in this atom."""
        return variable in self.variables

    def covers(self, variables) -> bool:
        """True when every variable in ``variables`` occurs in this atom."""
        return set(variables) <= set(self.variables)

    def rename(self, relation: str) -> "Atom":
        """Return a copy of this atom with a different relation symbol."""
        return Atom(relation, self.variables)

    def __str__(self) -> str:
        return f"{self.relation}({', '.join(self.variables)})"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Atom({self.relation!r}, {self.variables!r})"


def atom(relation: str, *variables: str) -> Atom:
    """Convenience constructor: ``atom("R", "A", "B")`` = ``R(A, B)``."""
    return Atom(relation, tuple(variables))
