"""Databases: named collections of relations.

A database is a set of relations (Section 3 of the paper); its size ``N`` is
the sum of the relation sizes.  The class also offers convenience
constructors used by tests, examples, and workload generators.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Optional, Sequence, Tuple

from repro.data.relation import Relation
from repro.data.schema import ValueTuple
from repro.exceptions import UnknownRelationError


#: ``{name: (schema, [(tuple, multiplicity), ...])}`` — a database as plain
#: picklable, JSON-able rows (:meth:`Database.to_rows`, worker pipes,
#: checkpoints, conformance cases).
DatabaseRows = Mapping[str, Tuple[Sequence[str], Iterable[Tuple[Sequence, int]]]]


class Database:
    """A named collection of :class:`~repro.data.relation.Relation` objects."""

    def __init__(self, relations: Optional[Iterable[Relation]] = None) -> None:
        self._relations: Dict[str, Relation] = {}
        for relation in relations or ():
            self.add_relation(relation)

    # ------------------------------------------------------------------
    # construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(
        cls,
        contents: Mapping[str, Tuple[Sequence[str], Iterable[ValueTuple]]],
    ) -> "Database":
        """Build a database from ``{name: (schema, tuples)}``.

        Tuples may be repeated; repetitions accumulate multiplicity, matching
        the bag semantics of the data model.
        """
        database = cls()
        for name, (schema, tuples) in contents.items():
            relation = Relation(name, schema)
            for tup in tuples:
                relation.insert(tuple(tup))
            database.add_relation(relation)
        return database

    @classmethod
    def from_rows(cls, contents: DatabaseRows) -> "Database":
        """Build a database from :meth:`to_rows` output."""
        return cls().add_rows(contents)

    def add_rows(self, contents: DatabaseRows) -> "Database":
        """Apply every ``(tuple, multiplicity)`` row, creating the relations
        that are missing; returns ``self``.

        Rows are applied one by one in the order given: insertion order
        seeds index iteration order and hence enumeration order, which
        recovery promises to reproduce.
        """
        for name, (schema, rows) in contents.items():
            if name in self._relations:
                relation = self._relations[name]
            else:
                relation = self.create_relation(name, tuple(schema))
            for tup, mult in rows:
                relation.apply_delta(tuple(tup), mult)
        return self

    def to_rows(self) -> DatabaseRows:
        """Flatten into picklable primitives (the inverse of :meth:`from_rows`)."""
        return {
            relation.name: (tuple(relation.schema), list(relation.items()))
            for relation in self._relations.values()
        }

    def add_relation(self, relation: Relation) -> None:
        """Register a relation (replacing any previous one with the same name)."""
        self._relations[relation.name] = relation

    def create_relation(self, name: str, schema: Sequence[str]) -> Relation:
        """Create, register, and return an empty relation."""
        relation = Relation(name, schema)
        self.add_relation(relation)
        return relation

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    def relation(self, name: str) -> Relation:
        """Return the relation called ``name`` or raise :class:`UnknownRelationError`."""
        try:
            return self._relations[name]
        except KeyError as exc:
            raise UnknownRelationError(
                f"relation {name!r} is not part of this database "
                f"(available: {sorted(self._relations)})"
            ) from exc

    def __getitem__(self, name: str) -> Relation:
        return self.relation(name)

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def names(self) -> Tuple[str, ...]:
        """Return the relation names in registration order."""
        return tuple(self._relations)

    def relations(self) -> Tuple[Relation, ...]:
        """Return all relations in registration order."""
        return tuple(self._relations.values())

    @property
    def size(self) -> int:
        """Database size ``N``: the sum of the relation sizes."""
        return sum(len(relation) for relation in self._relations.values())

    def copy(self) -> "Database":
        """Return a deep copy of all relations (indexes are not copied)."""
        return Database(relation.copy() for relation in self._relations.values())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        parts = ", ".join(
            f"{relation.name}[{len(relation)}]" for relation in self._relations.values()
        )
        return f"Database({parts})"
