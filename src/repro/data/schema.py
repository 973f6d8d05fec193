"""Schemas and tuple manipulation helpers.

A *schema* is an ordered tuple of distinct variable names; a *tuple* over a
schema is a plain Python tuple of the same length whose i-th component is the
value of the i-th variable.  The paper (Section 3, "Data Model") treats
schemas and variable sets interchangeably assuming a fixed ordering; this
module is the single place that fixes the ordering conventions used by the
rest of the library.

All functions here are pure and allocation-light: they are called inside the
inner loops of joins, delta propagation, and enumeration.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Dict, Iterable, Mapping, Sequence, Tuple

from repro.exceptions import SchemaError

# A schema is an ordered tuple of variable names.
Schema = Tuple[str, ...]
# A value tuple aligned with some schema.
ValueTuple = Tuple[object, ...]


def make_schema(variables: Iterable[str]) -> Schema:
    """Return a schema tuple from an iterable of variable names.

    Raises :class:`SchemaError` if a variable is repeated: schemas are sets
    with a fixed ordering, so duplicates are always a caller bug.
    """
    schema = tuple(variables)
    if len(set(schema)) != len(schema):
        raise SchemaError(f"duplicate variables in schema {schema!r}")
    return schema


def positions(source: Schema, target: Schema) -> Tuple[int, ...]:
    """Return the positions of ``target`` variables inside ``source``.

    The result can be used to project tuples over ``source`` onto ``target``
    with a single tuple comprehension.  Raises :class:`SchemaError` if a
    target variable is missing from the source schema.
    """
    index = {var: i for i, var in enumerate(source)}
    try:
        return tuple(index[var] for var in target)
    except KeyError as exc:
        raise SchemaError(
            f"variable {exc.args[0]!r} not found in schema {source!r}"
        ) from exc


def project(tup: ValueTuple, source: Schema, target: Schema) -> ValueTuple:
    """Project ``tup`` (over ``source``) onto ``target``.

    The values in the result follow the ordering of ``target``, matching the
    paper's ``x[S]`` notation.
    """
    pos = positions(source, target)
    return tuple(tup[i] for i in pos)


class Projector:
    """A reusable projection from one schema onto another.

    Precomputes the index positions once so projecting many tuples (the hot
    path in joins and delta propagation) avoids repeated dictionary lookups;
    ``key_of`` is the projection itself as a C-level callable, for loops that
    want no method frame per tuple.  Tuples in, tuples out.
    """

    __slots__ = ("source", "target", "key_of")

    def __init__(self, source: Schema, target: Schema) -> None:
        self.source = source
        self.target = target
        # A run of consecutive positions (zero and one included) is one
        # slice, anything else an itemgetter: no Python frame per call.
        pos = positions(source, target)
        start = pos[0] if pos else 0
        if pos == tuple(range(start, start + len(pos))):
            self.key_of = itemgetter(slice(start, start + len(pos)))
        else:
            self.key_of = itemgetter(*pos)

    def __call__(self, tup: ValueTuple) -> ValueTuple:
        return self.key_of(tup)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Projector({self.source!r} -> {self.target!r})"


def tuple_to_dict(tup: ValueTuple, schema: Schema) -> Dict[str, object]:
    """Return a variable → value mapping for ``tup`` over ``schema``."""
    if len(tup) != len(schema):
        raise SchemaError(
            f"tuple {tup!r} has arity {len(tup)}, schema {schema!r} expects {len(schema)}"
        )
    return dict(zip(schema, tup))


def dict_to_tuple(assignment: Mapping[str, object], schema: Schema) -> ValueTuple:
    """Return the tuple over ``schema`` described by ``assignment``.

    Raises :class:`SchemaError` when a schema variable is missing from the
    assignment.
    """
    try:
        return tuple(assignment[var] for var in schema)
    except KeyError as exc:
        raise SchemaError(
            f"assignment is missing variable {exc.args[0]!r} required by {schema!r}"
        ) from exc


def merge_assignments(
    base: Mapping[str, object], extra: Mapping[str, object]
) -> Dict[str, object]:
    """Merge two variable assignments, verifying they agree on shared variables."""
    merged = dict(base)
    for var, value in extra.items():
        if var in merged and merged[var] != value:
            raise SchemaError(
                f"conflicting values for variable {var!r}: {merged[var]!r} vs {value!r}"
            )
        merged[var] = value
    return merged


def union_schema(first: Schema, second: Schema) -> Schema:
    """Return the union of two schemas, keeping the order of first appearance."""
    seen = dict.fromkeys(first)
    for var in second:
        seen.setdefault(var, None)
    return tuple(seen)


def intersect_schema(first: Schema, second: Schema) -> Schema:
    """Return the variables of ``first`` that also appear in ``second``."""
    second_set = set(second)
    return tuple(var for var in first if var in second_set)


def difference_schema(first: Schema, second: Schema) -> Schema:
    """Return the variables of ``first`` that do not appear in ``second``."""
    second_set = set(second)
    return tuple(var for var in first if var not in second_set)


def is_subschema(small: Sequence[str], big: Sequence[str]) -> bool:
    """Return ``True`` when every variable of ``small`` appears in ``big``."""
    return set(small) <= set(big)


def ordered(variables: Iterable[str]) -> Schema:
    """Return a deterministic (sorted) schema for an unordered variable set.

    Used whenever the paper treats a set of variables as a schema (for
    example the ``keys`` of a partition); sorting makes view definitions and
    test expectations reproducible.
    """
    return tuple(sorted(set(variables)))
