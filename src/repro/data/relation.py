"""Multiplicity-annotated relations with secondary indexes.

This module implements the data-structure contract of Section 3 of the paper
("Computational Model"):

* a relation ``R`` over schema ``X`` stores key-value entries ``(x, R(x))``
  for every tuple ``x`` with non-zero multiplicity, supports constant-time
  lookups, inserts and deletes, constant-delay enumeration of its entries,
  and constant-time reporting of ``|R|``;
* for any sub-schema ``S ⊂ X`` an index can (4) enumerate all tuples in
  ``σ_{S=t} R`` with constant delay, (5) check ``t ∈ π_S R`` in constant
  time, (6) return ``|σ_{S=t} R|`` in constant time, and (7) insert and
  delete index entries in constant time.

The layout is that construction as written: a dict of tuples to
multiplicities plus dict-of-dict indexes.  Python dictionaries preserve
insertion order and give amortized O(1) lookup/insert/delete, which matches
the hash-table-with-chaining construction of the paper up to amortization.
Dict equality is Python equality, so ``1``, ``1.0`` and ``True`` are one key
in the relation and in every index.

**One write loop.**  Every content change — view, base and light-part
writes, rebalance moves, materialisation, snapshot replay, checkpoint load —
goes through :meth:`Relation.apply_deltas` (:meth:`Relation.apply_delta` is
its one-entry case): per entry one dict update, a redo-log append while a
log is kept, and per index a C-level key projection and a group update.

**What order depends on.**  The relation enumerates in insertion order; a
tuple deleted and inserted again moves to the end.  A group lists its
members in the relation's order restricted to the group, whether its index
was built now, maintained since long ago, or copied
(:meth:`Relation.copy_with_indexes`): building walks ``_data`` in order,
maintaining appends on insert (where ``_data`` also appends) and pops on
delete.  Only the order of an index's *keys* remembers history — a group
that partially empties keeps its position, where a fresh build orders keys
by first occurrence — which is why retuning calls
:meth:`Relation.invalidate_indexes`.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple

from repro.data.schema import (
    Projector,
    Schema,
    ValueTuple,
    is_subschema,
    make_schema,
)
from repro.exceptions import RejectedUpdateError, SchemaError


# Snapshot copy-on-write refreshes a cached frozen copy by replaying its redo
# log or by copying the relation, whichever :func:`cow_replay_weights` finds
# cheaper, in units of one tuple of a plain ``dict.copy``: a replayed entry
# costs COW_REPLAY_RATIO, and as much again per index it maintains; a copied
# tuple 1, plus COW_INDEX_COPY_COST per index.  CPython 3.11 on a 2-vCPU Xeon
# VM, a churned binary relation, index 1 on B (20-tuple groups), index 2 on A
# (one-tuple groups), logs of n/16 entries (half deletes), best of 7:
#
#   tuples  indexes  copy ns/tuple  replay ns/entry  break-even log
#    1 500     0           8.4            300            n/36
#    1 500     1          71              808            n/11
#    1 500     2         307            1 291            n/4.2
#   10 000     0          10.1            353            n/35
#   10 000     1          73              960            n/13
#   10 000     2         560            2 000            n/3.6
#  140 000     0          29.6            892            n/30
#  140 000     1         130            1 508            n/12
#  140 000     2         666            2 747            n/4.1
#
# The rule's bound is n/32 with no index, n * 6/64 = n/10.7 with one, and
# n/8.7 with two, where the one-tuple groups make copies dearer than it says.
COW_REPLAY_RATIO = 32
COW_INDEX_COPY_COST = 5


def cow_replay_weights(relation: "Relation") -> Tuple[int, int]:
    """``(replay, copy)``: a redo log of ``e`` entries is replayed onto
    ``relation``'s cached frozen copy, rather than ``relation`` copied, iff
    ``e * replay <= len(relation) * copy``.  Both sides pay for each index
    the cached copy holds: replay maintains it, a copy carries it
    (:meth:`Relation.copy_with_indexes`) or leaves it for its next reader to
    rebuild, which costs no less.  The one rule of :meth:`Relation.apply_deltas`
    (keep the log?) and ``CowTracker._frozen_copy`` (replay it?)."""
    cached = relation._cow_cache
    indexes = len(cached[1]._indexes) if cached is not None else 0
    return COW_REPLAY_RATIO * (1 + indexes), 1 + COW_INDEX_COPY_COST * indexes


class Index:
    """A secondary index of a relation on a sub-schema.

    Maps every key tuple ``t`` over the index schema to the group of full
    tuples of the relation that agree with ``t``, stored as an
    insertion-ordered dict which plays the role of the doubly-linked list of
    the paper (constant-delay enumeration, constant-time removal).
    """

    __slots__ = ("schema", "key_schema", "key_of", "_groups", "_data")

    def __init__(
        self,
        schema: Schema,
        key_schema: Schema,
        data: Optional[Mapping[ValueTuple, int]] = None,
    ) -> None:
        if not is_subschema(key_schema, schema):
            raise SchemaError(
                f"index schema {key_schema!r} is not a subset of {schema!r}"
            )
        self.schema = schema
        self.key_schema = key_schema
        # Full tuple -> key tuple, a C-level callable (Projector.key_of).
        self.key_of = Projector(schema, key_schema).key_of
        # key tuple -> {full tuple: None}
        self._groups: Dict[ValueTuple, Dict[ValueTuple, None]] = {}
        # The owning relation's tuple -> multiplicity map, read (never
        # written) by group_items; a free-standing index has none.  Holding
        # the map rather than the relation keeps relation and index free of
        # a reference cycle, so a dropped relation is freed by refcount.
        self._data: Mapping[ValueTuple, int] = {} if data is None else data

    def add(self, tup: ValueTuple) -> None:
        """Register ``tup`` under its key (idempotent)."""
        key = self.key_of(tup)
        group = self._groups.get(key)
        if group is None:
            self._groups[key] = {tup: None}
        else:
            group[tup] = None

    def remove(self, tup: ValueTuple) -> None:
        """Remove ``tup`` from its key group (no-op if absent)."""
        key = self.key_of(tup)
        group = self._groups.get(key)
        if group is None:
            return
        group.pop(tup, None)
        if not group:
            del self._groups[key]

    def contains_key(self, key: ValueTuple) -> bool:
        """Constant-time test ``key ∈ π_S R``."""
        return key in self._groups

    def group(self, key: ValueTuple) -> Iterable[ValueTuple]:
        """Constant-delay enumeration of ``σ_{S=key} R``."""
        return self._groups.get(key, {}).keys()

    def group_items(self, key: ValueTuple) -> Iterator[Tuple[ValueTuple, int]]:
        """Constant-delay ``(tuple, multiplicity)`` entries of ``σ_{S=key} R``."""
        data = self._data
        for tup in self._groups.get(key, ()):
            yield tup, data[tup]

    def group_size(self, key: ValueTuple) -> int:
        """Constant-time ``|σ_{S=key} R|`` (number of distinct tuples)."""
        group = self._groups.get(key)
        return len(group) if group is not None else 0

    def keys(self) -> Iterable[ValueTuple]:
        """Enumerate the distinct key values ``π_S R``."""
        return self._groups.keys()

    def num_keys(self) -> int:
        """Constant-time ``|π_S R|``."""
        return len(self._groups)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Index({self.key_schema!r}, keys={len(self._groups)})"


@contextmanager
def storage_backend(name: str):
    """Accept the one storage layout by name; anything else is a ValueError.

    A no-op kept because ``benchmarks/e2e/trace.py`` still names the layout;
    it leaves together with ``EngineServer``'s ``mode`` parameter (ROADMAP
    item 2(d)).
    """
    if name != "dict":
        raise ValueError(f"unknown storage backend {name!r}; the one layout is 'dict'")
    yield


class Relation:
    """A finite map from tuples to strictly positive multiplicities.

    The relation also owns any number of secondary index objects, created on
    demand via :meth:`ensure_index` and kept consistent by all mutating
    operations.
    """

    def __init__(
        self,
        name: str,
        schema: Iterable[str],
        tuples: Optional[Mapping[ValueTuple, int]] = None,
    ) -> None:
        self.name = name
        self.schema: Schema = make_schema(schema)
        self._data: Dict[ValueTuple, int] = {}
        self._indexes: Dict[Schema, Index] = {}
        # Copy-on-write hooks of repro.snapshot.cow: the tracker once a
        # capture registered it, the last epoch preserved at, a change
        # counter, the cached frozen copy as ``(change_ticks, Relation)`` and
        # its redo log, one ``(tuple, delta)`` per tick since the copy.
        self._cow = None
        self._cow_epoch = -1
        self._change_ticks = 0
        self._cow_cache: Optional[Tuple[int, "Relation"]] = None
        self._cow_log: Optional[list] = None
        if tuples:
            self.apply_deltas(tuples.items())

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of variables in the schema."""
        return len(self.schema)

    def __len__(self) -> int:
        """Number of distinct tuples with non-zero multiplicity (``|R|``)."""
        return len(self._data)

    def __contains__(self, tup: ValueTuple) -> bool:
        return tup in self._data

    def __iter__(self) -> Iterator[ValueTuple]:
        return iter(self._data)

    def multiplicity(self, tup: ValueTuple) -> int:
        """Return ``R(x)``; 0 when the tuple is absent."""
        return self._data.get(tup, 0)

    def items(self) -> Iterable[Tuple[ValueTuple, int]]:
        """Enumerate ``(tuple, multiplicity)`` entries with constant delay."""
        return self._data.items()

    def tuples(self) -> Iterable[ValueTuple]:
        """Enumerate the tuples with non-zero multiplicity."""
        return self._data.keys()

    def total_multiplicity(self) -> int:
        """Sum of all multiplicities (useful for COUNT-style assertions)."""
        return sum(self._data.values())

    def copy(self, name: Optional[str] = None) -> "Relation":
        """Return a deep copy of the relation content (indexes not copied).

        ``dict.copy`` clones the hash table in one pass (1.7 ms for 140k
        pairs that have seen deletes, where ``update`` re-inserts each: 11.6).
        """
        clone = Relation(name or self.name, self.schema)
        clone._data = self._data.copy()  # no index holds the fresh map yet
        return clone

    def copy_with_indexes(self, key_schemas: Iterable[Schema]) -> "Relation":
        """:meth:`copy`, plus a copy of every index held on one of ``key_schemas``.

        ``key_schemas`` are normalised key schemas (keys of another copy's
        ``_indexes``); one this relation holds no index on is left for the
        copy's first reader to build.  A carried index lists each group in
        the order a fresh build would, its *keys* in this relation's
        historical order (see the module docstring).
        """
        clone = self.copy()
        for key in key_schemas:
            index = self._indexes.get(key)
            if index is not None:
                carried = Index(self.schema, key, clone._data)
                carried._groups = {
                    value: dict(group) for value, group in index._groups.items()
                }
                clone._indexes[key] = carried
        return clone

    def clear(self) -> None:
        """Remove all tuples and index entries."""
        self._cow_guard()
        if self._data:
            self._change_ticks += 1
        self._data.clear()
        for index in self._indexes.values():
            index._groups.clear()

    def _cow_guard(self) -> None:
        """Preserve the pre-mutation content into every active snapshot.

        Runs before the first mutation after each snapshot capture (the
        tracker bumps its epoch per capture); all later mutations in the
        same epoch skip the tracker entirely, so the steady-state cost is
        one attribute load and an int comparison per mutation.
        """
        cow = self._cow
        if cow is not None and self._cow_epoch != cow.epoch:
            cow.preserve(self)
            self._cow_epoch = cow.epoch

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def check_arity(self, tup: ValueTuple) -> None:
        """Raise :class:`SchemaError` unless ``tup`` has the schema's arity."""
        if len(tup) != len(self.schema):
            raise SchemaError(
                f"tuple {tup!r} has arity {len(tup)} but relation {self.name!r} "
                f"has schema {self.schema!r}"
            )

    def apply_deltas(self, pairs: Iterable[Tuple[ValueTuple, int]]) -> None:
        """Apply each ``(tuple, delta)`` of ``pairs`` in order: the one write loop.

        Each entry behaves as :meth:`apply_delta` alone would (arity check,
        rejection with the entries before it applied, one tick, one redo-log
        entry, every index maintained); the copy-on-write guard and the index
        list are resolved once per call.  ``pairs`` may read this relation but
        must not change it or its indexes.
        """
        data = self._data
        get = data.get
        arity = len(self.schema)
        indexes = self._indexes.values()
        guarded = False
        log = None
        for tup, delta in pairs:
            if len(tup) != arity:
                self.check_arity(tup)
            if delta == 0:
                continue
            current = get(tup, 0)
            updated = current + delta
            if updated < 0:
                raise RejectedUpdateError(
                    f"delete of {-delta} copies of {tup!r} rejected: relation "
                    f"{self.name!r} holds only {current}"
                )
            if not guarded:
                self._cow_guard()
                guarded = True
                log = self._cow_log
                if log is not None:
                    replay_cost, copy_cost = cow_replay_weights(self)
            self._change_ticks += 1
            if updated:
                data[tup] = updated
                if not current:
                    for index in indexes:
                        key = index.key_of(tup)
                        groups = index._groups
                        group = groups.get(key)
                        if group is None:
                            groups[key] = {tup: None}
                        else:
                            group[tup] = None
            else:
                del data[tup]
                for index in indexes:
                    groups = index._groups
                    key = index.key_of(tup)
                    group = groups[key]
                    del group[tup]
                    if not group:
                        del groups[key]
            # The redo log, dropped once a freeze would copy rather than replay.
            if log is not None:
                log.append((tup, delta))
                if len(log) * replay_cost > len(data) * copy_cost:
                    log = self._cow_log = None

    def apply_delta(self, tup: ValueTuple, delta: int) -> int:
        """Add ``delta`` to the multiplicity of ``tup`` and return the new value.

        Raises :class:`RejectedUpdateError` if the result would be negative,
        matching the paper's rejection of over-deleting updates.  A resulting
        multiplicity of zero removes the tuple from the relation and from all
        indexes.  The one-entry case of :meth:`apply_deltas`.
        """
        self.apply_deltas(((tup, delta),))
        return self._data.get(tup, 0)

    def set_multiplicity(self, tup: ValueTuple, mult: int) -> None:
        """Set the multiplicity of ``tup`` to exactly ``mult`` (≥ 0).

        A negative ``mult`` is a caller error, reported as :class:`ValueError`
        like the sign checks of :meth:`insert` and :meth:`delete` — not as a
        :class:`RejectedUpdateError`, which is reserved for over-deletes of
        well-formed updates.
        """
        if mult < 0:
            raise ValueError("set_multiplicity requires a non-negative multiplicity")
        current = self.multiplicity(tup)
        self.apply_delta(tup, mult - current)

    def insert(self, tup: ValueTuple, mult: int = 1) -> None:
        """Insert ``mult`` copies of ``tup`` (``mult`` must be positive)."""
        if mult <= 0:
            raise ValueError("insert requires a positive multiplicity")
        self.apply_delta(tup, mult)

    def delete(self, tup: ValueTuple, mult: int = 1) -> None:
        """Delete ``mult`` copies of ``tup`` (``mult`` must be positive)."""
        if mult <= 0:
            raise ValueError("delete requires a positive multiplicity")
        self.apply_delta(tup, -mult)

    def merge(self, other: "Relation", sign: int = 1) -> None:
        """Apply every entry of ``other`` (scaled by ``sign``) to this relation.

        The merge is atomic: every entry is validated before any is applied,
        so an over-deleting merge raises :class:`RejectedUpdateError` and
        leaves this relation untouched instead of half-merged.
        """
        if other.schema != self.schema:
            raise SchemaError(
                f"cannot merge {other.schema!r} into {self.schema!r}"
            )
        if sign < 0:
            # Entries of `other` are strictly positive, so only a negative
            # sign can over-delete; validate every entry up front.
            for tup, mult in other.items():
                if self.multiplicity(tup) + sign * mult < 0:
                    raise RejectedUpdateError(
                        f"merge of {other.name!r} into {self.name!r} rejected: "
                        f"deleting {-sign * mult} copies of {tup!r} exceeds "
                        f"the {self.multiplicity(tup)} present"
                    )
        self.apply_deltas((tup, sign * mult) for tup, mult in other.items())

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    def _normalise_key_schema(self, key_schema: Iterable[str]) -> Schema:
        key = tuple(var for var in self.schema if var in set(key_schema))
        if set(key) != set(key_schema):
            raise SchemaError(
                f"index schema {tuple(key_schema)!r} is not a subset of {self.schema!r}"
            )
        return key

    def ensure_index(self, key_schema: Iterable[str]) -> Index:
        """Return (building if necessary) the index on ``key_schema``.

        The key schema is normalised to the ordering induced by the relation
        schema so logically equal requests share one index.  Key tuples
        passed to :meth:`slice`/:meth:`slice_size`/:meth:`contains_key` (or
        to the index directly) must therefore be built in relation-schema
        order, not in the caller's variable order.
        """
        key = self._normalise_key_schema(key_schema)
        index = self._indexes.get(key)
        if index is None:
            index = Index(self.schema, key, self._data)
            for tup in self._data:
                index.add(tup)
            self._indexes[key] = index
        return index

    def has_index(self, key_schema: Iterable[str]) -> bool:
        key = tuple(var for var in self.schema if var in set(key_schema))
        return key in self._indexes

    def invalidate_indexes(self) -> None:
        """Drop every secondary index; the next use rebuilds from content.

        Index key groups are insertion-ordered, so a long-lived index can
        iterate its keys in an order that differs from one built fresh off
        the current content (a group that partially empties keeps its
        original position; a fresh build orders keys by first occurrence).
        Retuning (:meth:`repro.ivm.rebalance.MaintenanceDriver.retune`)
        drops the indexes so the strict repartition that follows seeds the
        light parts — and through them every view — in exactly the order a
        newly loaded engine would produce.
        """
        self._indexes.clear()

    # ------------------------------------------------------------------
    # algebra helpers used throughout the engine
    # ------------------------------------------------------------------
    def slice(self, key_schema: Schema, key: ValueTuple) -> Iterable[ValueTuple]:
        """Enumerate ``σ_{S=key} R`` via the index on ``S``."""
        return self.ensure_index(key_schema).group(key)

    def slice_size(self, key_schema: Schema, key: ValueTuple) -> int:
        """Return ``|σ_{S=key} R|`` via the index on ``S``."""
        return self.ensure_index(key_schema).group_size(key)

    def distinct_keys(self, key_schema: Schema) -> Iterable[ValueTuple]:
        """Enumerate ``π_S R`` via the index on ``S``."""
        return self.ensure_index(key_schema).keys()

    def contains_key(self, key_schema: Schema, key: ValueTuple) -> bool:
        """Constant-time test ``key ∈ π_S R``."""
        return self.ensure_index(key_schema).contains_key(key)

    def project(self, target_schema: Schema, name: Optional[str] = None) -> "Relation":
        """Return a new relation ``π_target R`` summing multiplicities."""
        key_of = Projector(self.schema, target_schema).key_of
        result = Relation(name or f"π({self.name})", target_schema)
        result.apply_deltas((key_of(tup), mult) for tup, mult in self.items())
        return result

    def as_dict(self) -> Dict[ValueTuple, int]:
        """Return a copy of the underlying tuple → multiplicity mapping."""
        return dict(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self.name!r}, schema={self.schema!r}, size={len(self)})"
