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

Two interchangeable storage backends satisfy the contract:

* ``dict`` — the original layout: a dict of tuples to multiplicities plus
  dict-of-dict indexes.  Python dictionaries preserve insertion order and
  give amortized O(1) lookup/insert/delete, which matches the
  hash-table-with-chaining construction described in the paper up to
  amortization.
* ``columnar`` (:mod:`repro.data.storage`, the default) — an array-backed
  layout with interned values, flat multiplicity/degree arrays addressed by
  row id, and intrusive linked lists for index groups.  Observationally
  identical to ``dict`` (including enumeration order) but with a much
  smaller constant on the maintenance hot path.

The backend is selected with ``REPRO_STORAGE=dict|columnar`` (environment),
:func:`set_default_backend`, or the :func:`storage_backend` context manager.
Constructing ``Relation(...)`` dispatches to the selected backend class;
instantiating :class:`DictRelation` (or the columnar class) directly pins a
backend regardless of the default.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterable, Iterator, Mapping, Optional, Tuple, Type

from repro.data.schema import (
    Projector,
    Schema,
    ValueTuple,
    is_subschema,
    make_schema,
)
from repro.exceptions import RejectedUpdateError, SchemaError


# Snapshot copy-on-write rolls a frozen copy forward from its redo log only
# while ``len(log) * COW_REPLAY_RATIO <= len(relation)``, and drops a log
# (bounding its memory) once it outgrows that.  Sized from measurement on the
# columnar backend: replaying one entry (``apply_delta``) takes 1.3-1.7 us,
# ``copy()`` 15-30 ns per tuple up to 10k tuples and 75-90 ns at 140k, so the
# break-even ratio runs from ~20 (large relations, where the saving matters)
# to ~80 (small ones, where either branch costs microseconds).
COW_REPLAY_RATIO = 32


class Index:
    """A secondary index of a relation on a sub-schema (dict backend).

    Maps every key tuple ``t`` over the index schema to the group of full
    tuples of the relation that agree with ``t``, stored as an
    insertion-ordered dict which plays the role of the doubly-linked list of
    the paper (constant-delay enumeration, constant-time removal).
    """

    __slots__ = ("schema", "key_schema", "_projector", "_groups", "_data")

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
        self._projector = Projector(schema, key_schema)
        # key tuple -> {full tuple: None}
        self._groups: Dict[ValueTuple, Dict[ValueTuple, None]] = {}
        # The owning relation's tuple -> multiplicity map, read (never
        # written) by group_items; a free-standing index has none.
        self._data: Mapping[ValueTuple, int] = {} if data is None else data

    def add(self, tup: ValueTuple) -> None:
        """Register ``tup`` under its key (idempotent)."""
        key = self._projector(tup)
        group = self._groups.get(key)
        if group is None:
            group = {}
            self._groups[key] = group
        group[tup] = None

    def remove(self, tup: ValueTuple) -> None:
        """Remove ``tup`` from its key group (no-op if absent)."""
        key = self._projector(tup)
        group = self._groups.get(key)
        if group is None:
            return
        group.pop(tup, None)
        if not group:
            del self._groups[key]

    def key_of(self, tup: ValueTuple) -> ValueTuple:
        """Project a full tuple onto the index key schema."""
        return self._projector(tup)

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


# ----------------------------------------------------------------------
# storage backend selection
# ----------------------------------------------------------------------
_BACKENDS: Dict[str, Type["Relation"]] = {}
_BACKEND_NAMES = ("dict", "columnar")
_DEFAULT_BACKEND: Optional[str] = None  # resolved lazily from REPRO_STORAGE


def _validate_backend(name: str) -> str:
    if name not in _BACKEND_NAMES:
        raise ValueError(
            f"unknown storage backend {name!r}; expected one of {_BACKEND_NAMES}"
        )
    return name


def get_default_backend() -> str:
    """Return the current default backend name (``dict`` or ``columnar``).

    Resolved from the ``REPRO_STORAGE`` environment variable on first use;
    later changes go through :func:`set_default_backend`.
    """
    global _DEFAULT_BACKEND
    if _DEFAULT_BACKEND is None:
        name = os.environ.get("REPRO_STORAGE", "").strip().lower() or "columnar"
        _DEFAULT_BACKEND = _validate_backend(name)
    return _DEFAULT_BACKEND


def set_default_backend(name: str) -> str:
    """Select the backend used by ``Relation(...)``; return the previous one.

    Also mirrors the choice into ``os.environ['REPRO_STORAGE']`` so worker
    processes spawned by the sharded executors inherit the same backend.
    """
    global _DEFAULT_BACKEND
    previous = get_default_backend()
    _DEFAULT_BACKEND = _validate_backend(name)
    os.environ["REPRO_STORAGE"] = _DEFAULT_BACKEND
    return previous


@contextmanager
def storage_backend(name: str):
    """Context manager pinning the default storage backend within a block."""
    previous = set_default_backend(name)
    try:
        yield
    finally:
        set_default_backend(previous)


def register_backend(name: str, cls: Type["Relation"]) -> None:
    _BACKENDS[_validate_backend(name)] = cls


def backend_class(name: str) -> Type["Relation"]:
    """Return the Relation subclass implementing backend ``name``."""
    _validate_backend(name)
    cls = _BACKENDS.get(name)
    if cls is None:
        # The columnar backend lives in repro.data.storage, which imports
        # this module; load it lazily to register its class.
        from repro.data import storage  # noqa: F401

        cls = _BACKENDS[name]
    return cls


class Relation:
    """A finite map from tuples to strictly positive multiplicities.

    The relation also owns any number of secondary index objects, created on
    demand via :meth:`ensure_index` and kept consistent by all mutating
    operations.  ``Relation(...)`` is a factory: it instantiates the storage
    backend selected by :func:`get_default_backend`.
    """

    backend = "abstract"

    def __new__(cls, *args, **kwargs):
        if cls is Relation:
            cls = backend_class(get_default_backend())
        return object.__new__(cls)

    def __init__(
        self,
        name: str,
        schema: Iterable[str],
        tuples: Optional[Mapping[ValueTuple, int]] = None,
    ) -> None:
        self.name = name
        self.schema: Schema = make_schema(schema)
        # Copy-on-write hooks used by repro.snapshot: `_cow` points at the
        # engine's CowTracker once the relation has been captured by a
        # snapshot, `_cow_epoch` is the last tracker epoch this relation was
        # preserved at, `_change_ticks` counts content mutations (so frozen
        # copies can be shared between snapshots while the content is
        # unchanged), `_cow_cache` holds the most recent frozen copy as
        # ``(change_ticks, Relation)``, and `_cow_log` is the redo log of
        # that copy: the ``(tuple, delta)`` mutations applied since it was
        # made, one per tick, which the tracker replays to roll the copy
        # forward instead of copying again.  Only the columnar backend
        # appends to it; any tick without an entry (``clear()``, the dict
        # backend) leaves the log shorter than the tick distance, which the
        # tracker reads as "copy instead".
        self._cow = None
        self._cow_epoch = -1
        self._change_ticks = 0
        self._cow_cache: Optional[Tuple[int, "Relation"]] = None
        self._cow_log: Optional[list] = None
        self._init_storage()
        if tuples:
            for tup, mult in tuples.items():
                self.apply_delta(tup, mult)

    def _init_storage(self) -> None:
        raise NotImplementedError

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    @property
    def arity(self) -> int:
        """Number of variables in the schema."""
        return len(self.schema)

    def __len__(self) -> int:
        """Number of distinct tuples with non-zero multiplicity (``|R|``)."""
        raise NotImplementedError

    def __contains__(self, tup: ValueTuple) -> bool:
        raise NotImplementedError

    def __iter__(self) -> Iterator[ValueTuple]:
        raise NotImplementedError

    def multiplicity(self, tup: ValueTuple) -> int:
        """Return ``R(x)``; 0 when the tuple is absent."""
        raise NotImplementedError

    def items(self) -> Iterable[Tuple[ValueTuple, int]]:
        """Enumerate ``(tuple, multiplicity)`` entries with constant delay."""
        raise NotImplementedError

    def tuples(self) -> Iterable[ValueTuple]:
        """Enumerate the tuples with non-zero multiplicity."""
        raise NotImplementedError

    def total_multiplicity(self) -> int:
        """Sum of all multiplicities (useful for COUNT-style assertions)."""
        return sum(mult for _, mult in self.items())

    def copy(self, name: Optional[str] = None) -> "Relation":
        """Return a deep copy of the relation content (indexes not copied).

        The copy uses the same storage backend as the source, regardless of
        the current default.  The first probe of the copy builds the index
        it needs; snapshot copy-on-write, which copies the same relation
        again and again, uses :meth:`copy_with_indexes` instead.
        """
        raise NotImplementedError

    def copy_with_indexes(self, key_schemas: Iterable[Schema]) -> "Relation":
        """:meth:`copy`, plus a copy of every index held on one of ``key_schemas``.

        ``key_schemas`` are normalised key schemas (keys of another copy's
        ``_indexes``); one this relation holds no index on is left for the
        copy's first reader to build.  A carried index lists each group in
        the order a fresh build would (see :mod:`repro.data.storage`), its
        *keys* in this relation's historical order.  Only the columnar
        backend carries anything: the ``dict`` backend, the reference, keeps
        the plain :meth:`copy`.
        """
        return self.copy()

    def clear(self) -> None:
        """Remove all tuples and index entries."""
        raise NotImplementedError

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
    def _check_arity(self, tup: ValueTuple) -> None:
        if len(tup) != len(self.schema):
            raise SchemaError(
                f"tuple {tup!r} has arity {len(tup)} but relation {self.name!r} "
                f"has schema {self.schema!r}"
            )

    def apply_delta(self, tup: ValueTuple, delta: int) -> int:
        """Add ``delta`` to the multiplicity of ``tup`` and return the new value.

        Raises :class:`RejectedUpdateError` if the result would be negative,
        matching the paper's rejection of over-deleting updates.  A resulting
        multiplicity of zero removes the tuple from the relation and from all
        indexes.
        """
        raise NotImplementedError

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
        for tup, mult in other.items():
            self.apply_delta(tup, sign * mult)

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

    def ensure_index(self, key_schema: Iterable[str]):
        """Return (building if necessary) the index on ``key_schema``.

        The key schema is normalised to the ordering induced by the relation
        schema so logically equal requests share one index.  Key tuples
        passed to :meth:`slice`/:meth:`slice_size`/:meth:`contains_key` (or
        to the index directly) must therefore be built in relation-schema
        order, not in the caller's variable order.
        """
        raise NotImplementedError

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

    def contains_key_of(self, key_schema: Schema, tup: ValueTuple) -> bool:
        """Tuple-addressed form of :meth:`contains_key`.

        Tests whether ``tup``'s projection onto ``key_schema`` appears in
        ``π_S R`` without the caller having to build the key tuple (the
        maintenance hot path asks this about the update tuple itself, which
        lets the columnar backend answer from the row table for live
        tuples).
        """
        index = self.ensure_index(key_schema)
        return index.contains_key(index.key_of(tup))

    def degree_of(self, key_schema: Schema, tup: ValueTuple) -> int:
        """Tuple-addressed form of :meth:`slice_size`.

        Returns ``|σ_{S=key_of(tup)} R|`` — the degree of the key group that
        ``tup`` belongs (or would belong) to.
        """
        index = self.ensure_index(key_schema)
        return index.group_size(index.key_of(tup))

    def project(self, target_schema: Schema, name: Optional[str] = None) -> "Relation":
        """Return a new relation ``π_target R`` summing multiplicities."""
        projector = Projector(self.schema, target_schema)
        result = type(self)(name or f"π({self.name})", target_schema)
        for tup, mult in self.items():
            result.apply_delta(projector(tup), mult)
        return result

    def as_dict(self) -> Dict[ValueTuple, int]:
        """Return a copy of the underlying tuple → multiplicity mapping."""
        return dict(self.items())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Relation({self.name!r}, schema={self.schema!r}, size={len(self)}, "
            f"backend={self.backend!r})"
        )


class DictRelation(Relation):
    """The original dict-of-tuples storage backend.

    Kept unchanged as the reference implementation: the conformance runner
    diffs it against the columnar backend, and ``REPRO_STORAGE=dict``
    selects it engine-wide.
    """

    backend = "dict"

    def _init_storage(self) -> None:
        self._data: Dict[ValueTuple, int] = {}
        self._indexes: Dict[Schema, Index] = {}

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._data)

    def __contains__(self, tup: ValueTuple) -> bool:
        return tup in self._data

    def __iter__(self) -> Iterator[ValueTuple]:
        return iter(self._data)

    def multiplicity(self, tup: ValueTuple) -> int:
        return self._data.get(tup, 0)

    def items(self) -> Iterable[Tuple[ValueTuple, int]]:
        return self._data.items()

    def tuples(self) -> Iterable[ValueTuple]:
        return self._data.keys()

    def total_multiplicity(self) -> int:
        return sum(self._data.values())

    def copy(self, name: Optional[str] = None) -> "Relation":
        clone = type(self)(name or self.name, self.schema)
        clone._data.update(self._data)  # in place: indexes hold this dict
        return clone

    def clear(self) -> None:
        self._cow_guard()
        if self._data:
            self._change_ticks += 1
        self._data.clear()
        for index in self._indexes.values():
            index._groups.clear()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def apply_delta(self, tup: ValueTuple, delta: int) -> int:
        self._check_arity(tup)
        if delta == 0:
            return self._data.get(tup, 0)
        current = self._data.get(tup, 0)
        updated = current + delta
        if updated < 0:
            raise RejectedUpdateError(
                f"delete of {-delta} copies of {tup!r} rejected: relation "
                f"{self.name!r} holds only {current}"
            )
        self._cow_guard()
        self._change_ticks += 1
        if updated == 0:
            del self._data[tup]
            for index in self._indexes.values():
                index.remove(tup)
        else:
            if current == 0:
                self._data[tup] = updated
                for index in self._indexes.values():
                    index.add(tup)
            else:
                self._data[tup] = updated
        return updated

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    def ensure_index(self, key_schema: Iterable[str]) -> Index:
        key = self._normalise_key_schema(key_schema)
        index = self._indexes.get(key)
        if index is None:
            index = Index(self.schema, key, self._data)
            for tup in self._data:
                index.add(tup)
            self._indexes[key] = index
        return index

    def as_dict(self) -> Dict[ValueTuple, int]:
        return dict(self._data)


register_backend("dict", DictRelation)
