"""Columnar array-backed relation storage (the default backend).

The paper's Section 3 computational model only demands O(1)
lookup/insert/delete and constant-delay enumeration — it says nothing about
the constant.  The dict backend pays that constant in full tuple re-hashing
(tuples do not cache their hash) on every touch of the relation and of every
secondary index, plus a per-call key-schema normalisation in
``ensure_index``.  This module keeps the same observational contract while
moving the per-touch work onto flat arrays addressed by dense row ids:

* ``_rids``  — live tuple → row id.  This dict is the single source of truth
  for enumeration order and reproduces the dict backend's semantics exactly
  (insertion-ordered, delete + reinsert moves to the end) no matter how row
  ids are recycled.
* ``_mults`` — ``array('q')``: row id → multiplicity (0 for free rows), so a
  multiplicity bump touches one machine word instead of re-hashing a tuple.
* ``_cols``  — one ``array('q')`` per schema position holding interned value
  ids; ``_value_ids``/``_values`` form the interning pool mapping arbitrary
  hashable values to dense ints (shared across columns, consistent with
  Python equality, e.g. ``1 == 1.0 == True`` interns once).  Plain ints in
  ``(-_ID_MAX, _ID_MAX)`` short-circuit the pool and act as their own id;
  pool-assigned ids live at ``_POOL_BASE`` and above so the ranges never
  collide.
* ``_free``  — free-list of reusable row ids; deleting a tuple parks its row
  and :meth:`ColumnarRelation.compact` (auto-triggered when free rows
  dominate) rebuilds the arrays without disturbing enumeration order or
  existing index objects.
* :class:`ColumnarIndex` — group membership as intrusive doubly-linked lists
  over row ids (``_nxt``/``_prv``), group degree counters as a flat
  ``_sizes`` array, so index maintenance on a row transition never re-hashes
  the full tuple.

**What index order depends on.**  A group's member order is a function of
the relation's content alone: building an index walks ``_rids`` in order and
tail-appends; maintaining one tail-appends on insert (where ``_rids`` also
appends), unlinks on delete, and :meth:`ColumnarRelation.compact` preserves
both — so a group always lists ``_rids`` order restricted to the group,
whether the index was built now, maintained since long ago, or copied
(:meth:`ColumnarRelation.copy_with_indexes`).  Only the order of the *keys*
(``ColumnarIndex.keys()``) remembers history: a group that partially empties
keeps its position, where a fresh build orders keys by first occurrence.
Every read path — the compiled enumeration and join plans — reaches an index
through ``group_items(key)`` / ``group_size(key)`` with a key it already
holds and never iterates ``keys()``; the one caller that does, ``Partition``
on live base relations, is why retuning calls ``invalidate_indexes()``.

numpy is optional: when importable it accelerates a few bulk operations,
otherwise the stdlib ``array`` module carries everything.
"""

from __future__ import annotations

from array import array
from typing import Dict, Iterable, Iterator, List, Optional, Tuple

from repro.data.relation import COW_REPLAY_RATIO, Relation, register_backend
from repro.data.schema import (
    Projector,
    Schema,
    ValueTuple,
    positions,
)
from repro.exceptions import RejectedUpdateError

try:  # pragma: no cover - environment-dependent
    import numpy as _np
except Exception:  # pragma: no cover - numpy is optional
    _np = None

_NO_GROUP = -1
_NO_ROW = -1

# Value interning: plain ints in (-_ID_MAX, _ID_MAX) are their own id (ints
# hash to themselves, so a pool lookup would be pure overhead); everything
# else gets a pool id offset by _POOL_BASE so the two ranges never collide.
# Non-int values that compare equal to an in-range int (1.0, True,
# Decimal("1")) are routed to that int's self-id, preserving the dict
# backend's equality collapse.
_ID_MAX = 1 << 40
_POOL_BASE = 1 << 41


def _self_id(value: object) -> Optional[int]:
    """The in-range int a non-int ``value`` equals (``2.0`` → ``2``), if any."""
    try:
        as_int = int(value)  # type: ignore[call-overload]
    except (TypeError, ValueError, OverflowError):
        return None
    return as_int if as_int == value and -_ID_MAX < as_int < _ID_MAX else None


# Auto-compaction policy: rebuild the row arrays once the free-list holds
# more than _COMPACT_MIN_FREE rows and outnumbers live rows by
# _COMPACT_RATIO to one.  Compaction is observationally invisible.
_COMPACT_MIN_FREE = 1024
_COMPACT_RATIO = 3


class _GroupView:
    """Re-iterable, sized view of one index group.

    Resolves the group id on every iteration, so the view always reflects
    the current content (like the dict-backend's live dict view) and never
    follows a recycled group id.
    """

    __slots__ = ("_index", "_key")

    def __init__(self, index: "ColumnarIndex", key: ValueTuple) -> None:
        self._index = index
        self._key = key

    def __len__(self) -> int:
        index = self._index
        gid = index._group_ids.get(self._key)
        return index._sizes[gid] if gid is not None else 0

    def __iter__(self) -> Iterator[ValueTuple]:
        index = self._index
        gid = index._group_ids.get(self._key)
        if gid is None:
            return
        rows = index.relation._row_tuples
        nxt = index._nxt
        rid = index._heads[gid]
        while rid != _NO_ROW:
            yield rows[rid]
            rid = nxt[rid]


class _ItemsView:
    """Re-iterable, sized ``(tuple, multiplicity)`` view of a relation."""

    __slots__ = ("_relation",)

    def __init__(self, relation: "ColumnarRelation") -> None:
        self._relation = relation

    def __len__(self) -> int:
        return len(self._relation._rids)

    def __iter__(self) -> Iterator[Tuple[ValueTuple, int]]:
        mults = self._relation._mults
        for tup, rid in self._relation._rids.items():
            yield tup, mults[rid]


class ColumnarIndex:
    """Array-backed secondary index over row ids.

    Duck-types :class:`repro.data.relation.Index`.  Group membership is an
    intrusive doubly-linked list threaded through the ``_nxt``/``_prv``
    arrays (tail-append preserves insertion order within a group, matching
    the dict backend), the per-group degree lives in the flat ``_sizes``
    array, and ``_group_ids`` is an insertion-ordered dict of key tuple →
    group id with delete-on-empty (matching the dict backend's key order:
    a group that empties and reappears moves to the end).
    """

    __slots__ = (
        "relation",
        "schema",
        "key_schema",
        "_projector",
        "_positions",
        "_pos0",
        "_group_ids",
        "_gid_by_idkey",
        "_keys_by_gid",
        "_sizes",
        "_heads",
        "_tails",
        "_free_gids",
        "_group_of",
        "_nxt",
        "_prv",
    )

    def __init__(self, relation: "ColumnarRelation", key_schema: Schema) -> None:
        self.relation = relation
        self.schema = relation.schema
        self.key_schema = key_schema
        self._projector = Projector(relation.schema, key_schema)
        self._positions = positions(relation.schema, key_schema)
        # Single-column fast path: the interned id *is* the group key.
        self._pos0 = self._positions[0] if len(self._positions) == 1 else None
        num_rows = len(relation._row_tuples)
        self._group_of = array("q", [_NO_GROUP]) * num_rows
        self._nxt = array("q", [_NO_ROW]) * num_rows
        self._prv = array("q", [_NO_ROW]) * num_rows
        # Two maps to the same group ids: `_group_ids` is keyed by the value
        # key tuple (the public probe API) and owns the dict-backend key
        # order; `_gid_by_idkey` is keyed by the interned column ids of the
        # key, so row-side maintenance never re-hashes user values.  Value
        # interning collapses by Python equality, so the two keyings agree.
        self._group_ids: Dict[ValueTuple, int] = {}
        self._gid_by_idkey: Dict[object, int] = {}
        self._keys_by_gid: List[Optional[Tuple[ValueTuple, object]]] = []
        self._sizes = array("q")
        self._heads = array("q")
        self._tails = array("q")
        self._free_gids: List[int] = []
        for rid in relation._rids.values():
            self._add_row(rid)

    # ------------------------------------------------------------------
    # row-id maintenance (called by the owning relation)
    # ------------------------------------------------------------------
    def _add_row(self, rid: int) -> None:
        # Row arrays grow lazily: a brand-new rid always equals the current
        # array length (appends allocate ids densely), so a single length
        # check replaces a separate grow call on every insert.
        group_of = self._group_of
        if rid == len(group_of):
            group_of.append(_NO_GROUP)
            self._nxt.append(_NO_ROW)
            self._prv.append(_NO_ROW)
        pos0 = self._pos0
        if pos0 is not None:
            idkey: object = self.relation._cols[pos0][rid]
        else:
            cols = self.relation._cols
            idkey = tuple(cols[p][rid] for p in self._positions)
        gid = self._gid_by_idkey.get(idkey)
        if gid is None:
            self._add_group(idkey, rid)
        else:
            tails = self._tails
            tail = tails[gid]
            self._nxt[tail] = rid
            self._prv[rid] = tail
            tails[gid] = rid
            self._sizes[gid] += 1
            self._nxt[rid] = _NO_ROW
            group_of[rid] = gid

    def _add_group(self, idkey: object, rid: int) -> None:
        """Open a new group containing just ``rid`` (cold path of add)."""
        key = self._projector(self.relation._row_tuples[rid])
        if self._free_gids:
            gid = self._free_gids.pop()
            self._keys_by_gid[gid] = (key, idkey)
            self._sizes[gid] = 1
            self._heads[gid] = rid
            self._tails[gid] = rid
        else:
            gid = len(self._keys_by_gid)
            self._keys_by_gid.append((key, idkey))
            self._sizes.append(1)
            self._heads.append(rid)
            self._tails.append(rid)
        self._group_ids[key] = gid
        self._gid_by_idkey[idkey] = gid
        self._prv[rid] = _NO_ROW
        self._nxt[rid] = _NO_ROW
        self._group_of[rid] = gid

    def _remove_row(self, rid: int) -> None:
        group_of = self._group_of
        gid = group_of[rid]
        if gid == _NO_GROUP:
            return
        group_of[rid] = _NO_GROUP
        nxt_arr = self._nxt
        prv_arr = self._prv
        nxt = nxt_arr[rid]
        prv = prv_arr[rid]
        if prv != _NO_ROW:
            nxt_arr[prv] = nxt
        else:
            self._heads[gid] = nxt
        if nxt != _NO_ROW:
            prv_arr[nxt] = prv
        else:
            self._tails[gid] = prv
        sizes = self._sizes
        size = sizes[gid] - 1
        sizes[gid] = size
        if size == 0:
            self._retire_group(gid)

    def _retire_group(self, gid: int) -> None:
        """Drop an emptied group's keys and recycle its id (cold path)."""
        key, idkey = self._keys_by_gid[gid]
        del self._group_ids[key]
        del self._gid_by_idkey[idkey]
        self._keys_by_gid[gid] = None
        self._free_gids.append(gid)

    def _copy_for(self, relation: "ColumnarRelation") -> "ColumnarIndex":
        """This index re-pointed at ``relation``, a ``copy()`` of its owner.

        ``copy()`` keeps every row id, so the ten containers carry over
        verbatim — built-in copies, no per-row Python work.
        """
        clone = object.__new__(ColumnarIndex)
        clone.relation = relation
        clone.schema = self.schema
        clone.key_schema = self.key_schema
        clone._projector = self._projector
        clone._positions = self._positions
        clone._pos0 = self._pos0
        clone._group_ids = dict(self._group_ids)
        clone._gid_by_idkey = dict(self._gid_by_idkey)
        clone._keys_by_gid = list(self._keys_by_gid)
        clone._sizes = array("q", self._sizes)
        clone._heads = array("q", self._heads)
        clone._tails = array("q", self._tails)
        clone._free_gids = list(self._free_gids)
        clone._group_of = array("q", self._group_of)
        clone._nxt = array("q", self._nxt)
        clone._prv = array("q", self._prv)
        return clone

    def _clear(self) -> None:
        num_rows = len(self.relation._row_tuples)
        self._group_of = array("q", [_NO_GROUP]) * num_rows
        self._nxt = array("q", [_NO_ROW]) * num_rows
        self._prv = array("q", [_NO_ROW]) * num_rows
        self._group_ids.clear()
        self._gid_by_idkey.clear()
        self._keys_by_gid = []
        self._sizes = array("q")
        self._heads = array("q")
        self._tails = array("q")
        self._free_gids = []

    def _probe_gid(self, tup: ValueTuple) -> Optional[int]:
        """Group id of ``tup``'s key group via the interning pool.

        Avoids building (and hashing) the value key tuple: each key value is
        looked up in the interning pool individually, and a value that was
        never interned proves the key group absent.
        """
        value_ids = self.relation._value_ids
        pos0 = self._pos0
        if pos0 is not None:
            value = tup[pos0]
            if type(value) is int and -_ID_MAX < value < _ID_MAX:
                return self._gid_by_idkey.get(value)
            vid = value_ids.get(value)
            if vid is None:  # never interned, yet 2.0 finds a stored 2
                vid = _self_id(value)
            return self._gid_by_idkey.get(vid)
        ids = []
        for p in self._positions:
            value = tup[p]
            if type(value) is int and -_ID_MAX < value < _ID_MAX:
                ids.append(value)
                continue
            vid = value_ids.get(value)
            if vid is None and (vid := _self_id(value)) is None:
                return None
            ids.append(vid)
        return self._gid_by_idkey.get(tuple(ids))

    # ------------------------------------------------------------------
    # public Index API
    # ------------------------------------------------------------------
    def add(self, tup: ValueTuple) -> None:
        """Register ``tup`` under its key (idempotent; ``tup`` must be live)."""
        rid = self.relation._rids[tup]
        if self._group_of[rid] == _NO_GROUP:
            self._add_row(rid)

    def remove(self, tup: ValueTuple) -> None:
        """Remove ``tup`` from its key group (no-op if absent)."""
        rid = self.relation._rids.get(tup)
        if rid is not None:
            self._remove_row(rid)

    def key_of(self, tup: ValueTuple) -> ValueTuple:
        """Project a full tuple onto the index key schema."""
        return self._projector(tup)

    def contains_key(self, key: ValueTuple) -> bool:
        """Constant-time test ``key ∈ π_S R``."""
        return key in self._group_ids

    def group(self, key: ValueTuple) -> Iterable[ValueTuple]:
        """Constant-delay enumeration of ``σ_{S=key} R``."""
        return _GroupView(self, key)

    def group_items(self, key: ValueTuple) -> Iterator[Tuple[ValueTuple, int]]:
        """Constant-delay ``(tuple, multiplicity)`` entries of ``σ_{S=key} R``.

        Both halves of an entry are read from the row id the group list
        yields, so a matched tuple is never hashed to find its multiplicity.
        """
        gid = self._group_ids.get(key)
        if gid is None:
            return
        rows = self.relation._row_tuples
        mults = self.relation._mults
        nxt = self._nxt
        rid = self._heads[gid]
        while rid != _NO_ROW:
            yield rows[rid], mults[rid]
            rid = nxt[rid]

    def group_size(self, key: ValueTuple) -> int:
        """Constant-time ``|σ_{S=key} R|`` (number of distinct tuples)."""
        gid = self._group_ids.get(key)
        return self._sizes[gid] if gid is not None else 0

    def keys(self) -> Iterable[ValueTuple]:
        """Enumerate the distinct key values ``π_S R``."""
        return self._group_ids.keys()

    def num_keys(self) -> int:
        """Constant-time ``|π_S R|``."""
        return len(self._group_ids)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnarIndex({self.key_schema!r}, keys={len(self._group_ids)})"


class ColumnarRelation(Relation):
    """Array-backed storage backend (see module docstring for the layout)."""

    backend = "columnar"

    def _init_storage(self) -> None:
        self._rids: Dict[ValueTuple, int] = {}
        self._row_tuples: List[Optional[ValueTuple]] = []
        self._mults = array("q")
        self._cols: Tuple[array, ...] = tuple(array("q") for _ in self.schema)
        self._free: List[int] = []
        self._values: List[object] = []
        self._value_ids: Dict[object, int] = {}
        self._indexes: Dict[Schema, ColumnarIndex] = {}
        # Flat tuple mirror of _indexes.values(): apply_delta walks it on
        # every insert/delete, and a tuple walk is cheaper than a dict view.
        self._index_list: Tuple[ColumnarIndex, ...] = ()
        # ensure_index memo keyed by the key schema exactly as passed (a
        # tuple), skipping re-normalisation on the maintenance hot path.
        self._index_memo: Dict[Schema, ColumnarIndex] = {}
        self._arity = len(self.schema)

    # ------------------------------------------------------------------
    # basic accessors
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._rids)

    def __contains__(self, tup: ValueTuple) -> bool:
        return tup in self._rids

    def __iter__(self) -> Iterator[ValueTuple]:
        return iter(self._rids)

    def multiplicity(self, tup: ValueTuple) -> int:
        rid = self._rids.get(tup)
        return self._mults[rid] if rid is not None else 0

    def items(self) -> Iterable[Tuple[ValueTuple, int]]:
        return _ItemsView(self)

    def tuples(self) -> Iterable[ValueTuple]:
        return self._rids.keys()

    def total_multiplicity(self) -> int:
        # Free rows hold multiplicity 0, so the whole array sums correctly.
        if _np is not None and self._mults:
            return int(_np.frombuffer(self._mults, dtype=_np.int64).sum())
        return sum(self._mults)

    def copy(self, name: Optional[str] = None) -> "Relation":
        clone = type(self)(name or self.name, self.schema)
        clone._rids = dict(self._rids)
        clone._row_tuples = list(self._row_tuples)
        clone._mults = array("q", self._mults)
        clone._cols = tuple(array("q", col) for col in self._cols)
        clone._free = list(self._free)
        clone._values = list(self._values)
        clone._value_ids = dict(self._value_ids)
        return clone

    def copy_with_indexes(self, key_schemas: Iterable[Schema]) -> "Relation":
        clone = self.copy()
        for key in key_schemas:
            index = self._indexes.get(key)
            if index is not None:
                clone._indexes[key] = index._copy_for(clone)
        clone._index_list = tuple(clone._indexes.values())
        return clone

    def clear(self) -> None:
        self._cow_guard()
        if self._rids:
            self._change_ticks += 1
        self._rids.clear()
        self._row_tuples = []
        self._mults = array("q")
        self._cols = tuple(array("q") for _ in self.schema)
        self._free = []
        self._values = []
        self._value_ids = {}
        for index in self._indexes.values():
            index._clear()

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def apply_delta(self, tup: ValueTuple, delta: int) -> int:
        # THE maintenance hot path: the row-creation and row-retirement
        # bodies are inlined (no _new_row/_grow helper calls) because the
        # per-call overhead is measurable at scenario replay rates.
        rids = self._rids
        rid = rids.get(tup)
        if rid is None:
            if len(tup) != self._arity:
                self._check_arity(tup)
            if delta == 0:
                return 0
            if delta < 0:
                raise RejectedUpdateError(
                    f"delete of {-delta} copies of {tup!r} rejected: relation "
                    f"{self.name!r} holds only 0"
                )
            cow = self._cow
            if cow is not None and self._cow_epoch != cow.epoch:
                cow.preserve(self)
                self._cow_epoch = cow.epoch
            self._change_ticks += 1
            # Redo log of the cached frozen copy (see Relation.__init__):
            # one entry per tick, dropped once replaying it would cost more
            # than copying the relation.
            log = self._cow_log
            if log is not None:
                if len(log) * COW_REPLAY_RATIO < len(rids):
                    log.append((tup, delta))
                else:
                    self._cow_log = None
            value_ids = self._value_ids
            free = self._free
            if free:
                rid = free.pop()
                self._row_tuples[rid] = tup
                self._mults[rid] = delta
                for col, value in zip(self._cols, tup):
                    if type(value) is int and -_ID_MAX < value < _ID_MAX:
                        col[rid] = value
                        continue
                    vid = value_ids.get(value)
                    if vid is None:
                        vid = self._intern(value)
                    col[rid] = vid
            else:
                rid = len(self._row_tuples)
                self._row_tuples.append(tup)
                self._mults.append(delta)
                for col, value in zip(self._cols, tup):
                    if type(value) is int and -_ID_MAX < value < _ID_MAX:
                        col.append(value)
                        continue
                    vid = value_ids.get(value)
                    if vid is None:
                        vid = self._intern(value)
                    col.append(vid)
            rids[tup] = rid
            # Inlined ColumnarIndex._add_row (kept in sync with the method):
            # the call overhead is measurable at scenario replay rates.
            for index in self._index_list:
                group_of = index._group_of
                if rid == len(group_of):
                    group_of.append(_NO_GROUP)
                    index._nxt.append(_NO_ROW)
                    index._prv.append(_NO_ROW)
                pos0 = index._pos0
                if pos0 is not None:
                    idkey: object = self._cols[pos0][rid]
                else:
                    idkey = tuple(self._cols[p][rid] for p in index._positions)
                gid = index._gid_by_idkey.get(idkey)
                if gid is None:
                    index._add_group(idkey, rid)
                else:
                    tails = index._tails
                    tail = tails[gid]
                    index._nxt[tail] = rid
                    index._prv[rid] = tail
                    tails[gid] = rid
                    index._sizes[gid] += 1
                    index._nxt[rid] = _NO_ROW
                    group_of[rid] = gid
            return delta
        if delta == 0:
            return self._mults[rid]
        mults = self._mults
        updated = mults[rid] + delta
        if updated < 0:
            raise RejectedUpdateError(
                f"delete of {-delta} copies of {tup!r} rejected: relation "
                f"{self.name!r} holds only {mults[rid]}"
            )
        cow = self._cow
        if cow is not None and self._cow_epoch != cow.epoch:
            cow.preserve(self)
            self._cow_epoch = cow.epoch
        self._change_ticks += 1
        log = self._cow_log
        if log is not None:
            if len(log) * COW_REPLAY_RATIO < len(rids):
                log.append((tup, delta))
            else:
                self._cow_log = None
        if updated == 0:
            del rids[tup]
            # Inlined ColumnarIndex._remove_row (kept in sync with the
            # method), mirroring the inlined insert path above.
            for index in self._index_list:
                group_of = index._group_of
                gid = group_of[rid]
                if gid == _NO_GROUP:
                    continue
                group_of[rid] = _NO_GROUP
                nxt_arr = index._nxt
                prv_arr = index._prv
                nxt = nxt_arr[rid]
                prv = prv_arr[rid]
                if prv != _NO_ROW:
                    nxt_arr[prv] = nxt
                else:
                    index._heads[gid] = nxt
                if nxt != _NO_ROW:
                    prv_arr[nxt] = prv
                else:
                    index._tails[gid] = prv
                sizes = index._sizes
                size = sizes[gid] - 1
                sizes[gid] = size
                if size == 0:
                    index._retire_group(gid)
            mults[rid] = 0
            self._row_tuples[rid] = None
            self._free.append(rid)
            free = len(self._free)
            if free > _COMPACT_MIN_FREE and free > _COMPACT_RATIO * len(rids):
                self.compact()
            return 0
        mults[rid] = updated
        return updated

    def _intern(self, value: object) -> int:
        """Assign ``value`` an id in the pool range (slow path).

        Values that compare equal to an in-range int are cached under that
        int's self-id so id equality keeps matching Python value equality.
        """
        as_int = _self_id(value)
        if as_int is not None:
            self._value_ids[value] = as_int
            return as_int
        vid = _POOL_BASE + len(self._values)
        self._value_ids[value] = vid
        self._values.append(value)
        return vid

    def compact(self) -> None:
        """Rebuild the row arrays dropping free rows (order-preserving).

        Live rows are renumbered in enumeration order.  Existing index
        objects are remapped in place — group key order, group membership
        order and degree counters are all preserved — so compaction is
        observationally invisible.  The value interning pool is not
        shrunk.
        """
        if not self._free:
            return
        old_mults = self._mults
        old_cols = self._cols
        remap: Dict[int, int] = {}
        new_rows: List[Optional[ValueTuple]] = []
        new_mults = array("q")
        new_cols = tuple(array("q") for _ in self.schema)
        for tup, rid in self._rids.items():
            new_rid = len(new_rows)
            remap[rid] = new_rid
            new_rows.append(tup)
            new_mults.append(old_mults[rid])
            for pos, col in enumerate(old_cols):
                new_cols[pos].append(col[rid])
            self._rids[tup] = new_rid
        self._row_tuples = new_rows
        self._mults = new_mults
        self._cols = new_cols
        self._free = []
        num_rows = len(new_rows)
        for index in self._indexes.values():
            old_group_of = index._group_of
            old_nxt = index._nxt
            old_prv = index._prv
            group_of = array("q", [_NO_GROUP]) * num_rows
            nxt = array("q", [_NO_ROW]) * num_rows
            prv = array("q", [_NO_ROW]) * num_rows
            for old_rid, new_rid in remap.items():
                group_of[new_rid] = old_group_of[old_rid]
                link = old_nxt[old_rid]
                nxt[new_rid] = remap[link] if link != _NO_ROW else _NO_ROW
                link = old_prv[old_rid]
                prv[new_rid] = remap[link] if link != _NO_ROW else _NO_ROW
            index._group_of = group_of
            index._nxt = nxt
            index._prv = prv
            heads = index._heads
            tails = index._tails
            for gid in range(len(index._keys_by_gid)):
                if index._keys_by_gid[gid] is None:
                    continue
                heads[gid] = remap[heads[gid]]
                tails[gid] = remap[tails[gid]]

    # ------------------------------------------------------------------
    # indexes
    # ------------------------------------------------------------------
    def ensure_index(self, key_schema: Iterable[str]) -> ColumnarIndex:
        if type(key_schema) is tuple:
            index = self._index_memo.get(key_schema)
            if index is not None:
                return index
        key = self._normalise_key_schema(key_schema)
        index = self._indexes.get(key)
        if index is None:
            index = ColumnarIndex(self, key)
            self._indexes[key] = index
            self._index_list = tuple(self._indexes.values())
        if type(key_schema) is tuple:
            self._index_memo[key_schema] = index
        return index

    # Inlined versions of the base-class probe helpers: one memo hit plus a
    # direct dict/array access, no intermediate method dispatch.
    def slice(self, key_schema: Schema, key: ValueTuple) -> Iterable[ValueTuple]:
        index = self._index_memo.get(key_schema) if type(key_schema) is tuple else None
        if index is None:
            index = self.ensure_index(key_schema)
        return _GroupView(index, key)

    def slice_size(self, key_schema: Schema, key: ValueTuple) -> int:
        index = self._index_memo.get(key_schema) if type(key_schema) is tuple else None
        if index is None:
            index = self.ensure_index(key_schema)
        gid = index._group_ids.get(key)
        return index._sizes[gid] if gid is not None else 0

    def contains_key(self, key_schema: Schema, key: ValueTuple) -> bool:
        index = self._index_memo.get(key_schema) if type(key_schema) is tuple else None
        if index is None:
            index = self.ensure_index(key_schema)
        return key in index._group_ids

    def contains_key_of(self, key_schema: Schema, tup: ValueTuple) -> bool:
        # The index is resolved unconditionally so the ensure side effect
        # (and therefore later key enumeration order) matches the dict
        # backend; only the projection + key hash is skipped for live rows.
        index = self._index_memo.get(key_schema) if type(key_schema) is tuple else None
        if index is None:
            index = self.ensure_index(key_schema)
        if tup in self._rids:
            return True
        pos0 = index._pos0
        if pos0 is not None:
            value = tup[pos0]
            if type(value) is int and -_ID_MAX < value < _ID_MAX:
                return value in index._gid_by_idkey
            vid = self._value_ids.get(value)
            return (_self_id(value) if vid is None else vid) in index._gid_by_idkey
        return index._probe_gid(tup) is not None

    def degree_of(self, key_schema: Schema, tup: ValueTuple) -> int:
        index = self._index_memo.get(key_schema) if type(key_schema) is tuple else None
        if index is None:
            index = self.ensure_index(key_schema)
        rid = self._rids.get(tup)
        if rid is not None:
            return index._sizes[index._group_of[rid]]
        pos0 = index._pos0
        if pos0 is not None:
            value = tup[pos0]
            if type(value) is int and -_ID_MAX < value < _ID_MAX:
                gid = index._gid_by_idkey.get(value)
            else:
                vid = self._value_ids.get(value)
                gid = index._gid_by_idkey.get(_self_id(value) if vid is None else vid)
        else:
            gid = index._probe_gid(tup)
        return index._sizes[gid] if gid is not None else 0

    def invalidate_indexes(self) -> None:
        self._indexes.clear()
        self._index_list = ()
        self._index_memo.clear()

    def as_dict(self) -> Dict[ValueTuple, int]:
        mults = self._mults
        return {tup: mults[rid] for tup, rid in self._rids.items()}


register_backend("columnar", ColumnarRelation)
