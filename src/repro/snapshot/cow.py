"""Copy-on-write capture of relation contents.

A snapshot must observe the engine exactly as it was at capture time while
maintenance keeps mutating the same :class:`~repro.data.relation.Relation`
objects in place.  Copying every relation at capture would make ``snapshot()``
cost ``O(state)``; instead the tracker freezes relations lazily, from
whichever side touches them first:

* **writer side** — every relation reachable from a snapshot carries a
  ``_cow`` pointer to its engine's :class:`CowTracker`.  The first mutation
  after a capture (the relation's ``_cow_epoch`` trails the tracker's
  ``epoch``) calls :meth:`CowTracker.preserve`, which stores a frozen copy of
  the *pre-mutation* content into every active snapshot that does not hold
  one yet.  Later mutations in the same epoch skip the tracker entirely, so
  the steady-state overhead per mutation is one attribute load and one int
  comparison;
* **reader side** — a snapshot read resolves a relation through
  :meth:`CowTracker.freeze`.  If the writer already preserved it, the frozen
  copy is returned; otherwise the relation provably has not changed since the
  capture (the writer guard fires on the *first* post-capture mutation), so
  copying its current content under the tracker lock yields exactly the
  capture-time state.

Frozen copies are cached per relation keyed by its ``_change_ticks`` mutation
counter, so consecutive snapshots of a quiescent relation share one copy
instead of re-copying per capture.  The cache lives on the relation object
itself (``_cow_cache``), which sidesteps ``id()`` aliasing after major
rebalances replace view relations and lets dead relations take their cache
entries with them.

**Cost of the first write after a capture.**  The cached copy is a *trailing
replica*: the columnar backend logs every ``(tuple, delta)`` it applies after
the copy was made (``_cow_log``), and when the content is next frozen the
tracker replays that log onto the copy — ``O(mutations since the previous
capture)`` — instead of copying the relation again.  The replica is rolled
forward only when it is free, i.e. no *open* snapshot still resolves the
relation to it (a reader pinned on an older version keeps its copy
untouched), and when replay is cheaper than copying
(``len(log) * COW_REPLAY_RATIO <= len(relation)``).

Everything else — no log yet, a log that outgrew that bound and was dropped,
a ``clear()`` (ticks without a log entry), the dict
backend, a replica still in use — takes the one fallback: an
``O(|relation|)`` copy and a fresh log.  The fresh log is skipped when the
round that just ended was itself too long to replay: a batch writer that
rewrites a large share of a view between captures should not pay for log
entries that are thrown away.  A short round turns logging back on, at the
price of one more copy.

**Indexes.**  A reader never rebuilds an index an earlier reader already
built for that relation.  A frozen copy starts without indexes and the
first reader that probes it builds what it needs (``ensure_index``); from
then on both branches keep them.  *Replay* runs through ``apply_delta``,
which maintains the replica's indexes exactly as it does a live relation's,
``compact()`` included — the writer pays per changed tuple, not the next
reader per stored tuple.  The *fallback copy* takes the old replica's index
key schemas as the record of what readers probe and inherits, for each, the
live relation's index on the same key when it has one (
:meth:`~repro.data.relation.Relation.copy_with_indexes`: built-in copies of
the index arrays, counted in ``carried_indexes``); a key the live relation
does not index is built by the next reader, as before.  The ``dict`` backend
carries nothing and stays the reference.

None of this can change what a snapshot enumerates.  The compiled plans read
a relation through ``items()``, ``multiplicity()`` and
``ensure_index(cols).group_items(key)`` only, and a group lists its members
in the relation's own order whether its index was built, maintained or
copied (:mod:`repro.data.storage` states the invariant).  What does differ
is the order of ``index.keys()`` — a maintained index remembers the order in
which groups appeared, a fresh build does not — so that order is *not* part
of a frozen copy's contract: content, per-key group sequences and the
enumerated sequence of a whole tree are
(``tests/test_snapshot.py::TestTrailingReplica``).

A columnar replica that carries indexes is a reference cycle
(``ColumnarIndex.relation`` ↔ ``relation._indexes``), so a replica the
tracker lets go of — replaced by a fallback copy, or released by the last
snapshot that held a superseded one — has its indexes dropped on the spot
instead of waiting, whole, for the cyclic collector.  Memory stays one
cached copy per relation, its indexes, plus a log of at most
``len(relation) / COW_REPLAY_RATIO`` entries.  Because a replica is reused
once its last open snapshot is released, a snapshot must not be read after
``close()`` (:class:`~repro.snapshot.versioned.Snapshot` raises
:class:`~repro.exceptions.StaleStateError`).

Thread-safety relies on the tracker lock plus CPython's GIL: the lock makes
"check whether a frozen copy exists, else copy the content" atomic against
the writer guard (the copy runs entirely under the lock).  A held replica
may be in a reader's hands — ``ensure_index`` inserting into its
``_indexes`` — while the tracker reads its key schemas, so it takes them in
one step (``tuple(old._indexes)``); the live relation's indexes only change
with its content, which the guard holds still.  Captures
(:meth:`CowTracker.capture`) must not run concurrently with a mutating call —
:class:`repro.core.serving.EngineServer` serializes capture against its
writer for exactly this reason.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from typing import Dict, Iterable, List, Optional

from repro.data.relation import COW_REPLAY_RATIO, Relation
from repro.exceptions import StaleStateError

# Epochs are globally unique so a relation that survives an ``engine.load()``
# (``copy_database=False``) can never collide with a fresh tracker's epoch
# through its stale ``_cow_epoch`` field.
_EPOCHS = itertools.count(1)


class SnapshotState:
    """The frozen overlay of one snapshot: live relation → frozen copy."""

    def __init__(self) -> None:
        # Keyed by the live Relation object (identity hash): id() reuse after
        # garbage collection could alias two different relations, an object
        # key cannot.
        self.frozen: Dict[Relation, Relation] = {}
        self.closed = False


class CowTracker:
    """Per-engine coordinator between one writer and any number of snapshots."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.epoch = next(_EPOCHS)
        self._active: List["weakref.ref[SnapshotState]"] = []
        # How frozen content was produced (exported on /metrics): whole
        # relation copies, the indexes those copies inherited from the live
        # relation, and redo-log entries replayed onto a trailing replica.
        self.full_copies = 0
        self.carried_indexes = 0
        self.replayed_entries = 0

    # -- capture (snapshot side, serialized against writes by the caller) ---
    def capture(self, relations: Iterable[Relation]) -> SnapshotState:
        """Open a new snapshot over ``relations`` and bump the epoch.

        Cost is ``O(#relations)`` bookkeeping — no content is copied here.
        """
        state = SnapshotState()
        with self.lock:
            self.epoch = next(_EPOCHS)
            self._active = [
                ref for ref in self._active if self._live(ref) is not None
            ]
            self._active.append(weakref.ref(state))
            for relation in relations:
                if relation._cow is not self:
                    # Adopted from an older tracker (``load()`` without
                    # copying the database): that tracker's snapshots may
                    # still hold the cached copy, and this one cannot see
                    # them, so it must never roll that copy forward.
                    relation._cow = self
                    relation._cow_epoch = -1
                    relation._cow_cache = None
                    relation._cow_log = None
        return state

    @staticmethod
    def _live(ref: "weakref.ref[SnapshotState]") -> Optional[SnapshotState]:
        state = ref()
        if state is None or state.closed:
            return None
        return state

    def release(self, state: SnapshotState) -> None:
        """Close a snapshot so the writer stops preserving into it."""
        with self.lock:
            state.closed = True
            frozen, state.frozen = state.frozen, {}
            self._active = [
                ref for ref in self._active if self._live(ref) is not None
            ]
            for relation, clone in frozen.items():
                cached = relation._cow_cache
                if cached is None or cached[1] is not clone:
                    self._let_go(relation, clone)

    # -- frozen content (both sides, under the lock) ------------------------
    def _frozen_copy(self, relation: Relation) -> Relation:
        """Return an immutable-by-convention copy of ``relation``'s content.

        Reuses the cached copy when the content has not changed since it was
        made, rolls it forward from the redo log when it is free and the log
        is short, and copies the relation otherwise (see the module
        docstring).  Must be called under the tracker lock.
        """
        ticks = relation._change_ticks
        cached = relation._cow_cache
        if cached is not None and cached[0] == ticks:
            return cached[1]
        # Mutations since the cached copy was made.  A relation that took
        # more of them than a replay may cost is not logged for the next
        # round either: its writer would pay for entries that are thrown
        # away (one without a cached copy yet is logged, optimistically).
        distance = ticks - cached[0] if cached is not None else 0
        replayable = distance * COW_REPLAY_RATIO <= len(relation)
        log = relation._cow_log
        if (
            cached is not None
            and log is not None
            and replayable
            and len(log) == distance
            and not self._in_use(relation, cached[1])
        ):
            clone = cached[1]
            for tup, delta in log:
                clone.apply_delta(tup, delta)
            self.replayed_entries += len(log)
        else:
            # What readers built on the old replica is what they will probe
            # on the new one.
            old = cached[1] if cached is not None else None
            clone = relation.copy_with_indexes(
                tuple(old._indexes) if old is not None else ()
            )
            self.full_copies += 1
            self.carried_indexes += len(clone._indexes)
            if old is not None:
                self._let_go(relation, old)
        relation._cow_cache = (ticks, clone)
        relation._cow_log = [] if replayable else None
        return clone

    def _let_go(self, relation: Relation, replica: Relation) -> None:
        """Break a superseded replica's index cycle unless a snapshot holds it."""
        if not self._in_use(relation, replica):
            replica.invalidate_indexes()

    def _in_use(self, relation: Relation, clone: Relation) -> bool:
        """Whether an open snapshot still resolves ``relation`` to ``clone``."""
        for ref in self._active:
            state = self._live(ref)
            if state is not None and state.frozen.get(relation) is clone:
                return True
        return False

    # -- writer side --------------------------------------------------------
    def preserve(self, relation: Relation) -> None:
        """Store ``relation``'s current content into every open snapshot.

        Called by :meth:`repro.data.relation.Relation._cow_guard` immediately
        *before* the first mutation of a new epoch, so the copied content is
        exactly what every snapshot without a copy captured.
        """
        with self.lock:
            for ref in self._active:
                state = self._live(ref)
                if state is not None and relation not in state.frozen:
                    state.frozen[relation] = self._frozen_copy(relation)

    # -- reader side --------------------------------------------------------
    def freeze(self, state: SnapshotState, relation: Relation) -> Relation:
        """Resolve ``relation`` to its capture-time content for ``state``."""
        with self.lock:
            if state.closed:
                # The live content has moved on and nothing would protect a
                # copy handed out now from being rolled forward.
                raise StaleStateError("this snapshot has been closed")
            frozen = state.frozen.get(relation)
            if frozen is None:
                # The writer guard has not fired for this relation since the
                # capture, so its live content *is* the capture-time content.
                frozen = self._frozen_copy(relation)
                state.frozen[relation] = frozen
            return frozen
