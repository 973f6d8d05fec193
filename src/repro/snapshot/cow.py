"""Copy-on-write capture of relation contents.

A snapshot must observe the engine as it was at capture while maintenance
mutates the same :class:`~repro.data.relation.Relation` objects in place.
The tracker freezes relations lazily, from whichever side touches them
first:

* **writer side** — a capture registers the relations its compiled plans
  read (:attr:`repro.enumeration.plan.EnumerationPlan.reads`), which carry
  a ``_cow`` pointer to the tracker from then on (one never registered
  keeps ``None`` and pays no guard).  The first mutation after a capture
  calls :meth:`CowTracker.preserve`, which stores the *pre-mutation*
  content into every open snapshot that registered the relation and holds
  no copy of it yet; later mutations in the epoch cost one int comparison;
* **reader side** — :meth:`CowTracker.freeze` returns that copy, or copies
  the current content under the lock: the guard fires on the *first*
  post-capture mutation, so that content is the captured one.

**Cost of the first write after a capture.**  The frozen copy is cached on
the relation (``_cow_cache``, keyed by ``_change_ticks``) as a *trailing
replica*: the relation logs each ``(tuple, delta)`` it applies afterwards
(``_cow_log``), and the next freeze replays the log onto the replica —
``O(mutations since the previous capture)``, indexes maintained — when no
open snapshot still resolves the relation to it and **the rule**,
:func:`~repro.data.relation.cow_replay_weights`, finds replay cheaper:
``len(log) * replay <= len(relation) * copy``, a log of ``len / 32`` with
no index, ``len / 10.7`` with one.  The writer keeps the log only while it
passes the same rule at the same size, and a reader can only add an index
to a replica, which raises the bound: a kept log is a replayed log.

Everything else — no log, a log dropped at the bound, a ``clear()`` (a tick
without an entry), a replica in use — takes the fallback: a copy inheriting
the live relation's index on each key the old replica held
(:meth:`~repro.data.relation.Relation.copy_with_indexes`; a key the live
relation lacks is built by the next reader) and a fresh log, skipped after
a round too long to replay.  Neither branch changes what a snapshot
enumerates: plans read ``items()``, ``multiplicity()`` and index groups,
which list the relation's order however their index was kept; only
``index.keys()`` order differs, and it is not part of the contract
(``docs/architecture.md`` §10).

A replica the tracker lets go of is freed by refcount, indexes and all, and
since a released replica is rolled forward, a closed snapshot raises
:class:`~repro.exceptions.StaleStateError`.  Thread-safety is the tracker
lock plus the GIL: "check for a frozen copy, else copy" runs under the
lock, and a held replica's key schemas are read in one step
(``tuple(old._indexes)``) as a reader may be adding one.  Captures must
not run concurrently with a mutating call —
:class:`repro.core.serving.EngineServer` serializes them against its writer.
"""

from __future__ import annotations

import itertools
import threading
import weakref
from dataclasses import dataclass
from typing import Dict, FrozenSet, Iterable, List, Optional

from repro.data.relation import Relation, cow_replay_weights
from repro.exceptions import StaleStateError
from repro.stats import Family, metric

# Epochs are globally unique so a relation that survives an ``engine.load()``
# (``copy_database=False``) can never collide with a fresh tracker's epoch
# through its stale ``_cow_epoch`` field.
_EPOCHS = itertools.count(1)


class SnapshotState:
    """The frozen overlay of one snapshot: live relation → frozen copy, over
    the relations its capture registered.  Keyed by the Relation object, as
    ``id()`` reuse after garbage collection could alias two relations."""

    def __init__(self, registered: FrozenSet[Relation]) -> None:
        self.registered = registered
        self.frozen: Dict[Relation, Relation] = {}
        self.closed = False


@dataclass(eq=False)
class CowStats(Family):
    """How frozen content was produced (``repro_snapshot_*`` on ``/metrics``)."""

    PREFIX = "repro_snapshot"

    full_copies: int = metric("Whole-relation copies made by snapshot copy-on-write.")
    copied_tuples: int = metric("Tuples those copies copied.")
    carried_indexes: int = metric("Indexes those copies inherited from the live relation.")
    replayed_entries: int = metric("Redo-log entries replayed onto frozen snapshot copies.")


class CowTracker(CowStats):
    """Per-engine coordinator between one writer and any number of snapshots.

    Its :class:`CowStats` counters are updated under :attr:`lock`.
    """

    def __init__(self) -> None:
        super().__init__()
        self.lock = threading.Lock()
        self.epoch = next(_EPOCHS)
        self._active: List["weakref.ref[SnapshotState]"] = []

    # -- capture (snapshot side, serialized against writes by the caller) ---
    def capture(self, relations: Iterable[Relation]) -> SnapshotState:
        """Open a new snapshot over ``relations`` and bump the epoch.

        Only ``relations`` are preserved for it.  Cost is ``O(#relations)``
        bookkeeping — no content is copied here.
        """
        state = SnapshotState(frozenset(relations))
        with self.lock:
            self.epoch = next(_EPOCHS)
            self._active = [
                ref for ref in self._active if self._live(ref) is not None
            ]
            self._active.append(weakref.ref(state))
            for relation in state.registered:
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
        return None if state is None or state.closed else state

    def release(self, state: SnapshotState) -> None:
        """Close a snapshot so the writer stops preserving into it."""
        with self.lock:
            state.closed = True
            state.frozen = {}
            self._active = [
                ref for ref in self._active if self._live(ref) is not None
            ]

    # -- frozen content (both sides, under the lock) ------------------------
    def _frozen_copy(self, relation: Relation) -> Relation:
        """Return an immutable-by-convention copy of ``relation``'s content.

        The cached copy if the content is unchanged, else the cached copy
        rolled forward from the redo log or a new copy, by the rule (see the
        module docstring).  Must be called under the tracker lock.
        """
        ticks = relation._change_ticks
        cached = relation._cow_cache
        if cached is not None and cached[0] == ticks:
            return cached[1]
        # Mutations since the cached copy.  A round too long to replay is not
        # logged for the next round either: its entries would be thrown away.
        distance = ticks - cached[0] if cached is not None else 0
        replay_cost, copy_cost = cow_replay_weights(relation)
        replayable = distance * replay_cost <= len(relation) * copy_cost
        log = relation._cow_log
        if (
            cached is not None
            and log is not None
            and replayable
            and len(log) == distance
            and not self._in_use(relation, cached[1])
        ):
            clone = cached[1]
            clone.apply_deltas(log)
            self.replayed_entries += len(log)
        else:
            # What readers built on the old replica is what they will probe
            # on the new one.
            old = cached[1] if cached is not None else None
            clone = relation.copy_with_indexes(
                tuple(old._indexes) if old is not None else ()
            )
            self.full_copies += 1
            self.copied_tuples += len(clone)
            self.carried_indexes += len(clone._indexes)
        relation._cow_cache = (ticks, clone)
        relation._cow_log = [] if replayable else None
        return clone

    def _in_use(self, relation: Relation, clone: Relation) -> bool:
        """Whether an open snapshot still resolves ``relation`` to ``clone``."""
        states = [self._live(ref) for ref in self._active]
        return any(state is not None and state.frozen.get(relation) is clone for state in states)

    # -- writer side --------------------------------------------------------
    def preserve(self, relation: Relation) -> None:
        """Store ``relation``'s current content into every open snapshot
        that registered it.

        Called by :meth:`repro.data.relation.Relation._cow_guard` immediately
        *before* the first mutation of a new epoch, so the copied content is
        exactly what every snapshot without a copy captured.
        """
        with self.lock:
            for ref in self._active:
                state = self._live(ref)
                if (
                    state is not None
                    and relation in state.registered
                    and relation not in state.frozen
                ):
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
