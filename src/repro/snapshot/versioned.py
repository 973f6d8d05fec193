"""Versioned snapshot handles over a materialized skew-aware plan.

:meth:`repro.core.api.HierarchicalEngine.snapshot` records, for every
strategy tree of the plan, its *shape* and the relation object behind each
of its nodes, and registers those relations with the engine's
:class:`~repro.snapshot.cow.CowTracker` — an ``O(plan)`` capture that copies
no data.  The returned :class:`Snapshot` then answers ``enumerate()`` /
``result()`` / ``lookup()`` with the plan compiled for that shape
(:mod:`repro.enumeration.plan`, the one the live engine runs), bound on every
read to the relations' frozen capture-time content, resolved through the
tracker.

Because the compiled plan and the frozen contents are those of the live
engine at the moment of capture, a snapshot enumerates with the same
Union/Product order guarantees: same tuples, same multiplicities, same
sequence.

The version stamp comes from the engine's
:class:`~repro.ivm.rebalance.MaintenanceDriver`, which counts ingestion
events (one per single-tuple update, one per consolidated batch); a snapshot
at version ``v`` is indistinguishable from a fresh engine that replayed the
first ``v`` ingestion events and stopped.  After ``engine.load()`` replaces
the database, every older snapshot raises
:class:`~repro.exceptions.StaleStateError` instead of silently mixing old
and new state — and so does a snapshot that has been closed: ``close()``
hands its frozen copies back to the tracker, which rolls them forward to
later versions (see :mod:`repro.snapshot.cow`).
"""

from __future__ import annotations

from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.data.relation import Relation
from repro.data.schema import ValueTuple
from repro.enumeration.result import ResultEnumerator
from repro.exceptions import StaleStateError
from repro.query.conjunctive import ConjunctiveQuery
from repro.rings.spec import AggregateSpec, answer_map, fold_result
from repro.snapshot.cow import CowTracker, SnapshotState
from repro.views.view import ViewTreeNode


class _Spec:
    """Capture-time record of one strategy tree: its shape and, in
    pre-order, the live relations that were behind its nodes."""

    __slots__ = ("_shape", "_relations")

    def __init__(self, tree: ViewTreeNode) -> None:
        self._shape = tree.shape()
        self._relations = tree.relations()

    def shape(self):
        return self._shape

    def relations(self) -> Tuple[Relation, ...]:
        return self._relations


class _SnapshotEnumerator(ResultEnumerator):
    """Enumerates a snapshot: every relation read is its frozen content."""

    def _relations(self, spec: _Spec) -> Tuple[Relation, ...]:
        snapshot: Snapshot = self.plan
        freeze, state = snapshot._tracker.freeze, snapshot._state
        return tuple([freeze(state, relation) for relation in spec.relations()])


class Snapshot:
    """An immutable view of one engine version.

    Exposes the read side of the engine facade — :meth:`enumerate`,
    :meth:`result`, :meth:`lookup`, :meth:`count_distinct` — with the same
    enumeration order as the live engine had at capture time.  Reads never
    block the engine's writer and the writer never blocks reads; the only
    shared lock is the tracker's, held for individual relation copies.
    """

    def __init__(
        self,
        tracker: CowTracker,
        state: SnapshotState,
        component_specs: List[List[_Spec]],
        query: ConjunctiveQuery,
        version: int,
        validity: Optional[Callable[[], None]] = None,
    ) -> None:
        self._tracker = tracker
        self._state = state
        # (``component_trees`` is the name ResultEnumerator binds from)
        self.component_trees = self._component_specs = component_specs
        self._query = query
        self._head: Tuple[str, ...] = tuple(query.head)
        self.version = version
        self._validity = validity

    # ------------------------------------------------------------------
    def _check_valid(self) -> None:
        if self._state.closed:
            raise StaleStateError(
                "this snapshot has been closed; capture a new one"
            )
        if self._validity is not None:
            self._validity()

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def enumerate(self) -> ResultEnumerator:
        """Enumerate the captured result in the live engine's order."""
        self._check_valid()
        # The bound validator stops an enumerator mid-iteration once this
        # snapshot is closed, and keeps the snapshot (hence its open state,
        # which is what protects the frozen copies from being rolled
        # forward) alive for as long as the enumerator is.
        return _SnapshotEnumerator(self, self._query, validator=self._check_valid)

    def result(self) -> Dict[ValueTuple, int]:
        """Materialize the captured result as ``{tuple: multiplicity}``."""
        return self.enumerate().to_dict()

    def count_distinct(self) -> int:
        """Number of distinct result tuples in the captured version."""
        return self.enumerate().count_distinct()

    def aggregate(self, ring, value=None, group_by=None) -> Dict[ValueTuple, object]:
        """Aggregate the captured result as ``{group: answer}``.

        Accepts the same ``ring``/``value``/``group_by`` shapes (or a
        prebuilt :class:`~repro.rings.spec.AggregateSpec`) as
        :meth:`repro.core.api.HierarchicalEngine.aggregate` and folds over
        this snapshot's own enumeration, so the answer is frozen at the
        capture version no matter how far the live engine has moved on.
        A snapshot outliving ``load()`` raises
        :class:`~repro.exceptions.StaleStateError`, exactly like its
        enumeration.
        """
        spec = AggregateSpec.coerce(ring, value, group_by)
        return answer_map(spec, fold_result(spec, self._head, self.enumerate()))

    def lookup(self, tup: ValueTuple) -> int:
        """Multiplicity of one full result tuple in the captured version."""
        self._check_valid()
        tup = tuple(tup)
        if len(tup) != len(self._head):
            raise ValueError(
                f"lookup tuple {tup!r} has arity {len(tup)}; the query head "
                f"is {self._head!r}"
            )
        return _SnapshotEnumerator(self, self._query).lookup(tup)

    def __iter__(self) -> Iterator[Tuple[ValueTuple, int]]:
        return iter(self.enumerate())

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the snapshot so the writer stops preserving into it.

        Idempotent.  Every later read — enumerators already handed out
        included — raises :class:`~repro.exceptions.StaleStateError`.
        """
        self._tracker.release(self._state)

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Snapshot({self._query!s}, version={self.version})"


def capture_snapshot(
    tracker: CowTracker,
    component_trees: Sequence[Sequence[ViewTreeNode]],
    query: ConjunctiveQuery,
    version: int,
    validity: Optional[Callable[[], None]] = None,
) -> Snapshot:
    """Capture the current engine version (``O(plan)``; no data copied).

    Must not run concurrently with a mutating call on the same engine — the
    serving layer (:class:`repro.core.serving.EngineServer`) holds its write
    lock around captures; single-threaded callers need nothing extra.
    """
    component_specs = [
        [_Spec(tree) for tree in trees] for trees in component_trees
    ]
    state = tracker.capture(
        relation
        for specs in component_specs
        for spec in specs
        for relation in spec.relations()
    )
    return Snapshot(tracker, state, component_specs, query, version, validity)
