"""Versioned snapshot handles over a materialized skew-aware plan.

:meth:`repro.core.api.HierarchicalEngine.snapshot` walks the plan's strategy
trees, registers every reachable relation with the engine's
:class:`~repro.snapshot.cow.CowTracker`, and records the *structure* of the
trees (node names, schemas, and live relation references) — an ``O(plan)``
capture that copies no data.  The returned :class:`Snapshot` then answers
``enumerate()`` / ``result()`` / ``lookup()`` against a private *shadow* of
those trees, built on first read, in which every node's relation is resolved
to its frozen capture-time content through the tracker.

Because the shadow reuses the exact tree shapes (including
:class:`~repro.views.view.IndicatorLeaf` children, which select the grounded
enumeration case), a snapshot enumerates with the same Union/Product order
guarantees as the live engine at the moment of capture: same tuples, same
multiplicities, same sequence.

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

from repro.data.schema import ValueTuple
from repro.enumeration.lookup import lookup_multiplicity
from repro.enumeration.result import ResultEnumerator
from repro.exceptions import StaleStateError
from repro.query.conjunctive import ConjunctiveQuery
from repro.rings.spec import AggregateSpec
from repro.snapshot.cow import CowTracker, SnapshotState
from repro.views.view import IndicatorLeaf, LeafNode, ViewTreeNode


class _FrozenView(ViewTreeNode):
    """A shadow inner node: same name/schema/children, frozen content."""

    def __init__(self, name, schema, children, relation) -> None:
        super().__init__(name, schema)
        self._children: Tuple[ViewTreeNode, ...] = tuple(children)
        self._relation = relation

    @property
    def children(self) -> Tuple[ViewTreeNode, ...]:
        return self._children

    def relation(self):
        return self._relation


class _Spec:
    """Capture-time record of one tree node: structure + live relation ref."""

    __slots__ = ("name", "schema", "relation", "children", "is_indicator")

    def __init__(self, node: ViewTreeNode) -> None:
        self.name = node.name
        self.schema = node.schema
        self.relation = node.relation()
        self.is_indicator = isinstance(node, IndicatorLeaf)
        self.children = tuple(_Spec(child) for child in node.children)

    def relations(self) -> Iterator:
        yield self.relation
        for child in self.children:
            yield from child.relations()

    def build(
        self, resolve: Callable[[object], object]
    ) -> ViewTreeNode:
        frozen = resolve(self.relation)
        if self.is_indicator:
            return IndicatorLeaf(self.schema, frozen)
        if not self.children:
            return LeafNode(self.name, self.schema, frozen)
        return _FrozenView(
            self.name,
            self.schema,
            [child.build(resolve) for child in self.children],
            frozen,
        )


class _ShadowPlan:
    """The minimal plan surface :class:`ResultEnumerator` consumes."""

    def __init__(self, component_trees: List[List[ViewTreeNode]]) -> None:
        self.component_trees = component_trees


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
        self._component_specs = component_specs
        self._query = query
        self._head: Tuple[str, ...] = tuple(query.head)
        self.version = version
        self._validity = validity
        self._shadow: Optional[_ShadowPlan] = None

    # ------------------------------------------------------------------
    def _check_valid(self) -> None:
        if self._state.closed:
            raise StaleStateError(
                "this snapshot has been closed; capture a new one"
            )
        if self._validity is not None:
            self._validity()

    def _resolve(self, relation):
        return self._tracker.freeze(self._state, relation)

    def _shadow_plan(self) -> _ShadowPlan:
        # Benign build race between reader threads sharing one snapshot:
        # both shadows resolve to the same frozen relations, the last
        # assignment wins.
        shadow = self._shadow
        if shadow is None:
            shadow = _ShadowPlan(
                [
                    [spec.build(self._resolve) for spec in specs]
                    for specs in self._component_specs
                ]
            )
            self._shadow = shadow
        return shadow

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
        return ResultEnumerator(
            self._shadow_plan(), self._query, validator=self._check_valid
        )

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
        spec = (
            ring
            if isinstance(ring, AggregateSpec)
            else AggregateSpec(ring, value, group_by)
        )
        return self.enumerate().aggregate(spec)

    def lookup(self, tup: ValueTuple) -> int:
        """Multiplicity of one full result tuple in the captured version."""
        self._check_valid()
        tup = tuple(tup)
        if len(tup) != len(self._head):
            raise ValueError(
                f"lookup tuple {tup!r} has arity {len(tup)}; the query head "
                f"is {self._head!r}"
            )
        assignment = dict(zip(self._head, tup))
        free = frozenset(self._head)
        components = self._shadow_plan().component_trees
        if not components:
            return 0
        total = 1
        for trees in components:
            component = sum(
                lookup_multiplicity(tree, free, assignment) for tree in trees
            )
            if component == 0:
                return 0
            total *= component
        return total

    def __iter__(self) -> Iterator[Tuple[ValueTuple, int]]:
        return iter(self.enumerate())

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the snapshot so the writer stops preserving into it.

        Idempotent.  Every later read — enumerators already handed out
        included — raises :class:`~repro.exceptions.StaleStateError`.
        """
        self._tracker.release(self._state)
        self._shadow = None

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
    relations = []
    for specs in component_specs:
        for spec in specs:
            relations.extend(spec.relations())
    state = tracker.capture(relations)
    return Snapshot(tracker, state, component_specs, query, version, validity)
