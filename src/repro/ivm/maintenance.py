"""Update processing (``UpdateTrees``, Figure 19): single-tuple and batched.

For an update ``δR = {x → m}`` the maintenance layer:

1. captures, for every partition of ``R``, whether the partition key of ``x``
   existed in ``R`` before the update (new keys start light — this keeps the
   domain-partition invariant of Definition 11);
2. applies ``δR`` to the shared base relation exactly once;
3. propagates ``δR`` through every skew-aware strategy tree and every
   indicator ``All`` tree that references ``R``;
4. routes the update into the light parts ``R^S`` whose key is (or becomes)
   light, propagating the induced change through the trees that reference the
   light part (skew trees and indicator ``L`` trees);
5. refreshes the heavy-indicator supports ``∃H`` of the affected triples and
   propagates any support change through the skew trees.

:class:`BatchUpdateProcessor` runs the same five steps once per *batch
relation group* instead of once per tuple: a whole
:class:`~repro.data.update.UpdateBatch` is applied to each base relation in
one pass and the grouped delta is propagated through every affected view
tree in a single traversal.  This is sound because delta propagation is
linear in the delta for fixed sibling contents and every relation occurs at
most once per tree (footnote 2), so the grouped propagation equals the sum
of the per-tuple propagations; processing relations one group at a time
keeps the sibling snapshots consistent exactly like the sequential path
(the higher-order term ``δR ⋈ δS`` never appears).

Rebalancing (threshold maintenance) is handled separately by
:mod:`repro.ivm.rebalance`; the batched path defers it to one check per
batch (:meth:`repro.ivm.rebalance.MaintenanceDriver.on_batch`).

**Result-delta capture** (the push-based serving hook): when enabled via
:meth:`UpdateProcessor.set_delta_capture`, every ingestion event also
computes the induced change of the *query result* — the classical
first-order delta ``π_head(δR ⋈ S ⋈ T ⋈ …)`` of the net per-relation
group against the other atoms' base relations, evaluated at the same
group-sequential point the grouped propagation uses — and accumulates it
into a drainable net delta.  Subscribers of
:class:`repro.net.EngineTCPServer` receive exactly these per-commit deltas
instead of re-enumerating; rebalances and retunes never contribute (they
reorganize views without changing the result).  Disabled, the hook is a
single ``None`` check per group.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Mapping, Optional, Set, Tuple

from repro.data.database import Database
from repro.data.partition import Partition
from repro.data.schema import Schema, ValueTuple
from repro.data.update import Update, UpdateBatch
from repro.exceptions import (
    RejectedUpdateError,
    UnknownRelationError,
    UnsupportedQueryError,
)
from repro.engine.join import BoundRelation, delta_join
from repro.ivm.delta import Delta, merge_delta, propagate_delta
from repro.query.atom import Atom
from repro.views.indicators import IndicatorTriple
from repro.views.skew import SkewAwarePlan


class UpdateProcessor:
    """Applies single-tuple updates to a materialized skew-aware plan."""

    def __init__(self, plan: SkewAwarePlan, database: Database) -> None:
        self.plan = plan
        self.database = database
        self.query = plan.query
        self._atoms_by_relation: Dict[str, Atom] = {}
        for atom in self.query.atoms:
            if atom.relation in self._atoms_by_relation:
                raise UnsupportedQueryError(
                    "queries with repeating relation symbols are not supported by "
                    "the dynamic engine (paper footnote 2)"
                )
            self._atoms_by_relation[atom.relation] = atom
        # Result-delta capture (push-based serving): ``None`` when disabled;
        # a net ``{result_tuple: multiplicity}`` accumulator otherwise,
        # shared with the batch processor and drained per commit by the
        # serving layer.
        self._result_capture: Optional[Delta] = None
        # Result-delta listeners (ring-annotated aggregate views): each is
        # called with every group-level first-order result delta as it is
        # computed.  The delta is computed once and fanned out to the
        # capture accumulator and every listener, so maintained aggregates
        # and push subscriptions share one delta evaluation per group.
        self._delta_listeners: List[Callable[[Delta], None]] = []

    # ------------------------------------------------------------------
    # result-delta capture
    # ------------------------------------------------------------------
    def set_delta_capture(self, enabled: bool) -> None:
        """Start (or stop) accumulating per-commit result-level deltas."""
        if enabled:
            if self._result_capture is None:
                self._result_capture = {}
        else:
            self._result_capture = None

    @property
    def capturing_deltas(self) -> bool:
        return self._result_capture is not None

    def add_delta_listener(self, listener: Callable[[Delta], None]) -> None:
        """Register a per-group result-delta consumer (aggregate views).

        Listeners receive the same first-order deltas the capture
        accumulator folds — called at the group-sequential point inside the
        commit, so summing everything a listener sees over one commit gives
        the commit's exact net result delta.  Listeners survive retunes and
        rebalances (the processor persists; those reorganizations never
        produce result deltas) but not :meth:`~repro.core.api.HierarchicalEngine.load`,
        which rebuilds the processor — the engine re-registers its
        aggregates there.
        """
        self._delta_listeners.append(listener)

    def remove_delta_listener(self, listener: Callable[[Delta], None]) -> None:
        """Unregister a listener added by :meth:`add_delta_listener`."""
        try:
            self._delta_listeners.remove(listener)
        except ValueError:
            pass

    def drain_result_delta(self) -> Delta:
        """Return and clear the net result delta accumulated since last drain."""
        if self._result_capture is None:
            return {}
        drained, self._result_capture = self._result_capture, {}
        return drained

    def _capture_group(self, relation_name: str, group: Mapping[ValueTuple, int]) -> None:
        """Fold one relation group's first-order result delta into the capture.

        ``π_head(δR ⋈ S ⋈ T ⋈ …)`` against the *base* relations of every
        other atom — which, at the group-sequential point where this runs,
        already include every previously processed group of the same commit
        and none of the later ones, so summing the per-group deltas yields
        the commit's exact net result delta (the delta rule is linear in
        ``δR`` for fixed sibling contents).
        """
        capture = self._result_capture
        listeners = self._delta_listeners
        if capture is None and not listeners:
            return
        atom = self._atoms_by_relation[relation_name]
        siblings = [
            BoundRelation(other.variables, self.database.relation(other.relation))
            for other in self.query.atoms
            if other is not atom
        ]
        delta = delta_join(atom.variables, group, siblings, self.query.head)
        if capture is not None:
            if capture:
                merge_delta(capture, delta)
            else:
                # The commit's first group (its only one, for a commit on a
                # single relation): adopt the join's own dict, do not re-add
                # its entries one by one into an empty accumulator.
                self._result_capture = delta
        for listener in listeners:
            listener(delta)

    # ------------------------------------------------------------------
    # helpers
    # ------------------------------------------------------------------
    def _atom_for(self, relation_name: str) -> Atom:
        try:
            return self._atoms_by_relation[relation_name]
        except KeyError as exc:
            raise UnknownRelationError(
                f"relation {relation_name!r} does not occur in query {self.query}"
            ) from exc

    def _triple_key(
        self, triple: IndicatorTriple, relation_name: str, tup: ValueTuple
    ) -> ValueTuple:
        """Project an update tuple onto the triple's key variables."""
        atom = self._atom_for(relation_name)
        return tuple(tup[atom.variables.index(v)] for v in triple.keys)

    def _propagate_to_trees(
        self, source_name: str, schema: Schema, delta: Delta
    ) -> None:
        """Propagate a leaf change through every skew-aware strategy tree."""
        for tree in self.plan.trees_referencing(source_name):
            propagate_delta(tree, source_name, schema, delta)

    def _propagate_to_light_indicator_trees(
        self, source_name: str, schema: Schema, delta: Delta
    ) -> None:
        for triple in self.plan.light_triples_referencing(source_name):
            propagate_delta(triple.light_tree, source_name, schema, delta)

    def _refresh_indicator(
        self, triple: IndicatorTriple, key: ValueTuple
    ) -> None:
        """Refresh ``∃H`` at ``key`` and propagate any support change."""
        change = triple.refresh_key(key)
        if change == 0:
            return
        self._propagate_to_trees(
            triple.exists_heavy.name, triple.keys, {key: change}
        )

    # ------------------------------------------------------------------
    # main entry point
    # ------------------------------------------------------------------
    def apply_update(self, update: Update) -> None:
        """Process one single-tuple update (Figure 19, without rebalancing)."""
        relation = self.database.relation(update.relation)
        self._atom_for(update.relation)
        delta: Delta = {tuple(update.tuple): update.multiplicity}
        schema: Schema = relation.schema

        partitions = self.plan.partitions.partitions_of(relation.name)
        # Tuple-addressed probes: whether the update tuple's partition key
        # existed in the base before the update.  No key tuple is built —
        # the columnar backend answers from the row table for live tuples.
        pre_state: Dict[int, bool] = {}
        for partition in partitions:
            pre_state[id(partition)] = partition.base.contains_key_of(
                partition.keys, update.tuple
            )

        # (2) the shared base relation absorbs the update exactly once
        relation.apply_delta(update.tuple, update.multiplicity)
        self._capture_group(relation.name, delta)

        # (3) strategy trees and indicator All trees referencing the base relation
        self._propagate_to_trees(relation.name, schema, delta)
        affected_triples = self.plan.triples_referencing(update.relation)
        for triple in affected_triples:
            propagate_delta(triple.all_tree, relation.name, schema, delta)

        # (4) light-part routing
        updated_light: Set[int] = set()
        for partition in partitions:
            was_in_base = pre_state[id(partition)]
            route_to_light = (not was_in_base) or partition.light.contains_key_of(
                partition.keys, update.tuple
            )
            if not route_to_light:
                continue
            if id(partition.light) in updated_light:
                continue
            updated_light.add(id(partition.light))
            partition.light.apply_delta(update.tuple, update.multiplicity)
            light_name = partition.light.name
            self._propagate_to_trees(light_name, schema, delta)
            self._propagate_to_light_indicator_trees(light_name, schema, delta)

        # (5) heavy-indicator support refresh
        for triple in affected_triples:
            key = self._triple_key(triple, update.relation, update.tuple)
            self._refresh_indicator(triple, key)

    # ------------------------------------------------------------------
    # batched light-part moves (used by minor rebalancing)
    # ------------------------------------------------------------------
    def move_partition_key(
        self,
        partition: Partition,
        key: ValueTuple,
        to_light: bool,
        witness_tuple: ValueTuple,
        relation_name: str,
    ) -> None:
        """Move all tuples of one partition key into or out of the light part.

        The deltas applied to the light part are propagated through the skew
        trees and the indicator ``L`` trees, after which the heavy-indicator
        supports of the triples fed by this light part are refreshed at the
        corresponding key (Figure 21).
        """
        if to_light:
            deltas = partition.move_key_to_light(key)
        else:
            deltas = partition.move_key_to_heavy(key)
        if not deltas:
            return
        schema = partition.base.schema
        light_name = partition.light.name
        self._propagate_to_trees(light_name, schema, deltas)
        self._propagate_to_light_indicator_trees(light_name, schema, deltas)
        for triple in self.plan.light_triples_referencing(light_name):
            triple_key = self._triple_key(triple, relation_name, witness_tuple)
            self._refresh_indicator(triple, triple_key)


class BatchUpdateProcessor:
    """Applies consolidated update batches to a materialized skew-aware plan.

    The processor mirrors the five steps of :class:`UpdateProcessor` but
    amortizes all per-update overhead across the batch:

    * the base relation, every strategy tree, and every indicator ``All``
      tree absorb one grouped delta per batch instead of one per tuple;
    * light-part routing and heavy-indicator refreshes are decided once per
      distinct partition key touched by the batch.

    Batches are processed one relation group at a time so each grouped
    propagation joins against sibling contents that already include every
    previously processed group — the same telescoping the sequential path
    performs, hence the same final view contents for the query result.
    """

    def __init__(
        self,
        plan: SkewAwarePlan,
        database: Database,
        processor: Optional[UpdateProcessor] = None,
    ) -> None:
        self.plan = plan
        self.database = database
        self.processor = processor or UpdateProcessor(plan, database)

    # ------------------------------------------------------------------
    # main entry point
    # ------------------------------------------------------------------
    def apply_batch(self, batch: UpdateBatch, validated: bool = False) -> None:
        """Process one consolidated batch (Figure 19 steps, grouped).

        The batch is validated up front — every relation must occur in the
        query and every net delete must be covered by the current base
        multiplicity — so a rejected batch raises *before* any relation,
        view, or indicator is touched (all-or-nothing ingestion, unlike the
        sequential path where a mid-stream rejection keeps the updates that
        preceded it).  ``validated=True`` skips that pass for callers that
        already ran it — the sharded engine pre-validates every involved
        shard in a separate round to make *cross-shard* ingestion atomic,
        and must not pay for the same walk twice.
        """
        if not validated:
            self._validate_batch(batch)
        for relation_name in batch.relations():
            self._apply_group(batch, relation_name)

    def _validate_batch(self, batch: UpdateBatch) -> None:
        for relation_name in batch.relations():
            self.processor._atom_for(relation_name)
            relation = self.database.relation(relation_name)
            for tup, mult in batch.delta_for(relation_name).items():
                if mult < 0 and relation.multiplicity(tup) + mult < 0:
                    raise RejectedUpdateError(
                        f"batch rejected: net delete of {-mult} copies of "
                        f"{tup!r} from {relation_name!r} exceeds the stored "
                        f"multiplicity {relation.multiplicity(tup)}; "
                        "no part of the batch was applied"
                    )

    def _apply_group(self, batch: UpdateBatch, relation_name: str) -> None:
        group: Delta = dict(batch.delta_for(relation_name))
        if not group:
            return
        relation = self.database.relation(relation_name)
        self.processor._atom_for(relation_name)
        schema: Schema = relation.schema
        partitions = self.plan.partitions.partitions_of(relation_name)

        # (1) pre-state per partition key, and the induced light routing:
        # a key's delta routes to the light part when the key is new to the
        # base relation (new keys start light, Definition 11) or currently
        # classified light.  Heavy keys absorb the delta in the base/heavy
        # side only; the deferred rebalance check may move them later.
        routed: List[Tuple[Partition, Delta]] = []
        for partition in partitions:
            light_delta: Delta = {}
            by_key = batch.grouped_by_key(relation_name, partition.key_of)
            for key, key_group in by_key.items():
                was_in_base = partition.base.contains_key(partition.keys, key)
                if (not was_in_base) or partition.is_light_key(key):
                    light_delta.update(key_group)
            routed.append((partition, light_delta))

        # (2) the shared base relation absorbs the whole group exactly once
        for tup, mult in group.items():
            relation.apply_delta(tup, mult)
        self.processor._capture_group(relation_name, group)

        # (3) one grouped traversal per strategy tree and indicator All tree
        self.processor._propagate_to_trees(relation_name, schema, group)
        triples = self.plan.triples_referencing(relation_name)
        for triple in triples:
            propagate_delta(triple.all_tree, relation_name, schema, group)

        # (4) grouped light-part routing
        updated_light: Set[int] = set()
        for partition, light_delta in routed:
            if not light_delta or id(partition.light) in updated_light:
                continue
            updated_light.add(id(partition.light))
            for tup, mult in light_delta.items():
                partition.light.apply_delta(tup, mult)
            light_name = partition.light.name
            self.processor._propagate_to_trees(light_name, schema, light_delta)
            self.processor._propagate_to_light_indicator_trees(
                light_name, schema, light_delta
            )

        # (5) heavy-indicator refresh, once per distinct triple key
        for triple in triples:
            keys = {
                self.processor._triple_key(triple, relation_name, tup)
                for tup in group
            }
            for key in keys:
                self.processor._refresh_indicator(triple, key)
