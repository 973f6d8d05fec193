"""Update processing (``UpdateTrees``, Figure 19) on a delta relation ``δR``.

For one relation group ``δR = {x₁ → m₁, …, xₖ → mₖ}`` — the paper's
single-tuple update is the case ``k = 1`` — the maintenance layer:

1. groups ``δR`` by partition key, once per partition of ``R``, and
   captures whether each key existed in ``R`` before the update (new keys
   start light — this keeps the domain-partition invariant of
   Definition 11);
2. applies ``δR`` to the shared base relation exactly once;
3. propagates ``δR`` through every skew-aware strategy tree and every
   indicator ``All`` tree that references ``R``, one traversal each;
4. routes the deltas of keys that are (or become) light into the light
   parts ``R^S``, propagating the induced change through the trees that
   reference the light part (skew trees and indicator ``L`` trees);
5. refreshes the heavy-indicator supports ``∃H`` of the affected triples,
   once per distinct key, and propagates any support change through the
   skew trees.

Grouping is sound because delta propagation is linear in the delta for
fixed sibling contents and every relation occurs at most once per tree
(footnote 2), so one grouped propagation equals the sum of the per-tuple
propagations; an event spanning several relations is processed one group
at a time, so each group joins against sibling contents that already
include the groups before it (the higher-order term ``δR ⋈ δS`` never
appears).

Rebalancing (threshold maintenance) is handled separately by
:mod:`repro.ivm.rebalance`, once per ingestion event, from the key grouping
step 1 computed.


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

from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.data.database import Database
from repro.data.partition import Partition
from repro.data.schema import Projector, Schema, ValueTuple
from repro.data.update import validate_groups
from repro.exceptions import UnknownRelationError, UnsupportedQueryError
from repro.engine.join import fold_join
from repro.ivm.delta import Delta, merge_delta, propagate_delta
from repro.query.atom import Atom
from repro.views.indicators import IndicatorTriple
from repro.views.skew import SkewAwarePlan


# One partition of the updated relation with ``δR`` grouped by its key.
KeyedGroup = Tuple[Partition, Dict[ValueTuple, Delta]]


class UpdateProcessor:
    """Applies relation groups ``δR`` to a materialized skew-aware plan."""

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
        # drained per commit by the serving layer.
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
            (other.variables, self.database.relation(other.relation))
            for other in self.query.atoms
            if other is not atom
        ]
        delta = fold_join(atom.variables, group, siblings, self.query.head)
        if capture is not None:
            if capture:
                merge_delta(capture, delta.items())
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

    def _propagate_to_trees(
        self, source_name: str, schema: Schema, delta: Delta
    ) -> None:
        """Propagate a leaf change through every skew-aware strategy tree."""
        for tree in self.plan.trees_referencing(source_name):
            propagate_delta(tree, source_name, schema, delta)

    def _propagate_light(self, partition: Partition, delta: Delta) -> None:
        """Propagate a light-part change through skew and indicator ``L`` trees."""
        light_name = partition.light.name
        schema = partition.base.schema
        self._propagate_to_trees(light_name, schema, delta)
        for triple in self.plan.light_triples_referencing(light_name):
            propagate_delta(triple.light_tree, light_name, schema, delta)

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
    # main entry points
    # ------------------------------------------------------------------
    def validate(self, groups: Mapping[str, Delta]) -> None:
        """Raise unless every group of one event can be applied; touch nothing.

        A relation outside the query, a tuple of the wrong arity or an
        over-delete anywhere rejects the event before any group is applied.
        """
        for relation_name in groups:
            self._atom_for(relation_name)
        validate_groups(groups, self.database)

    def apply_group(self, relation_name: str, group: Delta) -> List[KeyedGroup]:
        """Process ``δR = group`` (Figure 19, without rebalancing).

        Returns ``δR`` grouped by partition key for every partition of
        ``R``, in first-touched key order — the rebalance trigger checks
        exactly those keys afterwards and must not group them again.
        """
        relation = self.database.relation(relation_name)
        atom = self._atom_for(relation_name)
        schema: Schema = relation.schema

        # (1) one grouping per partition, and the light routing it induces:
        # a key's deltas route to the light part when the key is new to the
        # base relation (new keys start light, Definition 11) or currently
        # classified light.  Heavy keys absorb their deltas in the base
        # relation only; the rebalance check may move them later.
        keyed: List[KeyedGroup] = []
        routed: List[Tuple[Partition, Delta]] = []
        for partition in self.plan.partitions.partitions_of(relation_name):
            in_base = partition.base.ensure_index(partition.keys)
            in_light = partition.light.ensure_index(partition.keys)
            key_of = in_base.key_of
            by_key: Dict[ValueTuple, Delta] = {}
            for tup, mult in group.items():
                by_key.setdefault(key_of(tup), {})[tup] = mult
            light_delta: Delta = {}
            for key, key_group in by_key.items():
                if not in_base.contains_key(key) or in_light.contains_key(key):
                    light_delta.update(key_group)
            keyed.append((partition, by_key))
            if light_delta:
                routed.append((partition, light_delta))

        # (2) the shared base relation absorbs the group exactly once
        relation.apply_deltas(group.items())
        self._capture_group(relation_name, group)

        # (3) one traversal per strategy tree and indicator All tree
        self._propagate_to_trees(relation_name, schema, group)
        triples = self.plan.triples_referencing(relation_name)
        for triple in triples:
            propagate_delta(triple.all_tree, relation_name, schema, group)

        # (4) light-part routing
        for partition, light_delta in routed:
            partition.light.apply_deltas(light_delta.items())
            self._propagate_light(partition, light_delta)

        # (5) heavy-indicator refresh, once per distinct triple key
        for triple in triples:
            key_of = Projector(atom.variables, triple.keys).key_of
            for key in {key_of(tup) for tup in group}:
                self._refresh_indicator(triple, key)
        return keyed

    # ------------------------------------------------------------------
    # light-part moves (used by minor rebalancing)
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
        self._propagate_light(partition, deltas)
        variables = self._atom_for(relation_name).variables
        for triple in self.plan.light_triples_referencing(partition.light.name):
            self._refresh_indicator(
                triple, Projector(variables, triple.keys)(witness_tuple)
            )
