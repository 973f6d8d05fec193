"""Rebalancing and the ``OnUpdate`` trigger (Section 6.2, Figures 20–22).

The dynamic engine keeps a *threshold base* ``M`` with the size invariant
``⌊M/4⌋ ≤ N < M`` (Definition 51); the heavy/light threshold is ``M^ε``.

* **Major rebalancing** fires when the invariant breaks (the database doubled
  or shrank enough): ``M`` is doubled or roughly halved, every partition is
  strictly repartitioned with the new threshold, and every view is
  recomputed.  Amortized over Ω(M) updates this costs ``O(N^{(w−1)ε})`` per
  update (Proposition 25 and Appendix F.4).
* **Minor rebalancing** fires when one partition key drifts across the loose
  thresholds of Definition 11: its tuples are moved into or out of the light
  part and the affected views and indicators are refreshed (Proposition 26).

Both checks run once per ingestion event, after the whole event — one update
(:meth:`MaintenanceDriver.on_update`) or one consolidated
:class:`~repro.data.update.UpdateBatch` (:meth:`MaintenanceDriver.on_batch`)
— has been absorbed: the size invariant is restored (doubling/halving ``M``
as often as needed, since one batch can overshoot more than one doubling;
one update never needs more than one) and each partition key the event
touched gets exactly one minor-rebalance check.  Between a batch's internal
updates the loose invariants may transiently be violated; they are
re-established before the call returns, which is all the amortized analysis
needs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import List, Mapping

from repro.data.database import Database
from repro.data.partition import Partition
from repro.data.schema import ValueTuple
from repro.data.update import Update, UpdateBatch
from repro.engine.materialize import materialize_plan
from repro.ivm.delta import Delta
from repro.ivm.maintenance import KeyedGroup, UpdateProcessor
from repro.stats import Family, metric
from repro.views.skew import SkewAwarePlan


@dataclass
class RebalanceStats(Family):
    """Counters describing rebalancing activity (``repro_rebalance_*``).

    Sharded execution keeps one :class:`MaintenanceDriver` per shard so
    minor/major rebalances stay shard-local; the facade reports a fleet view
    by folding the per-shard counters together (:meth:`Family.merged`).
    """

    PREFIX = "repro_rebalance"

    updates: int = metric("Single-tuple updates processed by the maintenance driver.")
    batches: int = metric("Consolidated batches processed by the maintenance driver.")
    minor_rebalances: int = metric("Minor (per-key) heavy/light rebalances.")
    major_rebalances: int = metric("Major (full repartition) rebalances.")
    moved_to_light: int = metric("Keys demoted from the heavy to the light partition.")
    moved_to_heavy: int = metric("Keys promoted from the light to the heavy partition.")
    retunes: int = metric("Explicit epsilon retunes (each is a major rebalance).")


class MaintenanceDriver:
    """The ``OnUpdate`` trigger: update processing plus rebalancing."""

    def __init__(
        self,
        plan: SkewAwarePlan,
        database: Database,
        epsilon: float,
        enable_rebalancing: bool = True,
        telemetry=None,
    ) -> None:
        self.plan = plan
        self.database = database
        self.epsilon = epsilon
        self.enable_rebalancing = enable_rebalancing
        self.processor = UpdateProcessor(plan, database)
        self.stats = RebalanceStats()
        # Optional repro.adaptive.WorkloadTelemetry: when present, every
        # ingestion event records its source-update count and wall-clock
        # cost, feeding the adaptive ε controller.
        self.telemetry = telemetry
        # Monotonically increasing engine version: one tick per ingestion
        # event (a single-tuple update, a consolidated batch, or a retune).
        # Snapshots (repro.snapshot) are stamped with this counter, so "the
        # engine at version v" means "after the first v ingestion events".
        self.version = 0
        # Definition 51: the initial threshold base is 2N + 1.  This field
        # is the single source of truth for threshold derivation — every
        # code path that needs the heavy/light threshold must read
        # :attr:`threshold` (or this base) rather than recomputing a power
        # of the live database size, which silently drifts from the
        # Definition 51 invariant between rebalances.
        self.threshold_base = 2 * database.size + 1

    # ------------------------------------------------------------------
    @property
    def threshold(self) -> float:
        """The current heavy/light threshold ``M^ε``."""
        return self.threshold_base ** self.epsilon

    def _size_invariant_holds(self) -> bool:
        size = self.database.size
        return (self.threshold_base // 4) <= size < self.threshold_base

    # ------------------------------------------------------------------
    def retune(self, epsilon: float) -> None:
        """Switch the live trade-off knob to ``epsilon`` (one major rebalance).

        Re-anchors the threshold base at ``M = 2N + 1`` — exactly what a
        fresh :meth:`~repro.core.api.HierarchicalEngine.load` at the current
        database would choose — drops the base relations' secondary indexes
        (so index iteration order, which seeds the light parts and view
        contents, matches a fresh build instead of reflecting pre-retune
        churn), strictly repartitions every partition at the new ``M^ε``,
        and recomputes every view.  The result: a retuned engine is
        indistinguishable — result *and* enumeration order — from a new
        engine constructed at ``epsilon`` over the current database.  Open
        snapshots keep reading their capture-time state through the
        copy-on-write tracker, exactly as across any major rebalance.

        Counted in ``stats.retunes`` (not in ``major_rebalances``, which
        tracks size-invariant-triggered rebuilds) and ticks the version so
        snapshot stamps order retunes with the ingestion events around them.
        Works with ``enable_rebalancing=False`` too — the new base simply
        stays put afterwards.
        """
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")
        self.epsilon = epsilon
        self.threshold_base = 2 * self.database.size + 1
        self.stats.retunes += 1
        self.version += 1
        self.rematerialize()

    def rematerialize(self) -> None:
        """Normalize the live state: fresh index order, views rebuilt.

        Drops every base relation's secondary indexes and recomputes every
        view at the *current* threshold (no re-anchoring, no version tick).
        Afterwards the engine's full state — index iteration order, light
        parts, view contents, and hence enumeration order — is a pure
        function of (base-relation insertion order, ``threshold_base``,
        ε), with no residue of pre-call churn.  :meth:`retune` uses this
        after re-anchoring ``M``; the durability contract is stated with
        it (a recovered engine and the one that never crashed enumerate
        identically once both are normalised), though the durability layer
        itself never calls it (:class:`repro.durability.DurabilityManager`).
        """
        for relation in self.database:
            relation.invalidate_indexes()
        materialize_plan(self.plan, self.threshold)

    # ------------------------------------------------------------------
    def on_update(self, update: Update) -> None:
        """Process one update and rebalance if necessary (Figure 22).

        ``|δR| = 1``: a one-entry group through the same path as a batch.
        A rejected update raises with nothing touched.
        """
        self._ingest({update.relation: {update.tuple: update.multiplicity}}, 1)

    def on_batch(self, batch: UpdateBatch) -> None:
        """Process one consolidated batch: all of it, or none of it.

        The batch is validated up front, so a rejected one raises before
        any relation, view or indicator is touched (unlike a stream of
        single updates, where a mid-stream rejection keeps the updates that
        preceded it).
        """
        self._ingest(batch.deltas_by_relation(), batch.source_count)
        self.stats.batches += 1

    def _ingest(self, groups: Mapping[str, Delta], source_count: int) -> None:
        """One ingestion event: validate, ``UpdateTrees`` per group, one trigger."""
        self.processor.validate(groups)
        started = time.perf_counter()
        touched: List[KeyedGroup] = []
        for relation_name, group in groups.items():
            touched.extend(self.processor.apply_group(relation_name, group))
        self.stats.updates += source_count
        self.version += 1
        if self.enable_rebalancing:
            self._rebalance(touched)
        if self.telemetry is not None:
            self.telemetry.record_update(
                source_count, time.perf_counter() - started
            )

    def _rebalance(self, touched: List[KeyedGroup]) -> None:
        """The trigger of Figure 22 for the keys one event ``touched``."""
        size = self.database.size
        resized = False
        while size >= self.threshold_base:
            self.threshold_base = 2 * self.threshold_base
            resized = True
        while size < (self.threshold_base // 4):
            halved = max(1, self.threshold_base // 2 - 1)
            if halved == self.threshold_base:
                break
            self.threshold_base = halved
            resized = True
        if resized:
            self._major_rebalance()
            return
        threshold = self.threshold
        for partition, by_key in touched:
            name = partition.base.name
            for key, key_group in by_key.items():
                self._check_partition_key(
                    partition, key, next(iter(key_group)), name, threshold
                )

    # ------------------------------------------------------------------
    def _major_rebalance(self) -> None:
        """Figure 20: strictly repartition and recompute every view."""
        self.stats.major_rebalances += 1
        materialize_plan(self.plan, self.threshold)

    def _check_partition_key(
        self,
        partition: Partition,
        key: ValueTuple,
        witness: ValueTuple,
        relation_name: str,
        threshold: float,
    ) -> None:
        """Figure 21/22: move one key across the heavy/light border if it drifted.

        ``witness`` is any update tuple carrying ``key``; the move projects
        it onto the keys of the indicator triples it refreshes.
        """
        light_degree = partition.light_degree(key)
        base_degree = partition.base_degree(key)
        if light_degree == 0 and 0 < base_degree < 0.5 * threshold:
            self.stats.minor_rebalances += 1
            self.stats.moved_to_light += base_degree
            self.processor.move_partition_key(
                partition, key, True, witness, relation_name
            )
        elif light_degree >= 1.5 * threshold:
            self.stats.minor_rebalances += 1
            self.stats.moved_to_heavy += light_degree
            self.processor.move_partition_key(
                partition, key, False, witness, relation_name
            )
