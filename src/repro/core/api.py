"""Public facade of the library: the IVM^ε engine.

:class:`HierarchicalEngine` ties everything together.  Typical use::

    from repro import Database, HierarchicalEngine

    db = Database.from_dict({
        "R": (("A", "B"), [(1, 10), (2, 10), (2, 20)]),
        "S": (("B", "C"), [(10, 7), (20, 8)]),
    })
    engine = HierarchicalEngine("Q(A, C) = R(A, B), S(B, C)", epsilon=0.5)
    engine.load(db)
    print(dict(engine.enumerate()))          # {(1, 7): 1, (2, 7): 1, (2, 8): 1}
    engine.update("R", (3, 20), +1)          # single-tuple insert
    print(engine.result())

Heavy update traffic should be ingested in *batches*: ``apply_batch``
consolidates a sequence of updates into its net per-relation deltas, applies
them to the base relations in one pass, propagates grouped deltas through
every affected view tree in a single traversal, and runs one deferred
rebalance check — amortizing the per-update overhead while producing the
same query result as replaying the updates one by one::

    from repro import Update, UpdateStream

    stream = UpdateStream([Update("R", (4, 20), 1), Update("S", (20, 9), 1)])
    engine.apply_batch(stream)               # one consolidated batch
    for batch in stream.batches(500):        # or: chunk a long stream
        engine.apply_batch(batch)
    engine.apply_stream(stream, batch_size=500)   # equivalent shorthand

The ``epsilon`` parameter is the paper's trade-off knob: preprocessing runs
in ``O(N^{1+(w−1)ε})``, enumeration delay is ``O(N^{1−ε})``, and (in dynamic
mode) single-tuple updates take ``O(N^{δε})`` amortized time, where ``w`` and
``δ`` are the static and dynamic widths of the query (Theorems 2 and 4).
The knob is *live*: :meth:`HierarchicalEngine.retune` switches a loaded
dynamic engine to a new ε in one major-rebalance pass, and
:mod:`repro.adaptive` drives it automatically from workload telemetry
(every engine carries a :class:`~repro.adaptive.WorkloadTelemetry`
collector recording per-operation update and enumeration costs).

Beyond a single engine, :class:`repro.sharding.ShardedEngine` mirrors this
facade (``apply_update`` / ``apply_batch`` / ``apply_stream`` /
``enumerate`` / ``check_invariants``) over a pool of per-shard
``HierarchicalEngine`` instances, hash-partitioned on the planner-chosen
shard key exposed here as the :attr:`HierarchicalEngine.shard_key`
property — the shard-aware planner gate: queries whose atoms share no
common variable are rejected for sharding even though a single engine
accepts them.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any, Dict, Optional, Tuple, Union

from repro.data.database import Database
from repro.data.schema import ValueTuple
from repro.data.update import (
    Event,
    MutationSurface,
    Retune,
    Update,
    as_batch,
    check_epsilon,
)
from repro.engine.materialize import materialize_plan, total_view_size
from repro.enumeration.result import ReadSurface, ResultEnumerator
from repro.exceptions import (
    DurabilityError,
    InvariantViolationError,
    ReproError,
    UnsupportedQueryError,
)
from repro.exceptions import StaleStateError
from repro.adaptive.telemetry import WorkloadTelemetry
from repro.durability.manager import (
    DurabilityConfig,
    DurabilityManager,
    coerce_config,
)
from repro.ivm.delta import merge_delta
from repro.ivm.rebalance import MaintenanceDriver, RebalanceStats
from repro.core.planner import (
    QueryPlan,
    coerce_query,
    instantiate_plan,
    plan_query,
)
from repro.rings.spec import AggregateSpec, Elements, MaintainedAggregate
from repro.snapshot.cow import CowTracker
from repro.snapshot.versioned import Snapshot, capture_snapshot
from repro.views.build import DYNAMIC_MODE, STATIC_MODE
from repro.views.skew import SkewAwarePlan


class HierarchicalEngine(ReadSurface, MutationSurface):
    """Static and dynamic evaluation of hierarchical queries with the ε trade-off."""

    def __init__(
        self,
        query,
        epsilon: float = 0.5,
        mode: str = DYNAMIC_MODE,
        enable_rebalancing: bool = True,
        copy_database: bool = True,
        telemetry: bool = True,
        durability: Union[DurabilityConfig, str, Path, None] = None,
    ) -> None:
        self.epsilon = check_epsilon(epsilon)
        self.mode = mode
        self.enable_rebalancing = enable_rebalancing
        self.copy_database = copy_database
        self.plan: QueryPlan = plan_query(coerce_query(query), mode)
        self.query = self.plan.query
        # Workload telemetry: every ingestion event and every enumeration
        # records its size and wall-clock cost here, feeding the adaptive ε
        # controller (repro.adaptive).  ``telemetry=False`` opts out
        # entirely — updates then skip the timing calls and enumeration
        # skips the recording wrapper.
        if not isinstance(telemetry, bool):
            raise TypeError(f"telemetry must be a bool, got {telemetry!r}")
        self.telemetry = WorkloadTelemetry() if telemetry else None
        self._database: Optional[Database] = None
        self._skew_plan: Optional[SkewAwarePlan] = None
        self._driver: Optional[MaintenanceDriver] = None
        self.preprocessing_seconds: Optional[float] = None
        # Threshold base used by static mode, frozen at load() so the
        # reported threshold can never drift from the one the views were
        # materialized with (dynamic mode reads the driver's base instead).
        self._static_threshold_base: Optional[float] = None
        # Bumped by every load(): snapshots and live enumerators created
        # against an earlier load raise StaleStateError instead of silently
        # reading the replaced state.
        self._generation = 0
        # Result-delta capture: None when off, otherwise the net result
        # delta since the last drain, folded by the _capture listener.  Like
        # the aggregates below, it is registered with every driver a load()
        # builds (see _listen), and starts empty there.
        self._captured: Optional[Dict[ValueTuple, int]] = None
        # Maintained aggregates keyed by AggregateSpec.key().  Each state
        # folds the per-commit result deltas of the maintenance layer into
        # {group: (support, ring element)}; the registry survives
        # load()/recovery — the states are refolded from a fresh
        # enumeration and re-subscribed to the new driver.
        self._aggregates: Dict[Tuple, MaintainedAggregate] = {}
        self._cow_tracker: Optional[CowTracker] = None
        # Durability: a directory (or DurabilityConfig) makes every accepted
        # update/batch/retune a fsynced WAL record and every Nth commit a
        # checkpoint; HierarchicalEngine.recover() rebuilds the exact engine
        # after a crash.  Dynamic mode only — static engines never mutate.
        if durability is not None and mode != DYNAMIC_MODE:
            raise DurabilityError(
                "durability requires mode='dynamic'; a static engine has no "
                "update stream to log"
            )
        self.durability: Optional[DurabilityConfig] = (
            coerce_config(durability) if durability is not None else None
        )
        self._durability: Optional[DurabilityManager] = None

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def static_width(self) -> float:
        """The query's static width ``w`` (Definition 15)."""
        return self.plan.static_width

    @property
    def dynamic_width(self) -> float:
        """The query's dynamic width ``δ`` (Definition 16)."""
        return self.plan.dynamic_width

    @property
    def classification(self):
        """Class membership summary of the query (Figure 2 landscape)."""
        return self.plan.classification

    @property
    def shard_key(self) -> str:
        """The variable a sharded deployment would hash-partition on.

        This is the shard-aware planner gate shared with
        :class:`repro.sharding.ShardedEngine` (whose ``shard_key``
        attribute holds the same value): the planner-chosen variable
        occurring in every atom (preferring free variables, then sorted
        order).  Raises
        :class:`~repro.exceptions.UnsupportedQueryError` for queries that
        cannot keep joins shard-local (disconnected bodies).
        """
        return self.plan.shard_key()

    @property
    def database(self) -> Database:
        self._require_loaded()
        assert self._database is not None
        return self._database

    @property
    def threshold_base(self) -> float:
        """The Definition 51 threshold base ``M`` — the single source of truth.

        Dynamic mode reads the rebalance driver's base (initialized to
        ``2N + 1`` and doubled/halved by major rebalancing under the
        invariant ``⌊M/4⌋ ≤ N < M``); static mode reads the base frozen at
        :meth:`load` time.  Every threshold this engine reports or checks
        derives from this one value — never from the live database size,
        which silently drifts from the driver's base between rebalances.
        """
        self._require_loaded()
        if self._driver is not None:
            return float(self._driver.threshold_base)
        assert self._static_threshold_base is not None
        return self._static_threshold_base

    @property
    def threshold(self) -> float:
        """The current heavy/light threshold ``M^ε`` (see :attr:`threshold_base`)."""
        self._require_loaded()
        if self._driver is not None:
            return self._driver.threshold
        assert self._static_threshold_base is not None
        return self._static_threshold_base ** self.epsilon

    @property
    def rebalance_stats(self) -> Optional[RebalanceStats]:
        return self._driver.stats if self._driver is not None else None

    @property
    def snapshot_stats(self) -> Optional[Dict[str, int]]:
        """How snapshot copy-on-write produced frozen content since ``load()``.

        ``full_copies`` whole-relation copies, ``copied_tuples`` their
        tuples, ``carried_indexes`` the indexes they inherited from the live
        relation, ``replayed_entries`` the redo-log entries replayed in place
        of a copy (:mod:`repro.snapshot.cow`): the work done is
        ``copied_tuples + replayed_entries``.  ``None`` before :meth:`load`;
        ``repro_snapshot_*`` on ``/metrics``.
        """
        tracker = self._cow_tracker
        return None if tracker is None else tracker.as_dict()

    def expected_exponents(self) -> Dict[str, float]:
        """The asymptotic exponents of Theorems 2/4 for this query and ε."""
        return self.plan.expected_exponents(self.epsilon)

    def view_size(self) -> int:
        """Total number of tuples stored across all materialized views."""
        self._require_loaded()
        assert self._skew_plan is not None
        return total_view_size(self._skew_plan)

    def check_invariants(self) -> None:
        """Deep consistency probe over the engine's internal structures.

        Verifies, for every heavy/light partition of the plan, that the
        light part is a sub-bag of its base relation and — when rebalancing
        is active — that the loose partition conditions of Definition 11
        hold at the current threshold; and, for every indicator triple,
        that the ``∃H`` support matches its definition.  Raises
        :class:`~repro.exceptions.InvariantViolationError` on the first
        violation.  The differential conformance harness
        (:mod:`repro.conformance`) calls this at every checkpoint so a
        maintenance bug surfaces even when it happens not to corrupt the
        enumerated result yet.
        """
        self._require_loaded()
        assert self._skew_plan is not None
        rebalanced = self.mode == DYNAMIC_MODE and self.enable_rebalancing
        threshold = self.threshold
        for partition in self._skew_plan.partitions.partitions():
            if rebalanced:
                partition.check_loose(threshold)
            else:
                partition.check_consistency()
        for triple in self._skew_plan.indicator_triples:
            if not triple.check_support():
                raise InvariantViolationError(
                    f"heavy-indicator support {triple.exists_heavy.name} does "
                    "not match its definition"
                )

    def explain(self) -> str:
        """Human-readable description of the plan and, if loaded, the view trees."""
        parts = [self.plan.describe(), f"epsilon: {self.epsilon}", f"mode: {self.mode}"]
        if self._skew_plan is not None:
            parts.append(self._skew_plan.describe())
        return "\n".join(parts)

    # ------------------------------------------------------------------
    # preprocessing
    # ------------------------------------------------------------------
    def load(self, database: Database) -> "HierarchicalEngine":
        """Run the preprocessing stage on ``database``.

        With ``copy_database=True`` (the default) the engine operates on a
        private copy, so the caller's relations are never mutated by updates.
        """
        self._build(database.copy() if self.copy_database else database)
        if self.durability is not None:
            if self._durability is not None:
                self._durability.close()
            self._durability = DurabilityManager(self, self.durability)
            self._durability.start_fresh()
        return self

    def _restore_from_checkpoint(self, state: Dict[str, Any]) -> None:
        """Rebuild this engine's loaded state from a checkpoint state dict.

        The recovery counterpart of :meth:`load`: the database is rebuilt
        in its serialized insertion order (which seeds index iteration
        order and hence enumeration order), and the driver's version,
        Definition-51 threshold base, and counters are restored *before*
        the views are materialized — materialization must run at the
        restored threshold, not at the fresh ``2N + 1`` the driver's
        constructor picks.  Only :mod:`repro.durability.recovery` calls
        this.
        """
        self._build(
            Database.from_rows(
                {name: (schema, rows) for name, schema, rows in state["relations"]}
            ),
            state,
        )

    def _build(self, database: Database, state: Optional[Dict[str, Any]] = None) -> None:
        """The one build of the loaded state over ``database``: plan, driver,
        views and aggregates, timed as preprocessing.  ``state`` is a
        checkpoint's, whose version, threshold base, counters and telemetry
        the driver takes before anything is materialized."""
        self._generation += 1
        self._cow_tracker = CowTracker()
        self._database = database
        started = time.perf_counter()
        self._skew_plan = instantiate_plan(self.plan, database)
        if self.mode == DYNAMIC_MODE:
            self._driver = MaintenanceDriver(
                self._skew_plan,
                database,
                self.epsilon,
                enable_rebalancing=self.enable_rebalancing,
                telemetry=self.telemetry,
            )
            if state is not None:
                self._driver.version = int(state["version"])
                self._driver.threshold_base = int(state["threshold_base"])
                self._driver.stats = RebalanceStats.from_dict(state["stats"])
                if self.telemetry is not None and state.get("telemetry"):
                    self.telemetry.restore_state(state["telemetry"])
            if self._captured is not None:
                self._captured = {}
            self._static_threshold_base = None
        else:
            self._driver = None
            self._static_threshold_base = max(1.0, float(database.size))
        materialize_plan(self._skew_plan, self.threshold)
        self._reattach_listeners()
        self.preprocessing_seconds = time.perf_counter() - started

    def _attach_durability(self, manager: DurabilityManager) -> None:
        """Adopt a recovery-built manager as this engine's commit path."""
        self._durability = manager
        self.durability = manager.config

    @classmethod
    def recover(
        cls,
        directory: Union[str, Path],
        durability: Union[DurabilityConfig, str, Path, None] = None,
    ) -> Tuple["HierarchicalEngine", "Any"]:
        """Rebuild the durable engine persisted in ``directory``.

        Loads the newest valid checkpoint, replays the WAL tail through
        the normal ingestion paths, verifies the final version, and
        returns ``(engine, report)`` — the engine already appending to
        the recovered WAL.  See :mod:`repro.durability.recovery`.
        """
        from repro.durability.recovery import recover_engine

        return recover_engine(directory, durability)

    def checkpoint(self) -> Path:
        """Write a checkpoint now; returns once the file is durable.

        Durable engines checkpoint in the background whenever the WAL
        outgrows ``checkpoint_ratio`` × the last checkpoint; this forces
        one between schedule points — before a planned shutdown, say, so
        recovery replays an empty tail.  The engine itself is only read.
        """
        self._require_dynamic()
        if self._durability is None:
            raise DurabilityError(
                "this engine has no durability directory; pass durability=... "
                "to the constructor"
            )
        return self._durability.checkpoint()

    @property
    def durability_stats(self):
        """WAL/checkpoint counters, or ``None`` when not durable."""
        return self._durability.stats if self._durability is not None else None

    def close(self) -> None:
        """Flush and close the durability manager, if any (idempotent).

        Waits for a checkpoint still being written in the background, so
        the directory is quiescent on return.  The on-disk state stays
        recoverable; a closed engine can keep serving reads but the next
        ``apply`` would raise.
        """
        if self._durability is not None:
            self._durability.close()

    def _require_loaded(self) -> None:
        if self._skew_plan is None:
            raise ReproError("the engine has no database; call load() first")

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def _generation_validator(self):
        """A check bound to the current load; raises once load() replaces it."""
        generation = self._generation
        def _check() -> None:
            if self._generation != generation:
                raise StaleStateError(
                    "the engine's database was replaced by load() after this "
                    "snapshot/enumerator was created; capture a new one"
                )
        return _check

    def enumerate(self) -> ResultEnumerator:
        """Return an enumerator over the distinct result tuples.

        The enumerator is bound to the current load: if :meth:`load` replaces
        the database while it is (or before it is) consumed, iteration raises
        :class:`~repro.exceptions.StaleStateError` rather than reflecting a
        mixture of old and new state.
        """
        self._require_loaded()
        assert self._skew_plan is not None
        return ResultEnumerator(
            self._skew_plan,
            self.query,
            validator=self._generation_validator(),
            telemetry=self.telemetry,
        )

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Number of ingestion events absorbed since :meth:`load` (0 static)."""
        self._require_loaded()
        return self._driver.version if self._driver is not None else 0

    def snapshot(self) -> Snapshot:
        """Capture an immutable handle onto the engine's current version.

        The capture is ``O(plan)`` — it records the strategy-tree structure
        and registers with the copy-on-write tracker the relations the
        compiled enumeration plans read, each copied only once the
        maintenance path is about to overwrite it or the snapshot reads it.
        The :class:`~repro.snapshot.versioned.Snapshot` answers
        ``enumerate()`` / ``result()`` / ``lookup()`` in this engine's order
        at capture while updates and rebalances keep flowing.

        Must not be called concurrently with a mutating call on the same
        engine; :class:`repro.core.serving.EngineServer` serializes capture
        against its writer for multi-threaded deployments.  A snapshot
        outliving a subsequent :meth:`load` raises
        :class:`~repro.exceptions.StaleStateError` on every read.
        """
        self._require_loaded()
        assert self._skew_plan is not None and self._cow_tracker is not None
        return capture_snapshot(
            self._cow_tracker,
            self._skew_plan.component_trees,
            self.query,
            self.version,
            validity=self._generation_validator(),
        )

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def commit(self, event: Event) -> None:
        """Ingest one event, then make it durable; every mutation lands here.

        An :class:`~repro.data.update.Update` is the paper's single-tuple
        ``δR = {x → m}``; an :class:`~repro.data.update.UpdateBatch` — or a
        raw list of updates, consolidated here — is ingested in one
        grouped pass, all or nothing; a :class:`~repro.data.update.Retune`
        switches ε in one major-rebalance pass (see :meth:`retune`).  The
        version ticks once per event.  On a durable engine the event is
        then one WAL record, appended, flushed and fsynced before this
        returns: the log holds only *accepted* events, so a rejected
        over-delete can never poison a recovery replay, and a crash between
        ingest and log loses exactly the unacknowledged event.
        """
        self._require_dynamic()
        if isinstance(event, Update):
            self._driver.on_update(event)
        elif isinstance(event, Retune):
            self._driver.retune(event.epsilon)
            self.epsilon = event.epsilon
        else:
            event = as_batch(event)
            self._driver.on_batch(event)
        if self._durability is not None:
            self._durability.commit(event, self.version)

    def _require_dynamic(self) -> None:
        self._require_loaded()
        if self.mode != DYNAMIC_MODE or self._driver is None:
            raise UnsupportedQueryError(
                "updates require mode='dynamic'; this engine was built for "
                "static evaluation"
            )

    # ------------------------------------------------------------------
    # result-delta capture (push-based serving)
    # ------------------------------------------------------------------
    def set_delta_capture(self, enabled: bool) -> None:
        """Start (or stop) accumulating per-commit result-level deltas.

        With capture on, the engine's accumulator is one more result-delta
        listener of the maintenance layer (:mod:`repro.ivm.maintenance`):
        it folds the induced change of the *query result* — the first-order
        delta of each of a commit's net per-relation groups, computed inside
        the normal maintenance pass — into a net delta that
        :meth:`drain_result_delta` returns and clears.  This is what powers
        push-based subscriptions (:mod:`repro.net`): subscribers receive the
        drained delta per commit instead of re-enumerating.  Rebalances and
        retunes never contribute (they reorganize views without changing the
        result).  Dynamic mode only; survives :meth:`load`, which starts the
        accumulator empty.  The caller owns the drain cadence — an enabled
        capture that is never drained grows with the net result churn.
        """
        if enabled and self.mode != DYNAMIC_MODE:
            raise UnsupportedQueryError(
                "delta capture requires mode='dynamic'; a static engine has "
                "no update stream to capture deltas from"
            )
        if bool(enabled) != (self._captured is not None):
            self._captured = {} if enabled else None
            self._listen()

    def _capture(self, delta: Dict[ValueTuple, int]) -> None:
        """The capture listener: fold one group's result delta in.  A
        commit's first group (its only one, for a commit on a single
        relation) is adopted, not re-added entry by entry."""
        if self._captured:
            merge_delta(self._captured, delta.items())
        else:
            self._captured = delta

    def drain_result_delta(self) -> Dict[ValueTuple, int]:
        """Return and clear the net result delta accumulated since last drain.

        Empty when capture is off (see :meth:`set_delta_capture`) or when
        the commits since the last drain cancelled out.
        """
        if self._captured is None:
            return {}
        drained, self._captured = self._captured, {}
        return drained

    # ------------------------------------------------------------------
    # ring-annotated aggregates
    # ------------------------------------------------------------------
    def _reattach_listeners(self) -> None:
        """Refold the maintained aggregates after a (re)load and register
        them, after the capture listener, with the new driver.

        Every load rebuilds the maintenance driver, dropping its delta
        listeners; the capture accumulator and the spec registry live on
        the engine, so each state is refolded from one fresh enumeration of
        the new database.  The internal enumeration bypasses telemetry:
        rebuilds are preprocessing, not workload reads.
        """
        if self._driver is None:
            # A static reload cannot maintain state; drop the registry so
            # reads fall back to enumerate-and-fold instead of serving a
            # frozen aggregate as if it were live.
            self._aggregates.clear()
            return
        for state in self._aggregates.values():
            state.rebuild(ResultEnumerator(self._skew_plan, self.query))
        self._listen()

    def _listen(self) -> None:
        """Hand the driver the engine's result-delta listeners: the capture
        accumulator when on, then every maintained aggregate."""
        if self._driver is not None:
            capture = [] if self._captured is None else [self._capture]
            self._driver.processor.delta_listeners = capture + [
                state.on_delta for state in self._aggregates.values()
            ]

    def register_aggregate(self, spec: AggregateSpec) -> MaintainedAggregate:
        """Install (or fetch) the maintained state for ``spec``.

        First registration costs one enumerate-and-fold over the current
        result; afterwards every commit updates the state in O(delta) via
        the maintenance layer's result-delta listeners, and reads are
        O(groups) — no enumeration.  The registry is keyed by
        :meth:`~repro.rings.spec.AggregateSpec.key`, so registering the
        same spec twice returns the same state.  Dynamic mode only.
        """
        self._require_dynamic()
        assert self._driver is not None and self._skew_plan is not None
        key = spec.key()
        state = self._aggregates.get(key)
        if state is None:
            state = MaintainedAggregate(spec, self.query.head)
            state.rebuild(ResultEnumerator(self._skew_plan, self.query))
            self._aggregates[key] = state
            self._listen()
        return state

    @property
    def registered_aggregates(self) -> Tuple[AggregateSpec, ...]:
        """Specs currently maintained by this engine (registration order)."""
        return tuple(state.spec for state in self._aggregates.values())

    def aggregate_elements(
        self, spec: AggregateSpec, maintained: bool = True
    ) -> Elements:
        """Raw ``{group: (support, element)}``, maintained when dynamic.

        The read behind the inherited ``aggregate``; the sharded facade, the
        shard servers and the serving layer call it directly.  A maintained
        read registers ``spec`` on first use and records its cost into the
        workload telemetry; the fold records through ``enumerate()``.
        """
        self._require_loaded()
        if not maintained or self._driver is None:
            return super().aggregate_elements(spec)
        state = self.register_aggregate(spec)
        started = time.perf_counter()
        elements = state.elements()
        if self.telemetry is not None:
            self.telemetry.record_read(len(elements), time.perf_counter() - started)
        return elements

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HierarchicalEngine({self.query!s}, epsilon={self.epsilon}, "
            f"mode={self.mode!r})"
        )


class StaticEngine(HierarchicalEngine):
    """Convenience subclass for static evaluation (Theorem 2)."""

    def __init__(self, query, epsilon: float = 0.5) -> None:
        super().__init__(query, epsilon=epsilon, mode=STATIC_MODE)


class DynamicEngine(HierarchicalEngine):
    """Convenience subclass for dynamic evaluation (Theorem 4)."""

    def __init__(self, query, epsilon: float = 0.5, enable_rebalancing: bool = True) -> None:
        super().__init__(
            query, epsilon=epsilon, mode=DYNAMIC_MODE, enable_rebalancing=enable_rebalancing
        )
