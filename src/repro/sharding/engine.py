"""The sharded maintenance engine: hash-partitioned IVM^ε.

:class:`ShardedEngine` mirrors the :class:`~repro.core.api.HierarchicalEngine`
facade over a fleet of per-shard engines:

* **routing** — base relations are hash-partitioned on the planner-chosen
  shard key (a variable occurring in every atom, see
  :func:`repro.core.planner.choose_shard_key`), so joins, delta propagation,
  and minor/major rebalancing are shard-local by construction;
* **updates** — every mutation is one *event* value (an update, a batch, a
  raw update list, a retune) committed through one protocol,
  :meth:`ShardedEngine._dispatch`, which routes it by type, dry-runs it on
  every involved shard when it spans several, then sends each shard its
  part as one ``commit`` command in one executor round; live commits, the
  reshard tail replay and
  :class:`~repro.durability.supervisor.ShardSupervisor` all share it;
* **enumeration** — every shard enumerates its result in the canonical
  order and :func:`repro.enumeration.union.merge_shards` performs an
  order-preserving k-way merge, summing multiplicities of tuples produced
  by several shards (possible only when the shard key is bound);
* **invariants** — ``check_invariants`` runs every shard's deep probe plus
  the cross-shard placement check (every stored tuple hashes to the shard
  holding it);
* **snapshots** — ``snapshot`` captures every shard at a consistent
  version in one executor round and answers reads through the same k-way
  merge, so maintenance keeps flowing while readers enumerate an immutable
  :class:`ShardedSnapshot` (see :mod:`repro.snapshot`);
* **resharding** — ``reshard(new_count)`` changes the shard count online:
  a snapshot-consistent cut is exported, re-routed into a fresh fleet at
  the new count, the tail of updates committed since the cut is replayed,
  and the fleet swaps atomically — live snapshots stay pinned on the old
  fleet, and durable deployments write a barrier record so ``recover()``
  comes back at the new count (see ``docs/architecture.md`` §14).

Why shard at all?  Each shard plans against its own (four-times-smaller, at
four shards) database, so its heavy/light threshold ``M_shard^ε`` drops:
join keys whose degree sits between the per-shard and the global threshold
flip from the light regime (every update pays ``O(degree)`` propagation
into materialized join views) to the heavy regime (updates cost ``O(1)``;
the work is deferred to enumeration).  On skewed update traffic this is a
superlinear win per shard *before* any parallelism — and the process
executor adds real parallelism on multi-core hosts.  The flip side: more
heavy keys means more enumeration-time work and the merge gives up the
single engine's native enumeration order for the canonical one; see
``docs/architecture.md`` §9 for when shard count > 1 loses.
"""

from __future__ import annotations

import os
import shutil
import threading
import time
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.adaptive.telemetry import WorkloadTelemetry
from repro.core.planner import QueryPlan, coerce_query, plan_query
from repro.data.database import Database
from repro.data.schema import ValueTuple
from repro.data.update import (
    Event,
    MutationSurface,
    Retune,
    Update,
    UpdateBatch,
    check_epsilon,
)
from repro.durability.crashpoints import SimulatedCrashError, crash_point
from repro.durability.manager import (
    FLEET_META_NAME,
    DurabilityConfig,
    coerce_config,
    read_fleet_meta,
    write_fleet_meta,
)
from repro.enumeration.union import merge_shards
from repro.exceptions import (
    DurabilityError,
    ReproError,
    StaleStateError,
    UnsupportedQueryError,
)
from repro.ivm.delta import merge_delta
from repro.ivm.rebalance import RebalanceStats
from repro.rings.base import Ring
from repro.rings.spec import (
    AggregateSpec,
    Elements,
    answer_map,
    fold_result,
    merge_elements,
)
from repro.sharding.executor import EXECUTORS, ShardExecutor
from repro.sharding.router import ShardRouter
from repro.views.build import DYNAMIC_MODE

# Below this database size the automatic executor stays in-process: the
# per-update pipe/pickle overhead of worker processes only amortizes once
# shards hold enough data for maintenance work to dominate dispatch.
SMALL_N_THRESHOLD = 50_000


def _map_round(
    executor: ShardExecutor, commands: Dict[int, Tuple[str, Any]], mutating: bool
) -> None:
    """The default round runner: one executor round, a dead worker raises."""
    executor.map(commands)


class ShardMergeEnumerator:
    """Iterable over the merged shard enumerations (mirrors ResultEnumerator)."""

    def __init__(self, engine: "ShardedEngine") -> None:
        self._engine = engine
        self._generation = engine._generation

    def __iter__(self) -> Iterator[Tuple[ValueTuple, int]]:
        self._engine._check_generation(self._generation)
        # Facade-level read telemetry: the clock covers the per-shard
        # enumeration broadcast AND the k-way merge, partial (page) reads
        # included.  Like ResultEnumerator, the shard work is deferred to
        # the first next() of the generator.
        telemetry = self._engine.telemetry
        if telemetry is None:
            return self._merged()
        return telemetry.recorded_read(self._merged())

    def _merged(self) -> Iterator[Tuple[ValueTuple, int]]:
        yield from merge_shards(self._engine._sorted_shard_results())

    def to_dict(self) -> Dict[ValueTuple, int]:
        """Materialize the merged enumeration into ``{tuple: multiplicity}``."""
        return {tup: mult for tup, mult in self}

    def count_distinct(self) -> int:
        """Number of distinct result tuples across all shards."""
        return sum(1 for _ in self)


class _FleetHandle:
    """One shard fleet (executor + router) with pin-based retirement.

    Mirrors the serving layer's ``_PublishedVersion`` close-once idiom: a
    reshard retires the old fleet, but :class:`ShardedSnapshot`\\ s captured
    before the swap hold pins and keep reading their per-shard
    copy-on-write captures through the old executor; the executor shuts
    down when the last pin drains.  ``load()``/``close()`` force-close
    regardless of pins — snapshots from a replaced *load* already raise
    :class:`StaleStateError` by generation, exactly as before resharding
    existed.
    """

    __slots__ = (
        "executor",
        "router",
        "executor_name",
        "epoch",
        "_lock",
        "_pins",
        "_retired",
        "_closed",
    )

    def __init__(
        self,
        executor: ShardExecutor,
        router: ShardRouter,
        executor_name: str,
        epoch: int,
    ) -> None:
        self.executor = executor
        self.router = router
        self.executor_name = executor_name
        self.epoch = epoch
        self._lock = threading.Lock()
        self._pins = 0
        self._retired = False
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def pin(self) -> None:
        with self._lock:
            self._pins += 1

    def unpin(self) -> None:
        with self._lock:
            self._pins -= 1
            should_close = self._retired and self._pins <= 0 and not self._closed
            if should_close:
                self._closed = True
        if should_close:
            self.executor.close()

    def retire(self) -> None:
        """No new pins will arrive; close as soon as the held ones drain."""
        with self._lock:
            self._retired = True
            should_close = self._pins <= 0 and not self._closed
            if should_close:
                self._closed = True
        if should_close:
            self.executor.close()

    def force_close(self) -> None:
        """Close now, pins or not (load()/close() semantics)."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
        self.executor.close()


class _ReshardPlan:
    """In-flight state of one reshard, threaded through the three phases.

    Created by :meth:`ShardedEngine.begin_reshard` (the cut), filled in
    by :meth:`ShardedEngine.build_reshard` (the new fleet), consumed by
    :meth:`ShardedEngine.finish_reshard` (tail replay + barrier + swap).
    """

    __slots__ = ("new_count", "cut_epsilon", "payloads", "fleet", "epoch")

    def __init__(self, new_count: int, cut_epsilon: float, payloads: List[Any]) -> None:
        self.new_count = new_count
        self.cut_epsilon = cut_epsilon
        self.payloads = payloads
        self.fleet: Optional[_FleetHandle] = None
        self.epoch = 0


class ShardedSnapshot:
    """An immutable handle onto one version of a sharded deployment.

    Capture takes one shard-local :class:`repro.snapshot.Snapshot` per shard
    in a single executor round (cheap: no view content is copied); reads
    fetch each shard snapshot's canonical enumeration and run them through
    the same order-preserving k-way merge as live sharded enumeration, so
    the sequence is exactly what ``engine.enumerate()`` produced at the
    captured version.  ``version`` counts the facade's ingestion events
    (one per ``apply`` / ``apply_batch`` / ``apply_stream`` chunk), and
    ``shard_versions`` records each shard's own event counter at capture.
    """

    def __init__(
        self,
        engine: "ShardedEngine",
        fleet: _FleetHandle,
        snapshot_ids: Dict[int, int],
        shard_versions: Tuple[int, ...],
        version: int,
    ) -> None:
        self._engine = engine
        self._generation = engine._generation
        # Pin the fleet the capture was taken on: a later reshard retires
        # the fleet but cannot close it while this snapshot reads through
        # it — the executor shuts down when the last pre-reshard snapshot
        # closes (the COW/pin retirement contract).
        self._fleet = fleet
        fleet.pin()
        self._snapshot_ids = dict(snapshot_ids)
        self.shard_versions = shard_versions
        self.version = version
        self._closed = False

    # ------------------------------------------------------------------
    def _executor(self) -> ShardExecutor:
        if self._closed:
            raise StaleStateError("this sharded snapshot has been closed")
        self._engine._check_generation(self._generation)
        if self._fleet.closed:
            raise StaleStateError(
                "the shard fleet this snapshot was captured on has shut down"
            )
        return self._fleet.executor

    def enumerate(self) -> Iterator[Tuple[ValueTuple, int]]:
        """Merged canonical enumeration of the captured per-shard results."""
        executor = self._executor()
        results = executor.map(
            {
                shard: ("snap_enumerate", snapshot_id)
                for shard, snapshot_id in self._snapshot_ids.items()
            }
        )
        return merge_shards([results[shard] for shard in sorted(results)])

    def result(self) -> Dict[ValueTuple, int]:
        """Materialize the captured result as ``{tuple: multiplicity}``."""
        return {tup: mult for tup, mult in self.enumerate()}

    def count_distinct(self) -> int:
        """Number of distinct result tuples in the captured version."""
        return sum(1 for _ in self.enumerate())

    def aggregate(self, ring, value=None, group_by=None) -> Dict[ValueTuple, Any]:
        """Aggregate the captured merged result as ``{group: answer}``.

        Folds over this snapshot's own merged enumeration (the same
        fold as :meth:`HierarchicalEngine.aggregate` with
        ``maintained=False``), so the answer is frozen at the captured
        version regardless of how far the live fleet has moved on.
        """
        spec = AggregateSpec.coerce(ring, value, group_by)
        head = tuple(self._engine.query.head)
        return answer_map(spec, fold_result(spec, head, self.enumerate()))

    def lookup(self, tup: ValueTuple) -> int:
        """Multiplicity of one full result tuple (summed across shards)."""
        executor = self._executor()
        tup = tuple(tup)
        results = executor.map(
            {
                shard: ("snap_lookup", (snapshot_id, tup))
                for shard, snapshot_id in self._snapshot_ids.items()
            }
        )
        return sum(results.values())

    def __iter__(self) -> Iterator[Tuple[ValueTuple, int]]:
        return self.enumerate()

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release the per-shard snapshots (idempotent; survives re-loads)."""
        if self._closed:
            return
        self._closed = True
        fleet = self._fleet
        try:
            if self._engine._generation == self._generation and not fleet.closed:
                fleet.executor.map(
                    {
                        shard: ("snap_release", snapshot_id)
                        for shard, snapshot_id in self._snapshot_ids.items()
                    }
                )
        finally:
            # Always drop the pin — when this was the last pre-reshard
            # snapshot on a retired fleet, the old executor closes here.
            fleet.unpin()

    def __enter__(self) -> "ShardedSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class ShardedEngine(MutationSurface):
    """Hash-partitioned evaluation of one hierarchical query over k shards."""

    def __init__(
        self,
        query,
        shards: int = 4,
        epsilon: float = 0.5,
        mode: str = DYNAMIC_MODE,
        enable_rebalancing: bool = True,
        executor: str = "auto",
        shard_key: Optional[str] = None,
        telemetry: Union[WorkloadTelemetry, bool, None] = None,
        durability: Union[DurabilityConfig, str, Path, None] = None,
    ) -> None:
        if shards <= 0:
            raise ValueError(f"shard count must be positive, got {shards}")
        if executor not in ("auto", *EXECUTORS):
            raise ValueError(
                f"unknown executor {executor!r}; choose one of "
                f"{('auto', *EXECUTORS)}"
            )
        self.plan: QueryPlan = plan_query(coerce_query(query), mode)
        self.query = self.plan.query
        self.shards = shards
        # fail here like the single-engine facade, not in a worker process
        self.epsilon = check_epsilon(epsilon)
        self.mode = mode
        self.enable_rebalancing = enable_rebalancing
        self.executor_choice = executor
        # Facade-level workload telemetry: ingestion and merged-enumeration
        # events are recorded here (per-shard engines keep their own), so
        # an AdaptiveController can drive the whole deployment.  Pass
        # ``telemetry=False`` to opt out, as on HierarchicalEngine.
        if telemetry is False:
            self.telemetry: Optional[WorkloadTelemetry] = None
        elif telemetry is None or telemetry is True:
            self.telemetry = WorkloadTelemetry()
        else:
            self.telemetry = telemetry
        if durability is not None and mode != DYNAMIC_MODE:
            raise DurabilityError(
                "durability requires the dynamic engine (the WAL is keyed "
                f"by the maintenance version); mode is {mode!r}"
            )
        # Per-shard durability: shard i logs and checkpoints under
        # ``<directory>/shard-<i>`` (see DurabilityConfig.for_shard), so a
        # dead worker's state survives the process and ShardSupervisor can
        # restart-and-recover exactly that shard.
        self.durability: Optional[DurabilityConfig] = (
            None if durability is None else coerce_config(durability)
        )
        # the shard-aware planner gate: raises for unshardable queries
        self.router = ShardRouter(self.query, shards, shard_key)
        self.shard_key = self.router.shard_key
        # The caller's shard-key choice (None = planner-chosen), kept so a
        # reshard builds its new router from the same constraint.
        self._shard_key_choice = shard_key
        self._executor: Optional[ShardExecutor] = None
        # The current fleet handle (executor + router + retirement pins)
        # and the fleet epoch: 0 at load, +1 per completed reshard.  The
        # epoch keys the durability directory layout (see
        # DurabilityConfig.for_epoch) so a mid-reshard crash recovers at
        # exactly the old or the new fleet, never a hybrid.
        self._fleet: Optional[_FleetHandle] = None
        self._epoch = 0
        # While a reshard is in flight (between begin_reshard and
        # finish_reshard) every mutating call is buffered here, after it
        # applied to the current fleet, for tail replay onto the new one.
        self._reshard_tail: Optional[List[Event]] = None
        # Fleets retired by reshard but still pinned by live snapshots;
        # close() force-closes them so worker processes never outlive the
        # deployment.
        self._retired_fleets: List[_FleetHandle] = []
        # How a live event's shard rounds are executed (see _dispatch).
        # ShardSupervisor installs its guarded runner here — the whole
        # interface between supervision and the facade.
        self._run_round = _map_round
        # Bumped by every load(); snapshots and enumerators created against
        # an earlier load raise StaleStateError instead of silently reading
        # the replaced deployment.
        self._generation = 0
        # Facade-level ingestion counter: one tick per apply / apply_batch
        # (and per apply_stream chunk), mirroring the single engine's
        # MaintenanceDriver.version.
        self._version = 0
        # Result-delta capture flag, re-broadcast to the shards on every
        # load()/recover() so a serving layer that enabled it keeps
        # receiving per-commit deltas across reloads.
        self._capture_deltas = False
        # Registered aggregate specs, keyed by AggregateSpec.key().  Like
        # the capture flag, the registry lives on the facade and is
        # re-broadcast whenever a fleet is (re)built — load, recover, and
        # reshard — so every worker maintains the same aggregate states.
        self._agg_specs: Dict[Tuple, AggregateSpec] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def _resolve_executor(self, database_size: int) -> str:
        if self.executor_choice != "auto":
            return self.executor_choice
        cores = os.cpu_count() or 1
        if (
            self.shards > 1
            and cores > 1
            and database_size >= SMALL_N_THRESHOLD
        ):
            return "process"
        # small N (and single-core hosts): the plain in-process loop — the
        # thread pool measured no faster on any workload (ROADMAP item 5)
        return "serial"

    def _start_fleet(
        self,
        router: ShardRouter,
        databases: List[Optional[Database]],
        database_size: int,
        epsilon: float,
        epoch: int,
    ) -> _FleetHandle:
        """Start one executor with a shard engine per entry of ``databases``.

        ``None`` entries recover from the shard's durability directory
        instead of loading; durable fleets log under ``epoch``'s tree.
        """
        executor_name = self._resolve_executor(database_size)
        executor = EXECUTORS[executor_name]()
        executor.start(
            str(self.query),
            {
                "epsilon": epsilon,
                "mode": self.mode,
                "enable_rebalancing": self.enable_rebalancing,
                "copy_database": False,
            },
            databases,
            router.shard_key,
            None if self.durability is None else self.durability.for_epoch(epoch),
        )
        return _FleetHandle(executor, router, executor_name, epoch)

    def _adopt_fleet(self, fleet: _FleetHandle) -> None:
        """Make ``fleet`` the live one, with the facade's serving state on it."""
        if self._capture_deltas:
            fleet.executor.broadcast("set_delta_capture", True)
        for spec in self._agg_specs.values():
            fleet.executor.broadcast("register_aggregate", spec.to_wire())
        self.router = fleet.router
        self.shards = fleet.router.shards
        self.shard_key = fleet.router.shard_key
        self.executor_name = fleet.executor_name
        self._executor = fleet.executor
        self._fleet = fleet
        self._epoch = fleet.epoch

    def load(self, database: Database) -> "ShardedEngine":
        """Split ``database`` across the shards and preprocess each shard.

        Splitting always copies, so the caller's relations are never shared
        with (or mutated by) the shard engines.
        """
        if self._executor is not None:
            self.close()
        self._generation += 1
        self._version = 0
        self._reshard_tail = None
        if self.durability is not None:
            self._wipe_fleet_history()
        self._adopt_fleet(
            self._start_fleet(
                self.router,
                self.router.split_database(database),
                database.size,
                self.epsilon,
                0,
            )
        )
        return self

    def recover(self) -> "ShardedEngine":
        """Restart every shard from its own durability directory.

        The deployment must have been constructed with the same query and
        ``durability`` directory as the one that wrote the shards' WALs
        and checkpoints.  When a fleet barrier record exists (written by
        :meth:`finish_reshard`), recovery comes back at the *recorded*
        shard count and epoch — the constructed count is only the
        fallback for never-resharded deployments — so a reshard survives
        the crash of every process that knew about it.  Each worker
        recovers independently (newest valid checkpoint + WAL-tail
        replay, see :func:`repro.durability.recovery.recover_engine`);
        the facade adopts the ε the shards recovered at (shards that
        disagree raise :class:`DurabilityError`), and its ingestion
        counter resumes at the barrier version
        plus the maximum per-shard progress since the barrier — an exact
        count when all shards die together (every facade event ticks
        every involved shard at most once), and a lower bound otherwise.
        """
        if self.durability is None:
            raise DurabilityError(
                "this deployment has no durability directory to recover from"
            )
        if self._executor is not None:
            self.close()
        self._generation += 1
        self._reshard_tail = None
        meta = read_fleet_meta(self.durability.directory)
        baselines: Optional[List[int]] = None
        meta_version = 0
        epoch = 0
        if meta is not None:
            count = int(meta["shards"])
            epoch = int(meta.get("epoch", 0))
            meta_version = int(meta.get("version", 0))
            if count != self.shards:
                self.router = ShardRouter(self.query, count, self._shard_key_choice)
                self.shards = count
            raw = meta.get("shard_versions")
            if isinstance(raw, list) and len(raw) == count:
                baselines = [int(value) for value in raw]
        self._adopt_fleet(
            self._start_fleet(
                self.router,
                [None] * self.shards,
                SMALL_N_THRESHOLD,
                self.epsilon,
                epoch,
            )
        )
        # ε is shard state: a retune committed after the barrier lives only
        # in the shards' WALs, and the next reshard cuts at self.epsilon.
        epsilons = self._executor.broadcast("epsilon")
        if len(set(epsilons)) > 1:
            self.close()
            raise DurabilityError(
                "the shards recovered at different ε ("
                + ", ".join(f"shard {i}: {eps}" for i, eps in enumerate(epsilons))
                + "); their durability directories do not share one history"
            )
        self.epsilon = epsilons[0]
        shard_versions = self.shard_versions()
        if meta is None:
            self._version = max(shard_versions)
        elif baselines is not None:
            progress = max(
                (version - base for version, base in zip(shard_versions, baselines)),
                default=0,
            )
            self._version = meta_version + max(0, progress)
        else:
            self._version = max(meta_version, max(shard_versions))
        return self

    def close(self) -> None:
        """Shut down the executor (terminates worker processes, if any).

        Force-closes the current fleet regardless of snapshot pins (their
        handles raise :class:`StaleStateError` afterwards), closes any
        fleets retired by reshard but still pinned, and drops an
        in-flight reshard tail.
        """
        if self._fleet is not None:
            self._fleet.force_close()
            self._fleet = None
        self._executor = None
        for fleet in self._retired_fleets:
            fleet.force_close()
        self._retired_fleets = []
        self._reshard_tail = None

    def __enter__(self) -> "ShardedEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:  # pragma: no cover - interpreter teardown
        try:
            self.close()
        except Exception:
            pass

    def _require_loaded(self) -> ShardExecutor:
        if self._executor is None:
            raise ReproError("the engine has no database; call load() first")
        return self._executor

    def _check_generation(self, generation: int) -> None:
        if self._generation != generation:
            raise StaleStateError(
                "the sharded deployment was replaced by load() after this "
                "snapshot/enumerator was created; capture a new one"
            )

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def _dispatch(
        self, fleet: _FleetHandle, event: Event, run_round=_map_round
    ) -> int:
        """The sharded ingest protocol, once: route, validate round, apply round.

        An :class:`Update` goes to its shard; an :class:`UpdateBatch` is
        split by net entry (an empty net effect is no shard work at all); a
        raw update list is routed *before* consolidation, so per-shard
        ``source_count`` is exact (a sub-batch that cancels still reaches,
        and ticks, its shard like the unsharded driver); a :class:`Retune`
        goes to every shard.  Every shard receives its part as one
        ``("commit", event)`` command.  Returns the number of source
        updates routed.  ``run_round(executor, commands, mutating)``
        executes one ``{shard: (command, payload)}`` round: live events
        pass the facade's runner, which a supervisor may have replaced; the
        reshard tail replay keeps the default.
        """
        executor, router = fleet.executor, fleet.router
        if isinstance(event, Retune):
            commands = {shard: ("commit", event) for shard in range(executor.shard_count)}
            source_count = 0
        elif isinstance(event, Update):
            commands = {router.shard_of_update(event): ("commit", event)}
            source_count = 1
        else:
            if isinstance(event, UpdateBatch):
                subs = router.split_batch(event)
            else:
                subs = router.split_updates(event)
            if len(subs) > 1:
                # All-or-nothing across shards, like the single engine's
                # batch path: every involved shard dry-runs its over-delete
                # checks before any shard applies anything, so a rejected
                # sub-batch raises with no shard modified.
                validations = {shard: ("validate", sub) for shard, sub in subs.items()}
                run_round(executor, validations, False)
            commands = {shard: ("commit", sub) for shard, sub in subs.items()}
            source_count = sum(sub.source_count for sub in subs.values())
        if commands:
            run_round(executor, commands, True)
        return source_count

    def commit(self, event: Event) -> None:
        """One live event: the protocol on the current fleet, then bookkeeping.

        Ingestion is all-or-nothing across shards: a rejected sub-batch
        raises with no shard modified.  The facade version ticks once per
        event; a :class:`Retune` switches every shard's ε in one round
        (each a shard-local retune), and the merged enumeration afterwards
        equals a fresh sharded deployment built at that ε.
        """
        self._require_loaded()
        started = time.perf_counter()
        source_count = self._dispatch(self._fleet, event, self._run_round)
        if self._reshard_tail is not None:
            # A reshard is in flight: buffer the event for replay onto the
            # new fleet.  Only what the current fleet accepted gets here —
            # a rejected over-delete raised above and must not replay either.
            self._reshard_tail.append(event)
        self._version += 1
        if isinstance(event, Retune):
            self.epsilon = event.epsilon
        elif self.telemetry is not None:
            self.telemetry.record_update(
                source_count, time.perf_counter() - started
            )

    # ------------------------------------------------------------------
    # enumeration
    # ------------------------------------------------------------------
    def _sorted_shard_results(self) -> List[List[Tuple[ValueTuple, int]]]:
        return self._require_loaded().broadcast("enumerate")

    def enumerate(self) -> ShardMergeEnumerator:
        """Enumerate distinct result tuples in canonical order.

        The merged sequence contains exactly the single-engine result —
        same tuples, same multiplicities — ordered by
        :func:`repro.enumeration.union.canonical_sort_key` instead of the
        single engine's tree order.
        """
        self._require_loaded()
        return ShardMergeEnumerator(self)

    def result(self) -> Dict[ValueTuple, int]:
        """Materialize the full result as ``{tuple: multiplicity}``."""
        return self.enumerate().to_dict()

    def count_distinct(self) -> int:
        """Number of distinct result tuples."""
        return self.enumerate().count_distinct()

    def __iter__(self) -> Iterator[Tuple[ValueTuple, int]]:
        return iter(self.enumerate())

    # ------------------------------------------------------------------
    # snapshots
    # ------------------------------------------------------------------
    @property
    def version(self) -> int:
        """Facade-level ingestion counter (ticks per apply / apply_batch)."""
        self._require_loaded()
        return self._version

    def shard_versions(self) -> Tuple[int, ...]:
        """Every shard's own ingestion-event counter, in shard order."""
        return tuple(self._require_loaded().broadcast("version"))

    def snapshot(self) -> ShardedSnapshot:
        """Capture every shard at a consistent version in one round.

        Each shard takes a local :meth:`HierarchicalEngine.snapshot` (no
        view content is copied) and the facade records the handle ids;
        reads merge the per-shard captures through the canonical k-way
        merge, so the snapshot enumerates exactly what live sharded
        enumeration produced at this version.  Like the single-engine
        capture, this must not race a mutating call —
        :class:`repro.core.serving.EngineServer` (or any external lock)
        serializes capture against the writer; reads need no lock at all.
        """
        executor = self._require_loaded()
        replies = executor.map(
            {shard: ("snapshot", None) for shard in range(executor.shard_count)}
        )
        snapshot_ids = {shard: replies[shard][0] for shard in replies}
        shard_versions = tuple(
            replies[shard][1] for shard in range(executor.shard_count)
        )
        assert self._fleet is not None  # _require_loaded() passed
        return ShardedSnapshot(
            self, self._fleet, snapshot_ids, shard_versions, self._version
        )

    # ------------------------------------------------------------------
    # result-delta capture (push-based serving)
    # ------------------------------------------------------------------
    def set_delta_capture(self, enabled: bool) -> None:
        """Start (or stop) per-commit result-delta capture on every shard.

        Mirrors :meth:`HierarchicalEngine.set_delta_capture`: each shard
        accumulates its shard-local first-order result deltas inside the
        normal maintenance pass, and :meth:`drain_result_delta` sums the
        shard dicts — joins are shard-local by construction, so the global
        result delta is exactly the sum of the per-shard ones.  Survives
        :meth:`load` and :meth:`recover`.
        """
        if enabled and self.mode != DYNAMIC_MODE:
            raise UnsupportedQueryError(
                "delta capture requires the dynamic engine; a static "
                "deployment has no update stream to capture deltas from"
            )
        self._capture_deltas = bool(enabled)
        if self._executor is not None:
            self._executor.broadcast("set_delta_capture", self._capture_deltas)

    def drain_result_delta(self) -> Dict[ValueTuple, int]:
        """Return and clear the fleet's net result delta since last drain."""
        executor = self._require_loaded()
        merged: Dict[ValueTuple, int] = {}
        for pairs in executor.broadcast("drain_delta"):
            merge_delta(merged, pairs)
        return merged

    # ------------------------------------------------------------------
    # ring-annotated aggregates
    # ------------------------------------------------------------------
    @staticmethod
    def _coerce_spec(
        ring: Union[Ring, str, AggregateSpec], value=None, group_by=None
    ) -> AggregateSpec:
        spec = AggregateSpec.coerce(ring, value, group_by)
        # Fail the way the shard pipe would, but at the facade: callable
        # value selectors cannot cross a worker boundary.
        spec.to_wire()
        return spec

    def register_aggregate(self, spec: AggregateSpec) -> None:
        """Install the maintained state for ``spec`` on every shard.

        The registry survives :meth:`load`, :meth:`recover`, and
        :meth:`reshard` — the facade re-broadcasts its specs whenever a
        fleet is (re)built, exactly as the delta-capture flag is
        re-applied.  Dynamic mode only (mirrors
        :meth:`HierarchicalEngine.register_aggregate`).
        """
        if self.mode != DYNAMIC_MODE:
            raise UnsupportedQueryError(
                "maintained aggregates require the dynamic engine; a static "
                "deployment answers by enumerate-and-fold via aggregate()"
            )
        spec = self._coerce_spec(spec)
        self._agg_specs[spec.key()] = spec
        if self._executor is not None:
            self._executor.broadcast("register_aggregate", spec.to_wire())

    @property
    def registered_aggregates(self) -> Tuple[AggregateSpec, ...]:
        """Specs currently maintained by the fleet (registration order)."""
        return tuple(self._agg_specs.values())

    def aggregate_elements(
        self, spec: AggregateSpec, maintained: bool = True
    ) -> Elements:
        """Merged raw ``{group: (support, element)}`` across all shards.

        One executor round collects every shard's partial aggregate
        (supports + un-finalized ring elements), then
        :func:`~repro.rings.spec.merge_elements` adds them up — grouped
        aggregation is a ring homomorphism of the shard decomposition, so
        the merge is O(groups), never an enumeration.
        """
        executor = self._require_loaded()
        if maintained and self.mode == DYNAMIC_MODE:
            if spec.key() not in self._agg_specs:
                self.register_aggregate(spec)
        merged: Elements = {}
        for partial in executor.broadcast("aggregate", (spec.to_wire(), maintained)):
            merge_elements(spec.ring, merged, partial.items())
        return merged

    def aggregate(
        self,
        ring: Union[Ring, str, AggregateSpec],
        value=None,
        group_by=None,
        *,
        maintained: bool = True,
    ) -> Dict[ValueTuple, Any]:
        """Answer one aggregate over the merged result as ``{group: answer}``.

        Same surface as :meth:`HierarchicalEngine.aggregate`; the answer
        equals the single-engine aggregate over the union of the shards.
        Partial aggregates cross the shard boundary as raw supports and
        ring elements and are finalized (``ring.answer``) only here at
        the facade edge, because answers do not compose across shards in
        general.  The read — shard broadcast plus merge — records into
        the facade's workload telemetry like a merged enumeration.
        """
        self._require_loaded()
        spec = self._coerce_spec(ring, value, group_by)
        started = time.perf_counter() if self.telemetry is not None else 0.0
        merged = self.aggregate_elements(spec, maintained=maintained)
        answers = answer_map(spec, merged)
        if self.telemetry is not None:
            self.telemetry.record_read(
                len(answers), time.perf_counter() - started
            )
        return answers

    # ------------------------------------------------------------------
    # elastic resharding
    # ------------------------------------------------------------------
    @property
    def epoch(self) -> int:
        """Fleet epoch: 0 at load, +1 per completed reshard.

        Keys the durability layout (``epoch-<n>/shard-<i>``, with epoch 0
        as the legacy root layout) so recovery can tell which fleet's
        history is authoritative.
        """
        return self._epoch

    def reshard(self, new_count: int) -> None:
        """Switch the deployment to ``new_count`` shards online.

        The synchronous form of the three-phase protocol — cut, build,
        swap — with no writer interleaved, so the tail is empty.  A
        serving layer that must keep committing during the (expensive)
        build phase calls the phases directly::

            plan = engine.begin_reshard(k)   # under the write lock
            engine.build_reshard(plan)       # lock released; writes flow
            engine.finish_reshard(plan)      # under the write lock

        Afterwards the merged enumeration, result, and invariants equal a
        fresh deployment at ``new_count`` over the same data (the
        conformance bar); the facade version ticks once, like
        :meth:`retune`.  Snapshots captured before the reshard keep
        reading their version through the retired fleet, which shuts
        down when the last of them closes.
        """
        plan = self.begin_reshard(new_count)
        try:
            self.build_reshard(plan)
        except SimulatedCrashError:
            raise  # a simulated process death runs no cleanup, like SIGKILL
        except BaseException:
            self.abort_reshard(plan)
            raise
        self.finish_reshard(plan)

    def begin_reshard(self, new_count: int) -> _ReshardPlan:
        """Phase 1/3: capture a snapshot-consistent cut of every shard.

        Brief — one export broadcast — and must not race a mutating call
        (the serving layer holds its write lock).  After it returns,
        writes may resume: they land on the current fleet as usual *and*
        are buffered for tail replay onto the new one.
        """
        if new_count <= 0:
            raise ValueError(f"shard count must be positive, got {new_count}")
        executor = self._require_loaded()
        if self._reshard_tail is not None:
            raise ReproError("a reshard is already in progress")
        payloads = executor.broadcast("export")
        self._reshard_tail = []
        return _ReshardPlan(
            new_count=new_count,
            cut_epsilon=self.epsilon,
            payloads=payloads,
        )

    def build_reshard(self, plan: _ReshardPlan) -> None:
        """Phase 2/3: build and load the new fleet (expensive, lock-free).

        Merges the exported shard cuts, re-routes them through a router
        at the new count, and preprocesses fresh per-shard engines — at
        the ε of the cut (a retune committed since the cut is in the tail
        and replays in order).  Durable deployments start the new fleet
        under the *next epoch's* directory, so the old fleet's history
        stays authoritative until the barrier record commits the swap.
        Delta capture stays off on the new fleet until the swap: the
        events it would capture during tail replay were already captured
        (and drained) on the old fleet, and phantom deltas must never
        reach subscribers.
        """
        combined = Database()
        for payload in plan.payloads:
            combined.add_rows(payload)
        router = ShardRouter(self.query, plan.new_count, self._shard_key_choice)
        plan.epoch = self._epoch + 1
        plan.fleet = self._start_fleet(
            router,
            router.split_database(combined),
            combined.size,
            plan.cut_epsilon,
            plan.epoch,
        )

    def finish_reshard(self, plan: _ReshardPlan) -> None:
        """Phase 3/3: replay the tail, write the barrier, swap the fleet.

        Must not race a mutating call.  The tail replays through
        :meth:`_dispatch`, the function live events go through, so the new
        fleet's per-shard version accounting matches a fresh deployment
        fed the same stream.  Durable
        deployments then publish the fleet barrier record: its atomic
        rename is the commit point — recovery lands at the old fleet
        before it and the new fleet after it, never a hybrid.  Finally
        the facade swaps routers/executors, ticks its version once, and
        retires the old fleet (closed when its last snapshot pin drains).
        """
        self._require_loaded()
        if plan.fleet is None:
            raise ReproError("finish_reshard called before build_reshard")
        new_executor = plan.fleet.executor
        crash_point("reshard-prepare")
        for event in self._reshard_tail or []:
            crash_point("reshard-tail")
            self._dispatch(plan.fleet, event)
        version_after = self._version + 1  # the reshard ticks once, like retune
        if self.durability is not None:
            write_fleet_meta(
                self.durability.directory,
                {
                    "shards": plan.new_count,
                    "epoch": plan.epoch,
                    "version": version_after,
                    "shard_versions": list(new_executor.broadcast("version")),
                    "epsilon": self.epsilon,
                },
                fsync=self.durability.fsync,
            )
        crash_point("reshard-swap")
        old_fleet = self._fleet
        self._adopt_fleet(plan.fleet)
        self._reshard_tail = None
        self._version = version_after
        old_fleet.retire()
        self._retired_fleets = [
            fleet for fleet in (*self._retired_fleets, old_fleet) if not fleet.closed
        ]
        if self.durability is not None:
            self._cleanup_old_epochs(keep=plan.epoch)

    def abort_reshard(self, plan: _ReshardPlan) -> None:
        """Cancel an in-flight reshard; the current fleet never stopped.

        Drops the tail buffer and the partially built fleet.  Best
        effort on disk: the new epoch's durability tree is removed, and
        since the barrier record was never written, recovery was never
        at risk either way.
        """
        self._reshard_tail = None
        if plan.fleet is not None:
            plan.fleet.force_close()
            plan.fleet = None
        if self.durability is not None and plan.epoch > 0:
            # Never delete an epoch the barrier already committed to: an
            # abort racing a written barrier must leave recovery intact.
            meta = read_fleet_meta(self.durability.directory)
            if meta is None or int(meta.get("epoch", 0)) != plan.epoch:
                shutil.rmtree(
                    self.durability.for_epoch(plan.epoch).directory,
                    ignore_errors=True,
                )

    def _wipe_fleet_history(self) -> None:
        """Erase fleet-level durability state before a fresh load.

        Mirrors ``DurabilityManager.start_fresh`` at the fleet level: a
        re-load replaces the deployment wholesale, so a stale barrier
        record or a superseded epoch tree could only mislead a later
        recovery.
        """
        root = self.durability.path
        if not root.exists():
            return
        for name in (FLEET_META_NAME, FLEET_META_NAME + ".tmp"):
            try:
                (root / name).unlink()
            except OSError:
                pass
        for entry in root.iterdir():
            if entry.is_dir() and (
                entry.name.startswith("epoch-") or entry.name.startswith("shard-")
            ):
                shutil.rmtree(entry, ignore_errors=True)

    def _cleanup_old_epochs(self, keep: int) -> None:
        """Best-effort pruning of durability trees from superseded epochs.

        Runs after the barrier rename, so a crash anywhere in here leaves
        stale trees that recovery ignores (it follows the barrier
        record).  The old fleet stopped receiving commits at the swap;
        on POSIX its open WAL handles survive the unlink.
        """
        root = self.durability.path
        try:
            entries = list(root.iterdir())
        except OSError:
            return
        for entry in entries:
            if not entry.is_dir():
                continue
            if entry.name.startswith("shard-") and keep != 0:
                shutil.rmtree(entry, ignore_errors=True)
            elif entry.name.startswith("epoch-"):
                try:
                    epoch = int(entry.name.split("-", 1)[1])
                except ValueError:
                    continue
                if epoch != keep:
                    shutil.rmtree(entry, ignore_errors=True)

    # ------------------------------------------------------------------
    # introspection and invariants
    # ------------------------------------------------------------------
    def check_invariants(self) -> None:
        """Run every shard's deep probe plus the cross-shard placement check.

        Aggregates :meth:`HierarchicalEngine.check_invariants` across
        shards and additionally verifies that every stored base tuple
        hashes to the shard holding it, so a routing bug surfaces even
        before it corrupts a result.
        """
        self._require_loaded().broadcast("check")

    @property
    def rebalance_stats(self) -> Optional[RebalanceStats]:
        """Fleet-wide rebalancing counters (sum over shards; None if static)."""
        per_shard = self.rebalance_stats_per_shard()
        real = [stats for stats in per_shard if stats is not None]
        if not real:
            return None
        return RebalanceStats.merged(real)

    def rebalance_stats_per_shard(self) -> List[Optional[RebalanceStats]]:
        """Per-shard rebalancing counters, in shard order."""
        return self._require_loaded().stats()

    def view_size(self) -> int:
        """Total tuples stored across all shards' materialized views."""
        return sum(self._require_loaded().broadcast("view_size"))

    def shard_sizes(self) -> Tuple[int, ...]:
        """Base-database size of every shard, in shard order."""
        return tuple(self._require_loaded().broadcast("size"))

    def thresholds(self) -> Tuple[float, ...]:
        """Every shard's current heavy/light threshold ``M_shard^ε``.

        Shards plan against their own sizes, so these are *smaller* than a
        single engine's threshold over the union — the source of both the
        update-time win and the extra enumeration-time work.
        """
        return tuple(self._require_loaded().broadcast("threshold"))

    def explain(self) -> str:
        """Human-readable description of the sharded deployment."""
        lines = [
            self.plan.describe(),
            f"epsilon: {self.epsilon}",
            f"mode: {self.mode}",
            f"shards: {self.shards} (key {self.shard_key!r}, "
            f"{'free' if self.router.key_is_free else 'bound'})",
        ]
        if self._executor is not None:
            lines.append(f"executor: {self.executor_name}")
            lines.append(f"shard sizes: {list(self.shard_sizes())}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedEngine({self.query!s}, shards={self.shards}, "
            f"epsilon={self.epsilon}, executor={self.executor_choice!r})"
        )
