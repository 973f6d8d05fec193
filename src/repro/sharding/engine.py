"""The sharded maintenance engine: hash-partitioned IVM^ε.

:class:`ShardedEngine` mirrors the :class:`~repro.core.api.HierarchicalEngine`
facade over a fleet of per-shard engines:

* **routing** — base relations are hash-partitioned on the planner-chosen
  shard key (a variable occurring in every atom, see
  :func:`repro.core.planner.choose_shard_key`), so joins, delta propagation,
  and minor/major rebalancing are shard-local by construction;
* **updates** — every mutation is one *event* value (an update, a batch, a
  raw update list, a retune) committed through one protocol,
  :meth:`ShardedEngine._dispatch`: the router decides each shard's part
  (:meth:`~repro.sharding.router.ShardRouter.route`), every involved shard
  dry-runs its sub-batch when a batch spans several, then each shard gets
  its part as one ``commit`` command in one executor round; live commits
  and the reshard tail replay share it;
* **rounds** — every shard command, reads and snapshot reads included, is
  one round of :meth:`ShardedEngine._round`; on the live fleet of a
  durable deployment a round that finds a dead worker restarts it from its
  durability directory and re-runs (read) or reconciles (commit) the round
  there (see ``docs/architecture.md`` §12);
* **reads** — ``snapshot`` captures every shard at one version in one
  round, and ``enumerate()`` reads such a :class:`ShardedSnapshot`: Figure
  15's Union (:func:`repro.enumeration.union.union`) over one page cursor
  per shard (:class:`_ShardCursors`), so maintenance keeps flowing under
  readers; ``aggregate_elements`` merges the shards' partial aggregates,
  and the rest of the read API is inherited from
  :class:`~repro.enumeration.result.ReadSurface`, as on the single engine;
* **invariants** — ``check_invariants`` runs every shard's deep probe plus
  the cross-shard placement check (every stored tuple hashes to the shard
  holding it);
* **resharding** — ``reshard(new_count)`` changes the shard count online:
  a snapshot-consistent cut is exported, re-routed into a fresh fleet at
  the new count, the tail of updates committed since the cut is replayed,
  and the fleet swaps atomically — live snapshots stay pinned on the old
  fleet (its :class:`~repro.snapshot.versioned.PinCount`, the close-once
  count a served version has too, shuts it down when the last one
  closes), and durable deployments write a barrier record so ``recover()``
  comes back at the new count (see ``docs/architecture.md`` §14).

Why shard at all?  Each shard plans against its own, smaller database, so
its heavy/light threshold ``M_shard^ε`` drops: join keys whose degree sits
between the per-shard and the global threshold flip from the light regime
(``O(degree)`` propagation per update) to the heavy one (``O(1)``, the work
deferred to enumeration) — a superlinear win per shard on skewed update
traffic before any parallelism.  ``docs/architecture.md`` §9 says when
shard count > 1 loses.
"""

from __future__ import annotations

import itertools
import os
import shutil
import threading
import time
from collections import deque
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Any, Deque, Dict, Iterable, Iterator, List, Optional, Set, Tuple, Union

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
from repro.enumeration.result import ReadSurface
from repro.enumeration.union import Source, union
from repro.exceptions import (
    DurabilityError,
    ReproError,
    StaleStateError,
    UnsupportedQueryError,
    WorkerDiedError,
)
from repro.ivm.delta import merge_delta
from repro.ivm.rebalance import RebalanceStats
from repro.rings.spec import AggregateSpec, Elements, merge_elements
from repro.sharding.executor import EXECUTORS, ShardExecutor
from repro.sharding.router import ShardRouter
from repro.snapshot.versioned import PinCount
from repro.stats import Family, metric
from repro.views.build import DYNAMIC_MODE

# Below this database size the automatic executor stays in-process: the
# per-update pipe/pickle overhead of worker processes only amortizes once
# shards hold enough data for maintenance work to dominate dispatch.
SMALL_N_THRESHOLD = 50_000

# Pairs per ``snap_page`` round.  On ``fraud`` (4 shards, bound key) a first
# read of 100 took 10 ms at pages of 50 or 100 and 31 ms at 200.
PAGE_SIZE = 100


@dataclass
class ShardRestartStats(Family):
    """Dead workers a durable fleet restarted, exported on /metrics (counted
    under the facade's restart lock)."""

    restarts: int = metric(
        "Dead shard workers restarted from their durability directories.",
        name="repro_shard_restarts_total",
    )


class _FleetHandle(PinCount):
    """One shard fleet (executor + router), closed through its pin count.

    A reshard retires the old fleet, but :class:`ShardedSnapshot`\\ s
    captured before the swap hold pins and keep reading their per-shard
    copy-on-write captures through the old executor; the executor shuts
    down when the last pin drains.  ``load()``/``close()`` force-close
    regardless of pins — snapshots from a replaced *load* already raise
    :class:`StaleStateError` by generation, exactly as before resharding
    existed.
    """

    __slots__ = ("router", "executor_name", "epoch", "acked", "ids", "_dropped")

    def __init__(
        self,
        executor: ShardExecutor,
        router: ShardRouter,
        executor_name: str,
        epoch: int,
    ) -> None:
        super().__init__(executor)
        self.router = router
        self.executor_name = executor_name
        self.epoch = epoch
        # Every shard's engine version as of its last acknowledged commit:
        # what a healed commit round reconciles against (ShardedEngine._round).
        self.acked = [0] * router.shards
        # Snapshot and cursor ids, and per shard the ids let go of without a
        # round, which that shard's next snapshot round releases.
        self.ids = itertools.count(1)
        self._dropped: List[Deque[int]] = [deque() for _ in range(router.shards)]

    @property
    def executor(self) -> ShardExecutor:
        return self.resource

    def drop(self, shards: Iterable[int], handle_id: int) -> None:
        for shard in shards:
            self._dropped[shard].append(handle_id)

    def drops(self, shard: int) -> List[int]:
        queue, taken = self._dropped[shard], []
        while True:  # popleft is atomic; another round may be taking too
            try:
                taken.append(queue.popleft())
            except IndexError:
                return taken


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


class ShardedSnapshot(ReadSurface):
    """An immutable handle onto one version of a sharded deployment.

    Capture takes one shard-local :class:`repro.snapshot.Snapshot` per shard
    in a single executor round (cheap: no view content is copied); each
    :meth:`enumerate` call opens its own cursors, so one published snapshot
    serves many readers.  ``version`` counts the facade's ingestion events
    (one per ``apply`` / ``apply_batch`` / ``apply_stream`` chunk), and
    ``shard_versions`` records each shard's own event counter at capture.
    """

    def __init__(
        self,
        engine: "ShardedEngine",
        fleet: _FleetHandle,
        snapshot_id: int,
        shard_versions: Tuple[int, ...],
        version: int,
    ) -> None:
        self._engine = engine
        self.query = engine.query
        self._generation = engine._generation
        # Pin the fleet the capture was taken on: a later reshard retires
        # the fleet but cannot close it while this snapshot reads through
        # it — the executor shuts down when the last pre-reshard snapshot
        # closes (the COW/pin retirement contract).
        self._fleet = fleet
        fleet.pin()
        self._id = snapshot_id
        self.shard_versions = shard_versions
        self.version = version
        self._closed = False

    # ------------------------------------------------------------------
    def _read(self, command: str, args: Dict[int, Tuple]) -> Dict[int, Any]:
        """A ``(command, (id, *args[shard], queued drops))`` round, per shard."""
        if self._closed:
            raise StaleStateError("this sharded snapshot has been closed")
        self._engine._check_generation(self._generation)
        if self._fleet.closed:
            raise StaleStateError(
                "the shard fleet this snapshot was captured on has shut down"
            )
        fleet = self._fleet
        commands = {s: (command, (self._id, *rest, fleet.drops(s))) for s, rest in args.items()}
        return self._engine._round(fleet, commands)

    def enumerate(self) -> Iterator[Tuple[ValueTuple, int]]:
        """Figure 15's Union over one page cursor per shard: the single
        engine's tuples and multiplicities at the captured version, in
        shard-major Union order — deterministic for a given shard count and
        the same under every executor.  No shard work before ``next()``."""
        cursors = _ShardCursors(self)
        try:
            yield from union(cursors.sources())
        finally:
            cursors.abandon()

    def lookup(self, tup: ValueTuple) -> int:
        """Multiplicity of one full result tuple: with a free shard key the
        shard its key value hashes to answers, with a bound one every shard."""
        tup, router = tuple(tup), self._fleet.router
        if router.head_column is not None and router.head_column < len(tup):
            shards: Iterable[int] = (router.shard_of_value(tup[router.head_column]),)
        else:  # a short tuple goes everywhere, and every shard rejects it
            shards = range(router.shards)
        replies = self._read("snap_lookup", {shard: ([tup],) for shard in shards})
        return sum(answers[0] for answers in replies.values())

    # ------------------------------------------------------------------
    def close(self, round_trip: bool = True) -> None:
        """Release the per-shard snapshots (idempotent; survives re-loads).
        ``round_trip=False`` leaves the release to the fleet's next snapshot
        round to each shard: a finaliser may run inside a round on this very
        thread, and the pipe locks are not re-entrant."""
        if self._closed:
            return
        self._closed = True
        fleet, shards = self._fleet, range(self._fleet.router.shards)
        try:
            if not round_trip:
                fleet.drop(shards, self._id)
            elif self._engine._generation == self._generation and not fleet.closed:
                releases = {s: ("snap_release", (self._id, fleet.drops(s))) for s in shards}
                self._engine._round(fleet, releases)
        finally:
            # Always drop the pin — when this was the last pre-reshard
            # snapshot on a retired fleet, the old executor closes here.
            fleet.unpin()

    def __enter__(self) -> "ShardedSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _ShardCursors:
    """One enumeration of a :class:`ShardedSnapshot`: a Union source per shard.

    ``next`` pops the shard's buffered page, fetching the next one when it
    runs dry.  With a free shard key the shards' results are disjoint and
    every ``lookup`` is 0.  With a bound key each page's new tuples are
    looked up on every other shard in one round; Union asks about a tuple
    only between the ``next()`` that emits it and the following one, so
    the answers go once every shard holding the tuple has emitted it.
    """

    def __init__(self, snapshot: ShardedSnapshot) -> None:
        router = snapshot._fleet.router
        self._snapshot, self._id, self._shards = snapshot, next(snapshot._fleet.ids), router.shards
        self._bound = not router.key_is_free and self._shards > 1
        self._pages: List[Deque] = [deque() for _ in range(self._shards)]
        self._done = [False] * self._shards
        self._open: Set[int] = set()  # shards holding this cursor
        # Bound key: a fetched tuple's multiplicity on every shard, and how
        # many of the shards holding it have yet to emit it.
        self._known: Dict[ValueTuple, List[int]] = {}
        self._left: Dict[ValueTuple, int] = {}
        self._spent: Optional[ValueTuple] = None

    def sources(self) -> List[Source]:
        zero = lambda tup: 0  # noqa: E731 - disjoint shards: nothing to look up
        return [
            (partial(self._next, shard), partial(self._lookup, shard) if self._bound else zero)
            for shard in range(self._shards)
        ]

    def abandon(self) -> None:  # no round: see ShardedSnapshot.close
        self._snapshot._fleet.drop(self._open, self._id)

    def _next(self, shard: int) -> Optional[Tuple[ValueTuple, int]]:
        page = self._pages[shard]
        if not page and not self._done[shard]:
            self._fetch(shard)
        if not page:
            return None
        item = page.popleft()
        if self._bound:
            self._known.pop(self._spent, None)
            left = self._left.pop(item[0], 1) - 1
            if left:
                self._left[item[0]] = left
            self._spent = None if left else item[0]
        return item

    def _lookup(self, shard: int, tup: ValueTuple) -> int:
        return self._known[tup][shard]

    def _fetch(self, shard: int) -> None:
        self._open.add(shard)  # before the round: a failed page may have opened it
        page = self._snapshot._read("snap_page", {shard: (self._id, PAGE_SIZE)})[shard]
        if len(page) < PAGE_SIZE:  # ran out: the shard dropped the cursor
            self._done[shard] = True
            self._open.discard(shard)
        fresh = [pair for pair in page if pair[0] not in self._known] if self._bound else []
        if fresh:
            tuples = [tup for tup, _ in fresh]
            others = {other: (tuples,) for other in range(self._shards) if other != shard}
            answers = self._snapshot._read("snap_lookup", others)
            for index, (tup, mult) in enumerate(fresh):
                known = [answers[o][index] if o in answers else mult for o in range(self._shards)]
                self._known[tup] = known
                self._left[tup] = sum(1 for value in known if value)
        self._pages[shard].extend(page)


class ShardedEngine(ReadSurface, MutationSurface):
    """Hash-partitioned evaluation of one hierarchical query over k shards.

    The shard key is not an option: it is the planner's
    (:func:`repro.core.planner.choose_shard_key`, a variable of every atom,
    free when one is), and every shard worker derives the same key from the
    query text it parses.  ``shard_key`` names it.
    """

    def __init__(
        self,
        query,
        shards: int = 4,
        epsilon: float = 0.5,
        mode: str = DYNAMIC_MODE,
        executor: str = "auto",
        telemetry: bool = True,
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
        self.executor_choice = executor
        # Facade-level workload telemetry: ingestion and sharded-read
        # events are recorded here (shard engines record none), so an
        # AdaptiveController can drive the whole deployment.  Pass
        # ``telemetry=False`` to opt out, as on HierarchicalEngine.
        if not isinstance(telemetry, bool):
            raise TypeError(f"telemetry must be a bool, got {telemetry!r}")
        self.telemetry = WorkloadTelemetry() if telemetry else None
        if durability is not None and mode != DYNAMIC_MODE:
            raise DurabilityError(
                "durability requires the dynamic engine (the WAL is keyed "
                f"by the maintenance version); mode is {mode!r}"
            )
        # Per-shard durability: shard i logs and checkpoints under
        # ``<directory>/shard-<i>`` (see DurabilityConfig.for_shard), so a
        # dead worker's state survives the process and _round can restart
        # exactly that shard from it.
        self.durability: Optional[DurabilityConfig] = (
            None if durability is None else coerce_config(durability)
        )
        self.restart_stats: Optional[ShardRestartStats] = (
            None if durability is None else ShardRestartStats()
        )
        # Serialises restarts: two rounds that trip on one death restart it once.
        self._restart_lock = threading.Lock()
        # Set when a commit round was reconciled by skipping (durable, but its
        # reply and the delta in it died with the worker); the next
        # drain_result_delta reports its delta as unknown.
        self._delta_lost = False
        # the shard-aware planner gate: raises for unshardable queries
        self.router = ShardRouter(self.query, shards)
        self.shard_key = self.router.shard_key
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
        # Bumped by every load(); snapshots and enumerators created against
        # an earlier load raise StaleStateError instead of silently reading
        # the replaced deployment.
        self._generation = 0
        # Facade-level ingestion counter: one tick per apply / apply_batch
        # (and per apply_stream chunk), mirroring the single engine's
        # MaintenanceDriver.version.
        self._version = 0
        # Result-delta capture: None when off, otherwise the sum of the
        # shard deltas the commit replies carried since the last drain.  On,
        # it is re-sent to every fleet the facade adopts and to every
        # restarted worker, and load()/recover() start it empty.
        self._captured: Optional[Dict[ValueTuple, int]] = None
        # Registered aggregate specs, keyed by AggregateSpec.key().  Like
        # capture, the registry lives on the facade and is
        # re-sent whenever a fleet or a worker is (re)built — load, recover,
        # reshard, restart — so every worker maintains the same aggregate states.
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
                "copy_database": False,
                # only the facade's telemetry is read (controller, /metrics)
                "telemetry": False,
            },
            databases,
            None if self.durability is None else self.durability.for_epoch(epoch),
        )
        return _FleetHandle(executor, router, executor_name, epoch)

    def _serving_state(self) -> List[Tuple[str, Any]]:
        """The facade's serving state as shard commands: sent to every fleet
        it adopts and to every worker it restarts."""
        commands = [("set_delta_capture", True)] if self._captured is not None else []
        return commands + [
            ("register_aggregate", spec.to_wire()) for spec in self._agg_specs.values()
        ]

    def _adopt_fleet(self, fleet: _FleetHandle) -> None:
        """Make ``fleet`` the live one, with the facade's serving state on it."""
        for command, payload in self._serving_state():
            self._broadcast(command, payload, fleet)
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
        self._reset_capture()
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
        self._reset_capture()
        meta = read_fleet_meta(self.durability.directory)
        baselines: Optional[List[int]] = None
        meta_version = 0
        epoch = 0
        if meta is not None:
            count = int(meta["shards"])
            epoch = int(meta.get("epoch", 0))
            meta_version = int(meta.get("version", 0))
            if count != self.shards:
                self.router = ShardRouter(self.query, count)
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
        epsilons = self._broadcast("epsilon")
        if len(set(epsilons)) > 1:
            self.close()
            raise DurabilityError(
                "the shards recovered at different ε ("
                + ", ".join(f"shard {i}: {eps}" for i, eps in enumerate(epsilons))
                + "); their durability directories do not share one history"
            )
        self.epsilon = epsilons[0]
        shard_versions = self.shard_versions()
        self._fleet.acked = list(shard_versions)
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

    def _require_loaded(self) -> _FleetHandle:
        if self._fleet is None:
            raise ReproError("the engine has no database; call load() first")
        return self._fleet

    def _check_generation(self, generation: int) -> None:
        if self._generation != generation:
            raise StaleStateError(
                "the sharded deployment was replaced by load() after this "
                "snapshot/enumerator was created; capture a new one"
            )

    # ------------------------------------------------------------------
    # shard rounds
    # ------------------------------------------------------------------
    def _round(
        self,
        fleet: _FleetHandle,
        commands: Dict[int, Tuple[str, Any]],
        mutating: bool = False,
    ) -> Dict[int, Any]:
        """Run ``{shard: (command, payload)}`` on ``fleet``: every shard round.

        A dead worker raises :class:`WorkerDiedError`, except on the live
        fleet of a durable deployment.  There each dead shard is restarted
        from its durability directory (once, under the restart lock, however
        many rounds tripped on it) and given the facade's serving state.
        The survivors' replies stand: a read-only round re-sends only the
        dead shards' own commands (a survivor asked twice would, say,
        register a second snapshot capture and keep the first forever), and
        a ``commit`` round is reconciled per dead shard by its durable
        version: equal to the acknowledged one, the command never became
        durable and is re-sent; one ahead, it did and only the
        acknowledgement died, so re-sending would double-apply it; anything
        else is another deployment's directory.  A survivor's error is
        raised last.  A new fleet a reshard is building, and a retired one,
        are not healed.
        """
        executor = fleet.executor
        try:
            replies = executor.map(commands)
        except WorkerDiedError as exc:
            if self.durability is None or fleet is not self._fleet:
                raise
            with self._restart_lock:
                dead = set(executor.dead_shards())
                for shard in exc.shard_indexes:
                    if shard not in dead:
                        continue  # another round restarted it already
                    executor.restart_shard(shard)
                    self.restart_stats.restarts += 1
                    for command in self._serving_state():
                        executor.map({shard: command})
            resend = []
            for shard in exc.shard_indexes:
                if not mutating:
                    resend.append(shard)
                    continue
                durable = executor.map({shard: ("version", None)})[shard]
                acked = fleet.acked[shard]
                if durable == acked:
                    resend.append(shard)
                elif durable == acked + 1:
                    # its delta died with the worker, in the lost reply
                    self._delta_lost = self._delta_lost or self._captured is not None
                else:
                    raise DurabilityError(
                        f"shard {shard} recovered at version {durable}, but "
                        f"the fleet last acknowledged {acked}; the shard's "
                        "durability directory does not belong to this deployment"
                    ) from exc
            replies = exc.replies
            if resend:
                replies.update(executor.map({shard: commands[shard] for shard in resend}))
            if exc.error is not None:
                raise exc.error
        if mutating:
            for shard in commands:
                fleet.acked[shard] += 1
        return replies

    def _broadcast(
        self, command: str, payload: Any = None, fleet: Optional[_FleetHandle] = None
    ) -> List[Any]:
        """One round of ``command`` on every shard of ``fleet`` (the live
        one by default); replies in shard order."""
        if fleet is None:
            fleet = self._require_loaded()
        shards = range(fleet.router.shards)
        replies = self._round(fleet, {shard: (command, payload) for shard in shards})
        return [replies[shard] for shard in shards]

    # ------------------------------------------------------------------
    # updates
    # ------------------------------------------------------------------
    def _dispatch(self, fleet: _FleetHandle, event: Event) -> Tuple[int, Dict[int, Any]]:
        """The sharded ingest protocol, once: route, validate round, apply round.

        The router decides every shard's part
        (:meth:`~repro.sharding.router.ShardRouter.route`: an empty net
        effect is no shard work at all), and every shard receives its part
        as one ``("commit", part)`` command.  Returns the number of source
        updates the event folds in — what the single engine's telemetry
        counts: a consolidated batch's ``source_count``, a raw list's
        length — and the commit replies, each the shard's result delta of
        its part (empty unless capture is on).  A shard's own
        ``rebalance_stats.updates`` counts the sources of its sub-batch:
        exact for a raw list, one per net entry for a consolidated batch,
        whose source updates cannot be attributed to shards.
        """
        parts = fleet.router.route(event)
        if isinstance(event, (Update, Retune)):
            source_count = int(isinstance(event, Update))
        else:
            if len(parts) > 1:
                # All-or-nothing across shards, like the single engine's
                # batch path: every involved shard dry-runs its over-delete
                # checks before any shard applies anything, so a rejected
                # sub-batch raises with no shard modified.
                self._round(fleet, {shard: ("validate", part) for shard, part in parts.items()})
            source_count = (
                event.source_count
                if isinstance(event, UpdateBatch)
                else sum(part.source_count for part in parts.values())
            )
        commands = {shard: ("commit", part) for shard, part in parts.items()}
        replies = self._round(fleet, commands, mutating=True) if commands else {}
        return source_count, replies

    def commit(self, event: Event) -> None:
        """One live event: the protocol on the current fleet, then bookkeeping.

        Ingestion is all-or-nothing across shards: a rejected sub-batch
        raises with no shard modified.  The facade version ticks once per
        event; a :class:`Retune` switches every shard's ε in one round
        (each a shard-local retune), and the enumerated pairs afterwards
        equal a fresh sharded deployment's built at that ε.
        """
        fleet = self._require_loaded()
        started = time.perf_counter()
        source_count, replies = self._dispatch(fleet, event)
        if self._captured is not None:
            for delta in replies.values():  # a bound key's overlaps add up
                if self._captured:
                    merge_delta(self._captured, delta.items())
                else:
                    self._captured = delta
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
    def enumerate(self) -> Iterator[Tuple[ValueTuple, int]]:
        """A snapshot's enumeration, then its release: the single engine's
        tuples and multiplicities in shard-major Union order, deterministic
        for a given shard count and the same under every executor, not the
        single engine's order.  As there, the shard work starts at the first
        ``next()``, a :meth:`load` in between raises :class:`StaleStateError`,
        and the read records into the facade's telemetry."""
        self._require_loaded()
        pages = self._pages(self._generation)
        if self.telemetry is None:
            return pages
        return self.telemetry.recorded_read(pages)

    def _pages(self, generation: int) -> Iterator[Tuple[ValueTuple, int]]:
        self._check_generation(generation)
        snapshot = self.snapshot()
        finished = False
        try:
            yield from snapshot.enumerate()
            finished = True
        finally:  # an abandoned read may be finalised inside a round
            snapshot.close(round_trip=finished)

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
        return tuple(self._broadcast("version"))

    def snapshot(self) -> ShardedSnapshot:
        """Capture every shard at a consistent version in one round.

        Each shard takes a local :meth:`HierarchicalEngine.snapshot` (no
        view content is copied) under one fleet-wide id, and releases what
        readers let go of without a round.  Like the single-engine
        capture, this must not race a mutating call —
        :class:`repro.core.serving.EngineServer` (or any external lock)
        serializes capture against the writer; reads need no lock at all.
        """
        fleet = self._require_loaded()
        snapshot_id, shards = next(fleet.ids), range(fleet.router.shards)
        commands = {s: ("snapshot", (snapshot_id, fleet.drops(s))) for s in shards}
        replies = self._round(fleet, commands)
        shard_versions = tuple(replies[shard] for shard in shards)
        return ShardedSnapshot(self, fleet, snapshot_id, shard_versions, self._version)

    # ------------------------------------------------------------------
    # result-delta capture (push-based serving)
    # ------------------------------------------------------------------
    def set_delta_capture(self, enabled: bool) -> None:
        """Start (or stop) per-commit result-delta capture on every shard.

        Mirrors :meth:`HierarchicalEngine.set_delta_capture`: each shard
        captures its shard-local first-order result delta inside the normal
        maintenance pass and hands it back in its ``commit`` reply, and the
        facade sums the replies into one accumulator that
        :meth:`drain_result_delta` returns and clears — joins are
        shard-local by construction, so the global result delta is exactly
        the sum of the per-shard ones.  Survives :meth:`load`,
        :meth:`recover` (both start the accumulator empty), :meth:`reshard`
        and worker restarts.
        """
        if enabled and self.mode != DYNAMIC_MODE:
            raise UnsupportedQueryError(
                "delta capture requires the dynamic engine; a static "
                "deployment has no update stream to capture deltas from"
            )
        if bool(enabled) != (self._captured is not None):
            self._captured = {} if enabled else None
            if self._fleet is not None:
                self._broadcast("set_delta_capture", bool(enabled))

    def _reset_capture(self) -> None:
        """A new deployment's capture starts empty and known."""
        self._delta_lost = False
        if self._captured is not None:
            self._captured = {}

    def drain_result_delta(self) -> Optional[Dict[ValueTuple, int]]:
        """Return and clear the fleet's net result delta since last drain.

        No shard round: the deltas arrived with the commit replies.
        ``None`` means the delta is unknown: a commit was reconciled by
        skipping it (it became durable, but its worker died before
        answering, and its delta with the reply).  A serving layer resyncs
        its subscribers then.
        """
        self._require_loaded()
        drained, lost = self._captured, self._delta_lost
        self._reset_capture()
        return None if lost else drained or {}

    # ------------------------------------------------------------------
    # ring-annotated aggregates
    # ------------------------------------------------------------------
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
        # Fail the way the shard pipe would, but at the facade: callable
        # value selectors cannot cross a worker boundary.
        spec.to_wire()
        self._agg_specs[spec.key()] = spec
        if self._fleet is not None:
            self._broadcast("register_aggregate", spec.to_wire())

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
        the merge is O(groups), never an enumeration.  Answers do not
        compose across shards in general, so they are finalized only by the
        inherited ``aggregate``, at the facade edge.  The read — broadcast
        plus merge — records into the facade's telemetry like a merged
        enumeration, whoever calls it.
        """
        self._require_loaded()
        started = time.perf_counter()
        if maintained and self.mode == DYNAMIC_MODE:
            if spec.key() not in self._agg_specs:
                self.register_aggregate(spec)
        merged: Elements = {}
        for partial in self._broadcast("aggregate", (spec.to_wire(), maintained)):
            merge_elements(spec.ring, merged, partial.items())
        if self.telemetry is not None:
            self.telemetry.record_read(len(merged), time.perf_counter() - started)
        return merged

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

        Afterwards the enumerated pairs, result, and invariants equal a
        fresh deployment's at ``new_count`` over the same data (the
        conformance bar; the order follows each new shard's insertion
        history, so it is not compared); the facade version ticks once, like
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
        self._require_loaded()
        if self._reshard_tail is not None:
            raise ReproError("a reshard is already in progress")
        payloads = self._broadcast("export")
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
        events of the tail replay were already captured on the old fleet,
        and :meth:`finish_reshard` discards the replay's replies anyway.
        """
        combined = Database()
        for payload in plan.payloads:
            combined.add_rows(payload)
        router = ShardRouter(self.query, plan.new_count)
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
        crash_point("reshard-prepare")
        for event in self._reshard_tail or []:
            crash_point("reshard-tail")
            self._dispatch(plan.fleet, event)  # its deltas were captured live
        version_after = self._version + 1  # the reshard ticks once, like retune
        if self.durability is not None:
            write_fleet_meta(
                self.durability.directory,
                {
                    "shards": plan.new_count,
                    "epoch": plan.epoch,
                    "version": version_after,
                    "shard_versions": list(plan.fleet.acked),
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
        self._broadcast("check")

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
        return [
            None if raw is None else RebalanceStats.from_dict(raw)
            for raw in self._broadcast("stats")
        ]

    def view_size(self) -> int:
        """Total tuples stored across all shards' materialized views."""
        return sum(self._broadcast("view_size"))

    def shard_sizes(self) -> Tuple[int, ...]:
        """Base-database size of every shard, in shard order."""
        return tuple(self._broadcast("size"))

    def thresholds(self) -> Tuple[float, ...]:
        """Every shard's current heavy/light threshold ``M_shard^ε``.

        Shards plan against their own sizes, so these are *smaller* than a
        single engine's threshold over the union — the source of both the
        update-time win and the extra enumeration-time work.
        """
        return tuple(self._broadcast("threshold"))

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
