"""Elastic online resharding: snapshot-consistent split/merge of a live fleet.

The tentpole contract under test: ``ShardedEngine.reshard(k')`` must be
*invisible* — the resharded fleet is result- and order-equivalent to a
fresh ``k'``-shard deployment fed the same stream, snapshots captured
before the swap keep enumerating their exact capture through the retired
fleet, the facade version ticks exactly once (like a retune), and a
durable deployment recovers at exactly the old or the new count after a
crash anywhere inside the barrier — never a hybrid.  The satellites ride
along: the exactly-once accounting audit of the routed single-update
path, the empty-net-effect ``split_by`` boundary (including tail replay),
the MAAS-style capacity model on :class:`AdaptiveController`, and the
serving/networking integration.
"""

import asyncio
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.adaptive import (
    AdaptiveController,
    ShardCapacity,
    ShardCapacityConfig,
    WorkloadTelemetry,
)
from repro.core.api import HierarchicalEngine
from repro.core.serving import EngineServer
from repro.data.database import Database
from repro.data.update import Update, UpdateBatch, UpdateStream
from repro.durability import (
    CrashPointInjector,
    ShardSupervisor,
    SimulatedCrashError,
    injected,
)
from repro.durability.manager import read_fleet_meta
from repro.exceptions import ReproError
from repro.net.client import EngineClient
from repro.net.server import ServerConfig, ServerThread
from repro.sharding import ShardedEngine
from tests.conftest import wait_until

PATH_QUERY = "Q(A, C) = R(A, B), S(B, C)"


def make_database():
    database = Database()
    r = database.create_relation("R", ("A", "B"))
    s = database.create_relation("S", ("B", "C"))
    for tup in ((0, 1), (1, 1), (2, 2), (3, 3)):
        r.apply_delta(tup, 1)
    for tup in ((1, 10), (2, 11), (3, 12)):
        s.apply_delta(tup, 1)
    return database


STREAM = [
    Update("R", (4, 1), 1),
    Update("R", (5, 2), 1),
    Update("S", (1, 13), 1),
    Update("R", (6, 3), 1),
    Update("S", (2, 14), 1),
    Update("R", (7, 1), 1),
    Update("S", (3, 15), 1),
    Update("R", (8, 2), 1),
    Update("S", (1, 16), 1),
    Update("R", (9, 3), 1),
]


def oracle_result(updates=STREAM):
    engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5)
    engine.load(make_database())
    for update in updates:
        engine.apply(update)
    return dict(engine.result())


def fresh_fleet_enumeration(shards, updates=STREAM, epsilon=0.5):
    fresh = ShardedEngine(PATH_QUERY, shards=shards, epsilon=epsilon, executor="serial")
    fresh.load(make_database())
    for update in updates:
        fresh.apply(update)
    merged = list(fresh.enumerate())
    fresh.close()
    return merged


def live_fleet(shards=2, updates=STREAM, **kwargs):
    kwargs.setdefault("epsilon", 0.5)
    kwargs.setdefault("executor", "serial")
    engine = ShardedEngine(PATH_QUERY, shards=shards, **kwargs)
    engine.load(make_database())
    for update in updates:
        engine.apply(update)
    return engine


# ---------------------------------------------------------------------------
# the tentpole: reshard == fresh fleet at the new count
# ---------------------------------------------------------------------------
class TestReshardEquivalence:
    @pytest.mark.parametrize("before,after", [(1, 2), (2, 4), (2, 7), (4, 2), (7, 1)])
    def test_reshard_matches_fresh_fleet(self, before, after):
        engine = live_fleet(shards=before)
        version_before = engine.version
        engine.reshard(after)
        try:
            assert engine.shards == after
            assert engine.version == version_before + 1
            assert list(engine.enumerate()) == fresh_fleet_enumeration(after)
            engine.check_invariants()
        finally:
            engine.close()

    def test_post_reshard_ingest_stays_equivalent(self):
        engine = live_fleet(shards=2, updates=STREAM[:5])
        engine.reshard(4)
        fresh = ShardedEngine(PATH_QUERY, shards=4, epsilon=0.5, executor="serial")
        fresh.load(make_database())
        for update in STREAM[:5]:
            fresh.apply(update)
        try:
            for update in STREAM[5:]:
                engine.apply(update)
                fresh.apply(update)
                assert list(engine.enumerate()) == list(fresh.enumerate())
            engine.check_invariants()
        finally:
            engine.close()
            fresh.close()

    def test_snapshot_pinned_across_reshard(self):
        engine = live_fleet(shards=2, updates=STREAM[:5])
        held = engine.snapshot()
        capture = list(held.enumerate())
        engine.reshard(4)
        for update in STREAM[5:]:
            engine.apply(update)
        try:
            # the held snapshot reads its exact capture through the
            # *retired* fleet, even after the new fleet mutated
            assert list(held.enumerate()) == capture
            assert dict(held.result()) == oracle_result(STREAM[:5])
        finally:
            held.close()
            engine.close()

    def test_retired_fleet_released_when_last_snapshot_closes(self):
        engine = live_fleet(shards=2)
        held = engine.snapshot()
        engine.reshard(4)
        retired = engine._retired_fleets[-1]
        assert not retired.closed  # pinned by the held snapshot
        held.close()
        assert retired.closed
        engine.close()

    def test_reshard_with_live_tail_between_phases(self):
        """Updates committed between the cut and the swap replay exactly."""
        engine = live_fleet(shards=2, updates=STREAM[:4])
        plan = engine.begin_reshard(3)
        # the writer keeps committing against the old fleet: a single
        # update, a consolidated batch, and a retune all land in the tail
        engine.apply(STREAM[4])
        batch = UpdateBatch()
        for update in STREAM[5:8]:
            batch.add(update)
        engine.apply_batch(batch)
        engine.retune(0.75)
        engine.build_reshard(plan)
        engine.apply(STREAM[8])  # and one more between build and finish
        engine.finish_reshard(plan)

        fresh = ShardedEngine(PATH_QUERY, shards=3, epsilon=0.5, executor="serial")
        fresh.load(make_database())
        for update in STREAM[:5]:
            fresh.apply(update)
        fresh_batch = UpdateBatch()
        for update in STREAM[5:8]:
            fresh_batch.add(update)
        fresh.apply_batch(fresh_batch)
        fresh.retune(0.75)
        fresh.apply(STREAM[8])
        try:
            assert engine.shards == 3
            assert engine.epsilon == 0.75
            assert list(engine.enumerate()) == list(fresh.enumerate())
            engine.check_invariants()
        finally:
            engine.close()
            fresh.close()

    def test_second_begin_while_resharding_raises(self):
        engine = live_fleet(shards=2)
        plan = engine.begin_reshard(4)
        with pytest.raises(ReproError):
            engine.begin_reshard(3)
        engine.build_reshard(plan)
        engine.finish_reshard(plan)
        engine.close()

    def test_reshard_rejects_nonpositive_count(self):
        engine = live_fleet(shards=2)
        with pytest.raises(ValueError):
            engine.reshard(0)
        engine.close()


# ---------------------------------------------------------------------------
# satellite: the split_by empty-net-effect boundary
# ---------------------------------------------------------------------------
class TestSplitByBoundary:
    def test_batch_split_by_cancelled_net_is_empty_mapping(self):
        batch = UpdateBatch()
        batch.add(Update("R", (4, 1), 1))
        batch.add(Update("R", (4, 1), -1))
        assert batch.split_by(lambda relation, tup: 0) == {}

    def test_stream_split_by_keeps_cancelled_sources(self):
        stream = UpdateStream()
        stream.append(Update("R", (4, 1), 1))
        stream.append(Update("R", (4, 1), -1))
        stream.append(Update("S", (1, 13), 1))
        buckets = stream.split_by(lambda update: 0 if update.relation == "R" else 1)
        assert sorted(buckets) == [0, 1]
        # the cancelled pair survives as *sources*: exact per-bucket
        # accounting is the whole point of routing before consolidation
        assert len(list(buckets[0])) == 2

    def test_router_split_updates_keeps_cancelled_sub_batch(self):
        engine = ShardedEngine(PATH_QUERY, shards=2, executor="serial")
        cancelled = [Update("R", (4, 1), 1), Update("R", (4, 1), -1)]
        buckets = engine.router.split_updates(cancelled)
        assert len(buckets) == 1
        (batch,) = buckets.values()
        assert batch.source_count == 2
        assert batch.is_empty()

    def test_cancelled_raw_list_ticks_version_and_telemetry(self):
        engine = live_fleet(shards=2, updates=[], telemetry=True)
        version = engine.version
        events = engine.telemetry.events
        engine.apply_batch([Update("R", (4, 1), 1), Update("R", (4, 1), -1)])
        assert engine.version == version + 1
        assert engine.telemetry.events == events + 1
        engine.close()

    def test_cancelled_tail_batch_still_ticks_destination_shard(self):
        """Tail replay must preserve the raw-list boundary contract.

        A raw update list whose net effect is empty still dispatches an
        empty-net sub-batch to its destination shard (ticking that
        shard's version); a pre-consolidated batch with empty net
        dispatches nothing.  The replay through the new fleet must do
        exactly what the original ingest did.
        """
        cancelled = [Update("R", (4, 1), 1), Update("R", (4, 1), -1)]

        raw = live_fleet(shards=2)
        plan = raw.begin_reshard(3)
        raw.build_reshard(plan)
        raw.apply_batch(cancelled)  # raw list: buffered, replays one round
        raw.finish_reshard(plan)
        raw_tail_ticks = sum(raw.shard_versions())

        consolidated = live_fleet(shards=2)
        plan = consolidated.begin_reshard(3)
        consolidated.build_reshard(plan)
        batch = UpdateBatch()
        for update in cancelled:
            batch.add(update)
        consolidated.apply_batch(batch)  # empty net: no shard work at all
        consolidated.finish_reshard(plan)
        consolidated_tail_ticks = sum(consolidated.shard_versions())

        # fresh fleets count only tail replays, so the raw list's one
        # batch round is visible as exactly one extra shard-version tick
        assert raw_tail_ticks == consolidated_tail_ticks + 1
        # and the facade versions agree: both ingests committed
        assert raw.version == consolidated.version
        raw.close()
        consolidated.close()


# ---------------------------------------------------------------------------
# satellite: exactly-once accounting on the routed single-update path
# ---------------------------------------------------------------------------
class TestApplyAccountingAudit:
    def test_apply_fires_every_counter_exactly_once_per_update(self):
        engine = live_fleet(shards=2, updates=[], telemetry=True)
        engine.set_delta_capture(True)
        engine.drain_result_delta()  # discard the load-time state
        stats_before = engine.rebalance_stats.as_dict()
        assert engine.version == 0
        for update in STREAM:
            engine.apply(update)
        # facade version: one tick per routed update
        assert engine.version == len(STREAM)
        # facade telemetry: one ingest event per routed update
        assert engine.telemetry.update_events == len(STREAM)
        # RebalanceStats fold-up: the per-shard update counters sum to
        # exactly the routed updates, once each
        stats_after = engine.rebalance_stats.as_dict()
        assert stats_after["updates"] - stats_before["updates"] == len(STREAM)
        # delta capture: one drain returns the whole net delta ...
        delta = engine.drain_result_delta()
        assert delta
        base = dict(HierarchicalEngine(PATH_QUERY).load(make_database()).result())
        replayed = dict(base)
        for tup, change in delta.items():
            replayed[tup] = replayed.get(tup, 0) + change
            if replayed[tup] == 0:
                del replayed[tup]
        assert replayed == oracle_result()
        # ... and the second drain is empty (nothing double-counted)
        assert engine.drain_result_delta() == {}
        engine.close()

    def test_apply_batch_ticks_once_per_round_not_per_shard(self):
        engine = live_fleet(shards=4, updates=[], telemetry=True)
        engine.apply_batch(list(STREAM))  # spans several shards
        assert engine.version == 1
        assert engine.telemetry.update_events == 1
        assert engine.telemetry.update_tuples == len(STREAM)
        engine.close()


# ---------------------------------------------------------------------------
# satellite: the MAAS-style capacity model
# ---------------------------------------------------------------------------
def make_controller(engine, capacity, cooldown=1, **kwargs):
    telemetry = engine.telemetry or WorkloadTelemetry()
    return AdaptiveController(
        engine,
        cooldown=cooldown,
        telemetry=telemetry,
        capacity=capacity,
        **kwargs,
    )


class TestCapacityModel:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            ShardCapacityConfig(shard_capacity=0)
        with pytest.raises(ValueError):
            ShardCapacityConfig(shard_capacity=10, over_commit_ratio=0.5)
        with pytest.raises(ValueError):
            ShardCapacityConfig(shard_capacity=10, min_shards=5, max_shards=2)
        with pytest.raises(ValueError):
            ShardCapacityConfig(shard_capacity=10, shrink_margin=0.0)

    def test_capacity_requires_sharded_engine(self):
        single = HierarchicalEngine(PATH_QUERY, telemetry=True)
        with pytest.raises(ValueError):
            AdaptiveController(single, capacity=ShardCapacityConfig(shard_capacity=4))

    def test_report_exposes_total_used_available(self):
        engine = live_fleet(shards=2, telemetry=True)
        controller = make_controller(
            engine, ShardCapacityConfig(shard_capacity=10, over_commit_ratio=1.5)
        )
        report = controller.capacity_report()
        assert [entry.shard for entry in report] == [0, 1]
        sizes = engine.shard_sizes()
        for entry, used in zip(report, sizes):
            assert isinstance(entry, ShardCapacity)
            assert entry.total == 15
            assert entry.used == used
            assert entry.available == 15 - used
        engine.close()

    def test_grow_proposed_when_over_committed(self):
        engine = live_fleet(shards=2, telemetry=True)
        used = sum(engine.shard_sizes())
        # pick a capacity small enough that some shard is over-committed
        policy = ShardCapacityConfig(shard_capacity=2, over_commit_ratio=1.0)
        controller = make_controller(engine, policy)
        engine.telemetry.record_update(1, 0.0)  # leave the initial cooldown
        target = controller.propose_shards()
        assert target is not None and target > 2
        assert target >= -(-used // 2)  # fits the fleet at nominal capacity
        engine.close()

    def test_shrink_needs_clear_headroom(self):
        engine = live_fleet(shards=7, telemetry=True)
        used = sum(engine.shard_sizes())
        roomy = ShardCapacityConfig(shard_capacity=10 * used, shrink_margin=0.6)
        controller = make_controller(engine, roomy)
        engine.telemetry.record_update(1, 0.0)
        target = controller.propose_shards()
        assert target is not None and target < 7
        # a tight shrink margin proposes nothing: the fleet is inside the
        # admitted envelope but lacks the clear headroom a merge demands
        snug = ShardCapacityConfig(
            shard_capacity=max(engine.shard_sizes()), shrink_margin=0.1
        )
        controller = make_controller(engine, snug)
        assert controller.propose_shards() is None
        engine.close()

    def test_stay_put_inside_envelope(self):
        engine = live_fleet(shards=2, telemetry=True)
        used = sum(engine.shard_sizes())
        policy = ShardCapacityConfig(
            shard_capacity=used, over_commit_ratio=1.5, shrink_margin=0.1
        )
        controller = make_controller(engine, policy)
        engine.telemetry.record_update(1, 0.0)
        assert controller.propose_shards() is None
        engine.close()

    def test_shared_cooldown_gates_both_knobs(self):
        engine = live_fleet(shards=2, telemetry=True)
        policy = ShardCapacityConfig(shard_capacity=1)
        controller = make_controller(engine, policy, cooldown=100)
        # inside the initial cooldown window: both knobs stay put
        assert controller.propose_shards() is None
        assert controller.propose() is None
        for _ in range(100):
            engine.telemetry.record_update(1, 0.0)
        assert controller.propose_shards() is not None
        # a reshard resets the *shared* window, silencing the ε knob too
        controller.record_reshard(4)
        assert controller.propose_shards() is None
        assert controller.propose() is None
        assert controller.reshards_applied == 1
        assert controller.reshard_history[-1][1] == 4
        engine.close()

    def test_maybe_reshard_applies_the_proposal(self):
        engine = live_fleet(shards=2, telemetry=True)
        policy = ShardCapacityConfig(shard_capacity=2, over_commit_ratio=1.0)
        controller = make_controller(engine, policy)
        engine.telemetry.record_update(1, 0.0)
        applied = controller.maybe_reshard()
        assert applied is not None
        assert engine.shards == applied
        assert controller.reshards_applied == 1
        assert list(engine.enumerate()) == fresh_fleet_enumeration(applied)
        engine.close()


# ---------------------------------------------------------------------------
# serving integration: reshard rides the commit/publish discipline
# ---------------------------------------------------------------------------
class TestServingReshard:
    def test_server_reshard_publishes_empty_delta(self):
        engine = live_fleet(shards=2, updates=[])
        engine.set_delta_capture(True)
        server = EngineServer(engine)
        server.apply_batch(STREAM[:5])
        seen = []
        server.on_commit(lambda version, delta: seen.append((version, dict(delta))))
        server.reshard(4)
        assert engine.shards == 4
        assert server.stats.reshards_applied == 1
        # subscribers ride through: the post-swap version arrives with an
        # empty delta, exactly like a retune — no phantom tuples
        assert seen == [(engine.version, {})]
        ticket = server.read()
        assert dict(ticket.pairs) == oracle_result(STREAM[:5])
        server.apply_update(STREAM[5])
        assert len(seen) == 2 and seen[-1][1] != {}

    def test_auto_reshard_from_capacity_policy(self):
        engine = live_fleet(shards=2, updates=[], telemetry=True)
        policy = ShardCapacityConfig(shard_capacity=2, over_commit_ratio=1.0)
        controller = make_controller(engine, policy, cooldown=1)
        server = EngineServer(engine, controller=controller)
        for update in STREAM:
            server.apply_update(update)
        assert controller.reshards_applied >= 1
        assert engine.shards > 2
        assert dict(server.read().pairs) == oracle_result()
        assert server.stats.reshards_applied == controller.reshards_applied
        engine.check_invariants()


# ---------------------------------------------------------------------------
# durability: the reshard barrier, and crash-anywhere inside it
# ---------------------------------------------------------------------------
class TestDurableReshard:
    def test_recover_comes_back_at_the_new_count(self, tmp_path):
        engine = live_fleet(shards=2, durability=str(tmp_path / "wal"))
        engine.reshard(4)
        for update in (Update("R", (10, 1), 1), Update("S", (2, 17), 1)):
            engine.apply(update)
        expected = dict(engine.result())
        engine.close()

        meta = read_fleet_meta(str(tmp_path / "wal"))
        assert meta is not None and meta["shards"] == 4 and meta["epoch"] == 1

        # recovery is constructed at the *old* count: the barrier record
        # must override it
        recovered = ShardedEngine(
            PATH_QUERY,
            shards=2,
            epsilon=0.5,
            executor="serial",
            durability=str(tmp_path / "wal"),
        )
        recovered.recover()
        assert recovered.shards == 4
        assert recovered.epoch == 1
        assert dict(recovered.result()) == expected
        recovered.check_invariants()
        recovered.close()

    def test_double_reshard_prunes_old_epochs(self, tmp_path):
        engine = live_fleet(shards=2, durability=str(tmp_path / "wal"))
        engine.reshard(4)
        engine.reshard(3)
        expected = dict(engine.result())
        engine.close()
        entries = sorted(p.name for p in tmp_path.joinpath("wal").iterdir())
        assert "epoch-2" in entries
        assert "epoch-1" not in entries  # superseded epochs are pruned
        assert not any(name.startswith("shard-") for name in entries)
        recovered = ShardedEngine(
            PATH_QUERY,
            shards=2,
            epsilon=0.5,
            executor="serial",
            durability=str(tmp_path / "wal"),
        )
        recovered.recover()
        assert recovered.shards == 3 and recovered.epoch == 2
        assert dict(recovered.result()) == expected
        recovered.close()

    @pytest.mark.parametrize(
        "site,expected_shards",
        [
            ("reshard-prepare", 2),  # new fleet built, nothing durable yet
            ("reshard-tail", 2),  # mid tail replay, barrier not written
            ("reshard-barrier", 2),  # meta written but not yet renamed
            ("reshard-swap", 4),  # barrier renamed: the new fleet owns it
        ],
    )
    def test_crash_inside_the_barrier_never_leaves_a_hybrid(
        self, tmp_path, site, expected_shards
    ):
        """Kill-anywhere inside reshard: recovery lands at exactly the old
        or the new count, and matches a never-crashed oracle there."""
        engine = live_fleet(shards=2, durability=str(tmp_path / "wal"))
        plan = engine.begin_reshard(4)
        engine.apply(Update("R", (10, 1), 1))  # one tail event to replay
        engine.build_reshard(plan)
        with injected(CrashPointInjector(site, hits=1)):
            with pytest.raises(SimulatedCrashError):
                engine.finish_reshard(plan)
        # the process is "dead": no cleanup runs; recover from disk alone
        recovered = ShardedEngine(
            PATH_QUERY,
            shards=2,
            epsilon=0.5,
            executor="serial",
            durability=str(tmp_path / "wal"),
        )
        recovered.recover()
        assert recovered.shards == expected_shards
        assert dict(recovered.result()) == oracle_result(
            STREAM + [Update("R", (10, 1), 1)]
        )
        assert list(recovered.enumerate()) == fresh_fleet_enumeration(
            expected_shards, STREAM + [Update("R", (10, 1), 1)]
        )
        recovered.check_invariants()
        recovered.close()
        engine.close()


    @pytest.mark.parametrize("via", ["apply", "apply_batch", "apply_stream", "retune"])
    def test_supervised_write_during_reshard_reaches_the_new_fleet(
        self, tmp_path, via
    ):
        """A write acknowledged by the supervisor between the cut and the
        swap is buffered for tail replay like any facade write — it must
        not vanish when the fleet swaps."""
        engine = live_fleet(shards=2, durability=str(tmp_path / "wal"))
        supervisor = ShardSupervisor(engine)
        late = [Update("R", (1000, 3), 1), Update("S", (3, 1001), 1)]
        plan = engine.begin_reshard(4)
        engine.build_reshard(plan)
        if via == "apply":
            for update in late:
                supervisor.apply(update)
        elif via == "apply_batch":
            supervisor.apply_batch(UpdateBatch(late))
        elif via == "apply_stream":
            supervisor.apply_stream(late, batch_size=2)
        else:
            supervisor.retune(0.25)
            supervisor.apply_batch(late)
        engine.finish_reshard(plan)
        assert engine.shards == 4
        assert dict(engine.result()) == oracle_result(STREAM + late)
        assert sum(1 for tup in engine.result() if tup[0] == 1000) == 3
        if via == "retune":
            assert engine.epsilon == 0.25
            fresh = fresh_fleet_enumeration(4, STREAM + late, epsilon=0.25)
            assert list(engine.enumerate()) == fresh
        # the supervisor follows the swap: it tracks the new fleet's shards
        supervisor.apply(Update("R", (1001, 3), 1))
        assert supervisor.shard_versions() == engine.shard_versions()
        assert tuple(supervisor._versions) == engine.shard_versions()
        engine.check_invariants()
        supervisor.close()


class TestSupervisedIngestionIsTheFacades:
    """The supervisor contributes fault handling only: everything else a
    supervised write does is what the same write through the facade does."""

    def test_supervised_applies_survive_a_two_to_four_reshard(self, tmp_path):
        engine = live_fleet(shards=2, durability=str(tmp_path / "wal"))
        supervisor = ShardSupervisor(engine)
        engine.reshard(4)
        late = [Update("R", (2000 + i, 1 + i % 3), 1) for i in range(30)]
        for update in late:
            supervisor.apply(update)
        assert supervisor.shard_versions() == engine.shard_versions()
        assert tuple(supervisor._versions) == engine.shard_versions()
        assert dict(supervisor.result()) == oracle_result(STREAM + late)
        supervisor.close()

    @pytest.mark.parametrize("batch_size", [0, -1, True, 2.5])
    def test_apply_stream_rejects_bad_batch_sizes_like_the_facade(
        self, tmp_path, batch_size
    ):
        engine = live_fleet(shards=2, durability=str(tmp_path / "wal"))
        supervisor = ShardSupervisor(engine)
        before = engine.version
        with pytest.raises(ValueError, match="batch size"):
            supervisor.apply_stream([Update("R", (10, 1), 1)], batch_size=batch_size)
        assert engine.version == before
        supervisor.close()

    def test_supervised_ingestion_records_facade_telemetry(self, tmp_path):
        engine = live_fleet(shards=2, updates=(), durability=str(tmp_path / "wal"))
        supervisor = ShardSupervisor(engine)
        assert engine.telemetry.update_events == 0
        supervisor.apply(STREAM[0])
        supervisor.apply_batch(STREAM[1:4])
        supervisor.apply_stream(STREAM[4:], batch_size=4)
        assert engine.telemetry.update_tuples == len(STREAM)
        assert engine.telemetry.update_events == engine.version == 1 + 1 + 2
        supervisor.close()


# ---------------------------------------------------------------------------
# networking: reshard over the wire, and session-teardown accounting
# ---------------------------------------------------------------------------
def open_server(engine, **server_kwargs):
    serving = EngineServer(engine)
    handle = ServerThread(
        serving, ServerConfig(host="127.0.0.1", port=0, **server_kwargs)
    )
    handle.start()
    return serving, handle


def shard_side_snapshot_count(engine):
    return sum(len(server._snapshots) for server in engine._executor._servers)


class TestNetReshard:
    def test_client_reshard_with_subscriber_and_pinned_snapshot(self):
        engine = live_fleet(shards=2, executor="thread", updates=STREAM[:5])
        expected = oracle_result(STREAM[:5])
        serving, handle = open_server(engine)
        client = EngineClient("127.0.0.1", handle.port)
        try:
            subscription = client.subscribe()
            held = client.open_snapshot()
            version = client.reshard(4)
            assert client.ping()["shards"] == 4
            assert subscription.wait_for_version(version, timeout=10.0)
            version = client.apply_update(Update("R", (20, 1), 1))
            assert subscription.wait_for_version(version, timeout=10.0)
            assert subscription.result() == oracle_result(
                STREAM[:5] + [Update("R", (20, 1), 1)]
            )
            # the pre-reshard snapshot pages its capture through the
            # retired fleet, after the swap and the write
            assert dict(held.result()) == expected
            stats = client.server_stats()
            assert stats["serving"]["reshards_applied"] == 1
            assert stats["shards"] == 4
            held.close()
            subscription.close()
        finally:
            client.close()
            handle.close()
            engine.close()

    def test_reshard_rejects_bad_shard_count(self):
        engine = live_fleet(shards=2, executor="thread", updates=[])
        serving, handle = open_server(engine)
        client = EngineClient("127.0.0.1", handle.port)
        try:
            from repro.net.client import RemoteError

            with pytest.raises(RemoteError):
                client.reshard(0)
        finally:
            client.close()
            handle.close()
            engine.close()


class TestSessionTeardownAccounting:
    """Satellite: abnormal disconnects must release every snapshot handle."""

    def test_crash_looping_client_cannot_exhaust_capacity(self):
        engine = live_fleet(shards=2, executor="thread", updates=STREAM[:5])
        serving, handle = open_server(engine, max_snapshots_per_session=4)
        try:
            for _ in range(5):  # a client that crashes after every connect
                client = EngineClient("127.0.0.1", handle.port)
                for _ in range(4):  # ... with its session limit maxed out
                    snapshot = client.open_snapshot()
                    snapshot.page(limit=2)  # mid-page: iterator half-drained
                # abrupt socket death: no snapshot_close, no clean goodbye
                # (the abort resets the connection, as a kill would); the
                # close after it only stops the dead client's loop thread
                client._loop.call_soon_threadsafe(
                    client._async._writer.transport.abort
                )
                client.close()
            # every pin must drain as the server reaps the dead sessions;
            # sessions pin the published version, so all that stays
            # registered is that one version (a handle per shard) — this
            # is what keeps the registries bounded
            assert wait_until(lambda: serving._published._pins == 0), (
                f"{serving._published._pins} pins leaked"
            )
            assert shard_side_snapshot_count(engine) == engine.shards
            # and a well-behaved client still gets its full allowance
            client = EngineClient("127.0.0.1", handle.port)
            opened = [client.open_snapshot() for _ in range(4)]
            for snapshot in opened:
                assert dict(snapshot.result()) == oracle_result(STREAM[:5])
                snapshot.close()
            client.close()
        finally:
            handle.close()
            engine.close()

    def test_teardown_without_pool_still_releases_handles(self):
        """Post-stop teardown: the pool is gone, handles must not leak.

        A connection task that dies after ``stop()`` released the pool
        reaches ``_teardown_session`` with ``_run`` unusable; the old
        best-effort loop swallowed the failure per snapshot and leaked
        every engine-side handle.
        """
        from repro.net.server import EngineTCPServer, _Session

        engine = live_fleet(shards=2, executor="thread", updates=[])
        serving = EngineServer(engine)
        server = EngineTCPServer(serving, ServerConfig(host="127.0.0.1", port=0))

        class _DeadWriter:
            def close(self):
                pass

        async def scenario():
            server._loop = asyncio.get_running_loop()
            server._pool = None  # the pool died before this session's teardown
            session = _Session(_DeadWriter())
            for index in range(3):
                session.snapshots[index] = serving.snapshot()
            assert shard_side_snapshot_count(engine) == 3 * 2
            await server._teardown_session(session)

        asyncio.run(scenario())
        assert shard_side_snapshot_count(engine) == 0
        engine.close()

    def test_teardown_cancelled_midway_still_releases_handles(self):
        """Cancellation mid-teardown must not abandon the remaining handles.

        Server shutdown cancels connection tasks; a task already inside
        ``_teardown_session`` takes the ``CancelledError`` at its next
        await.  ``CancelledError`` is not an ``Exception``, so the old
        loop abandoned every snapshot not yet closed.
        """
        from repro.net.server import EngineTCPServer, _Session

        engine = live_fleet(shards=2, executor="thread", updates=[])
        serving = EngineServer(engine)
        server = EngineTCPServer(serving, ServerConfig(host="127.0.0.1", port=0))

        class _DeadWriter:
            def close(self):
                pass

        async def scenario():
            loop = asyncio.get_running_loop()
            server._loop = loop
            server._pool = ThreadPoolExecutor(max_workers=1)
            try:
                session = _Session(_DeadWriter())
                for index in range(3):
                    session.snapshots[index] = serving.snapshot()
                task = loop.create_task(server._teardown_session(session))
                await asyncio.sleep(0)  # let it reach the first pool await
                task.cancel()
                with pytest.raises(asyncio.CancelledError):
                    await task
            finally:
                server._pool.shutdown(wait=True)
                server._pool = None

        asyncio.run(scenario())
        assert shard_side_snapshot_count(engine) == 0
        engine.close()

    def test_server_stop_with_live_sessions_releases_handles(self):
        engine = live_fleet(shards=2, executor="thread", updates=STREAM[:5])
        serving, handle = open_server(engine)
        client = EngineClient("127.0.0.1", handle.port)
        client.open_snapshot()
        client.open_snapshot()
        assert shard_side_snapshot_count(engine) > 0
        # stopping the server cancels the connection tasks mid-session;
        # teardown must still release the engine-side handles
        handle.close()
        assert wait_until(lambda: serving._published._pins == 0)
        # (the EngineServer outlives the TCP server and keeps its one
        # published version: a handle per shard, no more)
        assert shard_side_snapshot_count(engine) == engine.shards
        client.close()
        engine.close()
