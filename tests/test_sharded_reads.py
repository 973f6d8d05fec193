"""Sharded reads: Figure 15's Union over one page cursor per shard.

A sharded read is Union over one buffered page cursor per shard, each
cursor paging through its shard snapshot's own tree-order enumeration.
Under test: the order is deterministic and executor-independent; a free
shard key makes every lookup one shard's business (no lookup rounds, no
broadcast); readers that stop early leave no shard state behind; and a
served sharded read never stalls the event loop for another session.
"""

from __future__ import annotations

import sys
import threading
import time
from itertools import islice

import pytest

from repro import HierarchicalEngine, ShardedEngine
from repro.core.serving import EngineServer
from repro.net.client import EngineClient
from repro.net.server import ServerConfig, ServerThread
from repro.workloads.scenarios import get_scenario


def scenario_fleet(name, scale, shards=4, executor="serial"):
    scenario = get_scenario(name)
    database = scenario.make_database(7, scale)
    engine = ShardedEngine(scenario.query, shards=shards, epsilon=0.5, executor=executor)
    return scenario, database, engine.load(database)


def spy_rounds(engine):
    """Record the commands of every shard round ``engine`` runs."""
    rounds = []
    run = engine._round

    def recorded(fleet, commands, mutating=False):
        rounds.append(sorted((shard, command) for shard, (command, _) in commands.items()))
        return run(fleet, commands, mutating)

    engine._round = recorded
    return rounds


def registry_sizes(engine):
    servers = engine._executor._servers
    return (
        sum(len(server._snapshots) for server in servers),
        sum(len(server._cursors) for server in servers),
    )


class TestUnionOrder:
    def test_serial_and_process_executors_enumerate_one_sequence(self):
        """Shard-major Union order depends on the shard count only: twice on
        each executor, at 1, 2 and 4 shards, the same sequence."""
        scenario = get_scenario("fraud")
        database = scenario.make_database(7, 0.05)
        stream = list(scenario.make_stream(database, 60, 8))
        expected = HierarchicalEngine(scenario.query, epsilon=0.5).load(database)
        expected.apply_batch(stream)
        for shards in (1, 2, 4):
            sequences = []
            for executor in ("serial", "process", "serial", "process"):
                with ShardedEngine(
                    scenario.query, shards=shards, epsilon=0.5, executor=executor
                ) as engine:
                    engine.load(database)
                    engine.apply_batch(stream)
                    sequences.append(list(engine.enumerate()))
            assert all(sequence == sequences[0] for sequence in sequences), shards
            assert len(sequences[0]) == len(expected.result())
            assert dict(sequences[0]) == expected.result()

    def test_free_key_first_page_runs_no_lookup_round(self):
        _, _, engine = scenario_fleet("sensors", 0.5)
        assert engine.router.key_is_free
        rounds = spy_rounds(engine)
        page = list(islice(engine.enumerate(), 100))
        assert len(page) == 100
        commands = {command for shard_commands in rounds for _, command in shard_commands}
        assert "snap_page" in commands and "snap_lookup" not in commands
        engine.close()

    def test_bound_key_pages_look_up_in_one_round_per_page(self):
        _, _, engine = scenario_fleet("fraud", 0.1)
        assert not engine.router.key_is_free
        rounds = spy_rounds(engine)
        list(islice(engine.enumerate(), 100))
        pages = [shard_commands for shard_commands in rounds if shard_commands[0][1] == "snap_page"]
        lookups = [shard_commands for shard_commands in rounds if shard_commands[0][1] == "snap_lookup"]
        # each fetched page is followed by one lookup round on the other shards
        assert pages and len(lookups) == len(pages)
        assert all(len(shard_commands) == engine.shards - 1 for shard_commands in lookups)
        engine.close()


class TestLookupRouting:
    def test_free_key_lookup_sends_exactly_one_shard_command(self):
        _, database, engine = scenario_fleet("sensors", 0.5)
        single = HierarchicalEngine(engine.query, epsilon=0.5).load(database)
        snapshot = engine.snapshot()
        rounds = spy_rounds(engine)
        for tup, mult in islice(single.result().items(), 20):
            del rounds[:]
            assert snapshot.lookup(tup) == mult
            column = engine.router.head_column
            owner = engine.router.shard_of_value(tup[column])
            assert rounds == [[(owner, "snap_lookup")]]
        snapshot.close()
        engine.close()

    def test_bound_key_lookup_asks_every_shard(self):
        _, database, engine = scenario_fleet("fraud", 0.1)
        single = HierarchicalEngine(engine.query, epsilon=0.5).load(database)
        snapshot = engine.snapshot()
        rounds = spy_rounds(engine)
        for tup, mult in islice(single.result().items(), 20):
            assert snapshot.lookup(tup) == mult
        assert all(len(shard_commands) == engine.shards for shard_commands in rounds)
        assert snapshot.lookup((-1, -1, -1)) == 0
        with pytest.raises(ValueError, match="arity"):
            snapshot.lookup((1,))
        snapshot.close()
        engine.close()


class TestNoShardStateLeftBehind:
    def test_abandoned_served_reads_keep_registries_bounded(self):
        """1 000 first pages of an unchanging published snapshot, each
        abandoned: the shards hold that one snapshot and no cursor piles up."""
        _, _, engine = scenario_fleet("fraud", 0.25)
        serving = EngineServer(engine)
        most_cursors = 0
        for _ in range(1000):
            assert len(serving.read(10).pairs) == 10
            snapshots, cursors = registry_sizes(engine)
            assert snapshots == engine.shards  # the published version only
            most_cursors = max(most_cursors, cursors)
        # every read opens a cursor; the next read's page round drops it
        assert 1 <= most_cursors <= 2 * engine.shards
        engine.close()

    def test_abandoned_live_reads_keep_registries_bounded(self):
        _, _, engine = scenario_fleet("sensors", 0.5)
        for _ in range(200):
            reader = engine.enumerate()
            next(reader)
            del reader  # finalised without a round; released by the next one
        snapshots, cursors = registry_sizes(engine)
        assert snapshots == engine.shards and 1 <= cursors <= engine.shards
        list(islice(engine.enumerate(), 5))  # one more abandoned read
        assert sum(1 for _ in engine.enumerate()) == len(engine.result())
        engine.snapshot().close()  # a snapshot round flushes what is queued
        assert registry_sizes(engine) == (0, 0)
        engine.close()

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_concurrent_readers_lose_no_release(self, executor):
        """In-process shards serve many reader threads at once: abandoned
        first pages, full reads and capture/release rounds race on the
        fleet's drop queues and the shards' registries.  A lost drop or a
        lost cursor leaves a registry entry behind once every reader is
        done; a lost insert breaks a read."""
        _, _, engine = scenario_fleet("sensors", 0.5, executor=executor)
        serving = EngineServer(engine)
        expected = engine.result()
        interval = sys.getswitchinterval()
        deadline = time.monotonic() + 1.0
        errors = []

        def reader(full: bool) -> None:
            try:
                while time.monotonic() < deadline:
                    ticket = serving.read(None if full else 10)
                    assert not full or ticket.result() == expected
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        def capturer() -> None:
            try:
                while time.monotonic() < deadline:
                    with serving._write_lock:
                        engine.snapshot().close()
            except BaseException as exc:  # noqa: BLE001 - reported below
                errors.append(exc)

        threads = [threading.Thread(target=reader, args=(i % 3 == 0,)) for i in range(6)]
        threads.append(threading.Thread(target=capturer))
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert not errors, errors[0]
        engine.snapshot().close()  # flush every queued release
        assert registry_sizes(engine) == (engine.shards, 0)  # the published version
        engine.close()

    def test_closing_a_snapshot_drops_its_open_cursors(self):
        _, _, engine = scenario_fleet("sensors", 0.5)
        snapshot = engine.snapshot()
        readers = [snapshot.enumerate() for _ in range(3)]
        for reader in readers:
            next(reader)
        assert registry_sizes(engine)[1] >= 3
        snapshot.close()
        assert registry_sizes(engine) == (0, 0)
        engine.close()


# ----------------------------------------------------------------------
# a served sharded fleet never stalls the event loop
# ----------------------------------------------------------------------
STALL_BOUND_S = 0.100


class _Pinger(threading.Thread):
    """Pings from its own session until stopped; records (start, latency)."""

    def __init__(self, port: int) -> None:
        super().__init__(name="stall-pinger", daemon=True)
        self.client = EngineClient("127.0.0.1", port)
        self.samples = []
        self.stop = threading.Event()

    def run(self) -> None:
        while not self.stop.is_set():
            started = time.perf_counter()
            self.client.ping()
            self.samples.append((started, time.perf_counter() - started))
            time.sleep(0.002)

    def worst_during(self, start: float, end: float) -> float:
        return max(
            (latency for began, latency in self.samples if began < end and began + latency > start),
            default=0.0,
        )


def test_served_sharded_ops_never_stall_a_second_session():
    """Every op a session sends to a served 4-shard fleet leaves another
    session's ``ping`` answered within 100 ms.  The data is sized so that a
    sharded ``snapshot_open`` that enumerated the whole result on the loop
    would stall it for well over half a second."""
    scenario, database, engine = scenario_fleet("fraud", 0.5)
    stream = list(scenario.make_stream(database, 60, 8))
    serving = EngineServer(engine)
    handle = ServerThread(serving, ServerConfig(host="127.0.0.1", port=0)).start()
    client = EngineClient("127.0.0.1", handle.port)
    pinger = _Pinger(handle.port)
    worst = {}

    def timed(name, op):
        time.sleep(0.02)  # let the pinger get a ping in before the op
        start = time.perf_counter()
        value = op()
        time.sleep(0.02)
        worst[name] = pinger.worst_during(start, time.perf_counter())
        return value

    try:
        client.apply_batch(stream[:10])  # publish a version: the open only pins
        pinger.start()
        snapshot = timed("snapshot_open", client.open_snapshot)
        pairs, _done = timed("snapshot_page", lambda: snapshot.page(limit=100))
        assert len(pairs) == 100
        timed("read", lambda: client.read(limit=100))
        tup, mult = pairs[0]
        assert timed("lookup", lambda: client.lookup(tup)) == mult
        timed("apply_batch", lambda: client.apply_batch(stream[10:]))
        timed("reshard", lambda: client.reshard(2))
        snapshot.close()
    finally:
        pinger.stop.set()
        pinger.join(timeout=10)
        pinger.client.close()
        client.close()
        handle.close()
        engine.close()
    stalled = {name: round(latency * 1e3, 1) for name, latency in worst.items() if latency > STALL_BOUND_S}
    assert not stalled, f"pings over {STALL_BOUND_S * 1e3:.0f} ms during: {stalled} (ms)"
