"""Process-kill integration tests: a durable ShardedEngine heals worker deaths.

The headline scenario: a sharded deployment with per-shard durability,
one worker SIGKILLed mid-stream; the next shard round that touches the
dead worker restarts exactly that shard from its durability directory
while the others keep serving, and the merged enumeration afterwards
equals the never-killed oracle.  The deterministic variants arm
``REPRO_CRASH_POINT`` so workers die at an exact WAL site, covering both
reconciliation outcomes: a crash *before* the record is durable (re-send)
and a crash *after* fsync but before the acknowledgement (skip —
re-sending would double-apply).  A non-durable fleet does not heal.
"""

import os
import signal
import sys
import threading
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager

import pytest

from repro.core.api import HierarchicalEngine
from repro.core.serving import EngineServer
from repro.data.database import Database
from repro.data.update import Update, UpdateStream
from repro.durability.checkpoint import find_checkpoints, load_checkpoint
from repro.durability.crashpoints import ENV_VAR
from repro.exceptions import (
    DurabilityError,
    RejectedUpdateError,
    StaleStateError,
    WorkerDiedError,
)
from repro.net.client import EngineClient
from repro.net.server import ServerConfig, ServerThread
from repro.rings.spec import AggregateSpec
from repro.sharding import ShardedEngine

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


def diagonal_database():
    """``R(b, b)`` and ``S(b, 100 + b)`` for ``b < 20``: both shards hold data."""
    database = Database()
    r = database.create_relation("R", ("A", "B"))
    s = database.create_relation("S", ("B", "C"))
    for b in range(20):
        r.apply_delta((b, b), 1)
        s.apply_delta((b, 100 + b), 1)
    return database


# a stream that touches every shard of a small deployment repeatedly
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


def sharded_twin_pairs(shards, updates=STREAM):
    """A never-killed twin fleet's enumeration as a multiset: a recovered
    shard rebuilds its relations in checkpoint-then-WAL order, so its tree
    order (and the fleet's Union order) may differ from the twin's."""
    twin = ShardedEngine(PATH_QUERY, shards=shards, epsilon=0.5, executor="serial")
    twin.load(make_database())
    for update in updates:
        twin.apply(update)
    pairs = Counter(twin.enumerate())
    twin.close()
    return pairs


def start_fleet(tmp_path, shards=2, database=None, durable=True):
    engine = ShardedEngine(
        PATH_QUERY,
        shards=shards,
        epsilon=0.5,
        executor="process",
        durability=str(tmp_path / "wal") if durable else None,
    )
    return engine.load(database or make_database())


def restarts(engine):
    return engine.restart_stats.restarts


def kill_worker(engine, shard):
    """SIGKILL one worker process and wait for it to actually be gone."""
    process = engine._executor._processes[shard]
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=10)
    assert not process.is_alive()


def keys_per_shard(engine):
    """One join key ``b < 20`` routed to shard 0 and one routed to shard 1."""
    shard_of = {b: engine.router.shard_of_update(Update("R", (b, b), 1)) for b in range(20)}
    return (
        next(b for b, shard in shard_of.items() if shard == 0),
        next(b for b, shard in shard_of.items() if shard == 1),
    )


@contextmanager
def armed_workers(spec):
    """Arm REPRO_CRASH_POINT for worker *startup* only.

    The variable must be set while the executor forks its workers (each
    worker re-arms from the environment) and removed before any recovery,
    so restarted workers come up unarmed and the deployment heals.
    """
    os.environ[ENV_VAR] = spec
    try:
        yield
    finally:
        os.environ.pop(ENV_VAR, None)


class TestSigkillMidStream:
    def test_kill_one_worker_recover_and_match_oracle(self, tmp_path):
        engine = start_fleet(tmp_path, shards=2)
        try:
            for update in STREAM[:4]:
                engine.apply(update)
            held = engine.snapshot()

            victim = engine.router.shard_of_update(STREAM[4])
            kill_worker(engine, victim)

            # the stream continues: the first command routed to the dead
            # shard trips WorkerDiedError, the facade restarts that worker
            # in recovery mode and reconciles, others keep serving
            for update in STREAM[4:]:
                engine.apply(update)

            assert restarts(engine) == 1
            assert engine.result() == oracle_result()
            assert Counter(engine.enumerate()) == sharded_twin_pairs(2)
            engine.check_invariants()

            # the held snapshot's shard-local capture died with the
            # worker: honest staleness, not silent wrong answers
            with pytest.raises(StaleStateError):
                dict(held.result())

            # a snapshot captured after recovery serves the merged state
            fresh = engine.snapshot()
            assert dict(fresh.result()) == oracle_result()
        finally:
            engine.close()

    def test_kill_during_batch_round(self, tmp_path):
        engine = start_fleet(tmp_path, shards=2)
        try:
            engine.apply_batch(STREAM[:4])
            victim = engine.router.shard_of_update(STREAM[4])
            kill_worker(engine, victim)
            # this batch spans both shards: the survivor applies, the dead
            # shard is recovered and its sub-batch reconciled (re-sent)
            engine.apply_batch(STREAM[4:])
            assert restarts(engine) == 1
            assert engine.result() == oracle_result()
            assert Counter(engine.enumerate()) == sharded_twin_pairs(2)
            engine.check_invariants()
        finally:
            engine.close()

    def test_read_path_recovers_dead_shard(self, tmp_path):
        engine = start_fleet(tmp_path, shards=2)
        try:
            for update in STREAM:
                engine.apply(update)
            kill_worker(engine, 1)
            # reads broadcast to every shard, trip on the dead pipe, and
            # run again after the restart — no mutation needed to heal
            assert engine.result() == oracle_result()
            assert restarts(engine) == 1
            assert Counter(engine.enumerate()) == sharded_twin_pairs(2)
        finally:
            engine.close()

    def test_concurrent_rounds_restart_a_dead_worker_once(self, tmp_path):
        engine = start_fleet(tmp_path, shards=2)
        interval = sys.getswitchinterval()
        readers = 8
        try:
            engine.apply_batch(STREAM)
            expected = engine.shard_versions()
            kill_worker(engine, 0)
            barrier = threading.Barrier(readers)

            def read_versions():
                barrier.wait(timeout=10)
                return engine.shard_versions()

            sys.setswitchinterval(1e-5)
            with ThreadPoolExecutor(readers) as pool:
                futures = [pool.submit(read_versions) for _ in range(readers)]
                results = [future.result(timeout=60) for future in futures]
            assert results == [expected] * readers
            assert restarts(engine) == 1
            assert engine.result() == oracle_result()
        finally:
            sys.setswitchinterval(interval)
            engine.close()


class TestDeterministicCrashSites:
    """Workers die at an exact WAL site via REPRO_CRASH_POINT."""

    def _run_stream_with_armed_workers(self, tmp_path, spec):
        with armed_workers(spec):
            engine = start_fleet(tmp_path, shards=2)
        # env is clear again: restarted workers must come up unarmed
        assert ENV_VAR not in os.environ
        try:
            for update in STREAM:
                engine.apply(update)
            result = dict(engine.result())
            engine.check_invariants()
            return result, restarts(engine)
        finally:
            engine.close()

    def test_crash_before_append_is_resent(self, tmp_path):
        """wal-append crash: nothing durable, reconcile must re-send."""
        result, recoveries = self._run_stream_with_armed_workers(
            tmp_path, "wal-append:3"
        )
        assert recoveries >= 1
        assert result == oracle_result()

    def test_crash_after_fsync_is_skipped(self, tmp_path):
        """wal-fsync crash: the record IS durable but the ack died with
        the worker — reconcile must skip, or the update double-applies."""
        result, recoveries = self._run_stream_with_armed_workers(
            tmp_path, "wal-fsync:3"
        )
        assert recoveries >= 1
        assert result == oracle_result()

    def test_torn_write_is_repaired_on_recovery(self, tmp_path):
        """wal-torn crash: half a record on disk; the scan truncates it
        and the reconcile re-sends the lost command."""
        result, recoveries = self._run_stream_with_armed_workers(
            tmp_path, "wal-torn:4"
        )
        assert recoveries >= 1
        assert result == oracle_result()


class TestHealedRoundsStayExact:
    def test_death_in_the_validate_round_keeps_a_rejection_whole(self, tmp_path):
        """A survivor's rejection used to be dropped when another worker
        died in the same validate round: the dead shard alone was asked
        again, the commit round went ahead, and the batch half-applied."""
        engine = start_fleet(tmp_path, database=diagonal_database())
        try:
            b0, b1 = keys_per_shard(engine)
            before = dict(engine.result())
            versions = engine.shard_versions()
            kill_worker(engine, 0)
            with pytest.raises(RejectedUpdateError):
                engine.apply_batch(
                    [Update("R", (500, b0), 1), Update("R", (b1, b1), -5)]
                )
            assert dict(engine.result()) == before
            assert engine.shard_versions() == versions
            # the acknowledged versions still agree with the shards, so a
            # later commit on a restarted worker is re-sent, not skipped
            kill_worker(engine, 0)
            engine.apply(Update("R", (600, b0), 1))
            assert engine.result()[(600, 100 + b0)] == 1
            assert (500, 100 + b0) not in engine.result()
            assert restarts(engine) == 2
        finally:
            engine.close()

    def test_a_healed_snapshot_round_asks_each_survivor_once(self, tmp_path):
        """Only the dead shard's command is re-sent: re-running the round
        whole made every survivor register a second capture and keep its
        first one forever."""
        engine = start_fleet(tmp_path, shards=3, database=diagonal_database())
        sent = []
        send = engine._executor.map

        def recorded(commands):
            sent.extend(shard for shard, (command, _) in commands.items() if command == "snapshot")
            return send(commands)

        engine._executor.map = recorded
        try:
            kill_worker(engine, 1)
            snapshot = engine.snapshot()
            assert restarts(engine) == 1
            assert sorted(sent) == [0, 1, 1, 2]  # the dead shard's, twice
            assert dict(snapshot.result()) == dict(engine.result())
            snapshot.close()
        finally:
            engine.close()

    def test_restarted_worker_keeps_delta_capture_and_aggregates(self, tmp_path):
        engine = start_fleet(tmp_path, database=diagonal_database())
        oracle = HierarchicalEngine(PATH_QUERY, epsilon=0.5).load(diagonal_database())
        spec = AggregateSpec.coerce("sum", "C", "A")
        try:
            b0, b1 = keys_per_shard(engine)
            engine.register_aggregate(spec)
            engine.set_delta_capture(True)
            engine.drain_result_delta()
            kill_worker(engine, 1)
            update = Update("R", (700, b1), 1)
            engine.apply(update)
            oracle.apply(update)
            assert restarts(engine) == 1
            assert engine.drain_result_delta() == {(700, 100 + b1): 1}
            assert engine.aggregate(spec) == oracle.aggregate(spec)
            assert engine.aggregate(spec) == engine.aggregate(spec, maintained=False)
        finally:
            engine.close()

    def test_a_read_round_heal_keeps_the_commits_delta(self, tmp_path):
        """A worker killed after acknowledging a commit and healed by a read
        round: the commit's delta came back with the acknowledgement, so
        the next drain still holds it.  It used to stay in the dead worker,
        and the drain reported the delta unknown (``None``)."""
        engine = start_fleet(tmp_path, database=diagonal_database())
        oracle = HierarchicalEngine(PATH_QUERY, epsilon=0.5).load(diagonal_database())
        try:
            _, b1 = keys_per_shard(engine)
            engine.set_delta_capture(True)
            oracle.set_delta_capture(True)
            update = Update("R", (700, b1), 1)
            engine.apply(update)
            oracle.apply(update)
            kill_worker(engine, 1)
            engine.view_size()  # the read round that restarts the worker
            assert restarts(engine) == 1
            assert engine.drain_result_delta() == oracle.drain_result_delta()
        finally:
            engine.close()

    def test_a_skipped_commit_reports_its_delta_unknown(self, tmp_path):
        """The ack of a durable commit died with its worker: the commit is
        reconciled by skipping, and the delta it captured is gone."""
        with armed_workers("wal-fsync:1"):
            engine = start_fleet(tmp_path, database=diagonal_database())
        try:
            b0, _ = keys_per_shard(engine)
            engine.set_delta_capture(True)
            engine.apply(Update("R", (800, b0), 1))
            assert restarts(engine) == 1
            assert engine.result()[(800, 100 + b0)] == 1
            assert engine.drain_result_delta() is None
            # known again from the next drain on
            engine.apply(Update("R", (801, b0), 1))
            assert engine.drain_result_delta() == {(801, 100 + b0): 1}
        finally:
            engine.close()

    def test_served_healing_keeps_subscriber_mirrors_exact(self, tmp_path):
        """Served over TCP, a skipped commit sends every subscriber through
        the resync path, so each mirror still equals the oracle."""
        with armed_workers("wal-fsync:3"):
            engine = start_fleet(tmp_path, shards=2)
        handle = ServerThread(EngineServer(engine), ServerConfig(port=0))
        handle.start()
        client = EngineClient("127.0.0.1", handle.port)
        try:
            tuples = client.subscribe()
            sums = client.subscribe_aggregate("sum", "C", "A")
            version = 0
            for update in STREAM:
                version = client.apply_update(update)
            assert restarts(engine) >= 1
            assert tuples.wait_for_version(version, timeout=10.0)
            assert sums.wait_for_version(version, timeout=10.0)
            assert tuples.result() == oracle_result()
            oracle = HierarchicalEngine(PATH_QUERY, epsilon=0.5).load(make_database())
            oracle.apply_batch(STREAM)
            assert sums.answers() == oracle.aggregate("sum", "C", "A")
            assert client.server_stats()["net"]["resyncs"] >= 1
        finally:
            client.close()
            handle.close()
            engine.close()


class TestHealingScope:
    def test_a_non_durable_fleet_does_not_heal(self, tmp_path):
        engine = start_fleet(tmp_path, shards=2, durable=False)
        try:
            assert engine.restart_stats is None
            kill_worker(engine, 1)
            with pytest.raises(WorkerDiedError) as raised:
                engine.result()
            assert raised.value.shard_indexes == (1,)
            assert engine._executor.dead_shards() == [1]
        finally:
            engine.close()

    def test_durable_fleet_serves_normally_without_faults(self, tmp_path):
        engine = start_fleet(tmp_path, shards=2)
        try:
            engine.apply_stream(STREAM, batch_size=4)
            engine.retune(0.25)
            assert restarts(engine) == 0
            assert engine.result() == oracle_result()
            assert engine.count_distinct() == len(oracle_result())
        finally:
            engine.close()


class TestColdShardedRecovery:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_recover_matches_closed_deployment(self, tmp_path, executor):
        engine = ShardedEngine(
            PATH_QUERY,
            shards=2,
            epsilon=0.5,
            executor=executor,
            durability=str(tmp_path / "wal"),
        )
        engine.load(make_database())
        for update in STREAM:
            engine.apply(update)
        expected_versions = engine.shard_versions()
        expected = dict(engine.result())
        engine.close()

        recovered = ShardedEngine(
            PATH_QUERY,
            shards=2,
            epsilon=0.5,
            executor=executor,
            durability=str(tmp_path / "wal"),
        )
        recovered.recover()
        assert recovered.shard_versions() == expected_versions
        assert tuple(recovered._fleet.acked) == expected_versions
        assert dict(recovered.result()) == expected
        assert Counter(recovered.enumerate()) == sharded_twin_pairs(2)
        recovered.check_invariants()
        recovered.close()

    def test_serial_restart_shard_recovers_in_place(self, tmp_path):
        engine = ShardedEngine(
            PATH_QUERY,
            shards=2,
            epsilon=0.5,
            executor="serial",
            durability=str(tmp_path / "wal"),
        )
        engine.load(make_database())
        for update in STREAM:
            engine.apply(update)
        expected = dict(engine.result())
        engine._executor.restart_shard(0)
        assert dict(engine.result()) == expected
        engine.check_invariants()
        engine.close()

    def test_shard_engines_record_no_telemetry(self, tmp_path):
        """Only the facade's telemetry is read (the controller, /metrics):
        shard engines time nothing and checkpoint ``"telemetry": null``, so
        a recovered shard comes back without telemetry too."""
        engine = ShardedEngine(
            PATH_QUERY,
            shards=2,
            epsilon=0.5,
            executor="serial",
            durability=str(tmp_path / "wal"),
        )
        engine.load(make_database())
        for update in STREAM:
            engine.apply(update)
        engine._executor.restart_shard(0)
        try:
            assert engine.telemetry is not None
            for shard, server in enumerate(engine._executor._servers):
                assert server.engine.telemetry is None
                checkpoints = find_checkpoints(tmp_path / "wal" / f"shard-{shard}")
                assert checkpoints
                assert load_checkpoint(checkpoints[-1][1])["telemetry"] is None
        finally:
            engine.close()

    def test_recover_adopts_a_durable_retune(self, tmp_path):
        """The facade used to keep its constructor's ε while the recovered
        shards ran at the logged one, so the next reshard cut at the wrong
        ε (thresholds 7.42 / 4.36 / 4.58 where a fresh fleet has 2.72 /
        2.09 / 2.09)."""
        directory = str(tmp_path / "wal")
        engine = ShardedEngine(
            PATH_QUERY, shards=2, epsilon=0.5, executor="serial", durability=directory
        )
        engine.load(make_database())
        engine.apply_stream(STREAM)
        engine.retune(0.25)
        engine.close()

        recovered = ShardedEngine(
            PATH_QUERY, shards=2, epsilon=0.5, executor="serial", durability=directory
        )
        recovered.recover()
        assert recovered.epsilon == 0.25
        recovered.reshard(3)
        final = make_database()
        UpdateStream(STREAM).apply_to(final)
        fresh = ShardedEngine(PATH_QUERY, shards=3, epsilon=0.25, executor="serial")
        fresh.load(final)
        try:
            assert recovered.thresholds() == pytest.approx(fresh.thresholds())
            assert dict(recovered.result()) == dict(fresh.result())
        finally:
            recovered.close()
            fresh.close()

    def test_recover_refuses_shards_at_different_epsilons(self, tmp_path):
        directory = str(tmp_path / "wal")
        engine = ShardedEngine(
            PATH_QUERY, shards=2, epsilon=0.5, executor="serial", durability=directory
        )
        engine.load(make_database())
        engine._executor._servers[1].engine.retune(0.25)  # one shard only
        engine.close()

        recovered = ShardedEngine(
            PATH_QUERY, shards=2, epsilon=0.5, executor="serial", durability=directory
        )
        with pytest.raises(DurabilityError, match=r"shard 0: 0\.5, shard 1: 0\.25"):
            recovered.recover()
        recovered.close()

    def test_recover_without_durability_raises(self):
        engine = ShardedEngine(PATH_QUERY, shards=2, executor="serial")
        engine.load(make_database())
        with pytest.raises(DurabilityError):
            engine.recover()
        engine.close()
