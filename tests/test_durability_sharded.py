"""Process-kill integration tests: ShardSupervisor over real worker deaths.

The headline scenario: a sharded deployment with per-shard durability,
one worker SIGKILLed mid-stream, the supervisor restart-and-recovers
exactly that shard while the others keep serving, and the merged
enumeration afterwards equals the never-killed oracle.  The
deterministic variants arm ``REPRO_CRASH_POINT`` so workers die at an
exact WAL site, covering both reconciliation outcomes: a crash *before*
the record is durable (re-send) and a crash *after* fsync but before the
acknowledgement (skip — re-sending would double-apply).
"""

import os
import signal
import time
from contextlib import contextmanager

import pytest

from repro.core.api import HierarchicalEngine
from repro.data.database import Database
from repro.data.update import Update, UpdateStream
from repro.durability import ShardSupervisor
from repro.durability.crashpoints import ENV_VAR
from repro.exceptions import DurabilityError, StaleStateError
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


def sharded_twin_enumeration(shards, updates=STREAM):
    twin = ShardedEngine(PATH_QUERY, shards=shards, epsilon=0.5, executor="serial")
    twin.load(make_database())
    for update in updates:
        twin.apply(update)
    merged = list(twin.enumerate())
    twin.close()
    return merged


def start_supervised(tmp_path, shards=2, watch_interval=None):
    engine = ShardedEngine(
        PATH_QUERY,
        shards=shards,
        epsilon=0.5,
        executor="process",
        durability=str(tmp_path / "wal"),
    )
    engine.load(make_database())
    return ShardSupervisor(engine, watch_interval=watch_interval)


def kill_worker(engine, shard):
    """SIGKILL one worker process and wait for it to actually be gone."""
    process = engine._executor._processes[shard]
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=10)
    assert not process.is_alive()


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
        supervisor = start_supervised(tmp_path, shards=2)
        engine = supervisor.engine
        try:
            for update in STREAM[:4]:
                supervisor.apply(update)
            held = supervisor.snapshot()

            victim = engine.router.shard_of_update(STREAM[4])
            kill_worker(engine, victim)

            # the stream continues: the first command routed to the dead
            # shard trips WorkerDiedError, the supervisor restarts that
            # worker in recovery mode and reconciles, others keep serving
            for update in STREAM[4:]:
                supervisor.apply(update)

            assert supervisor.recoveries >= 1
            assert supervisor.result() == oracle_result()
            assert list(supervisor.enumerate()) == sharded_twin_enumeration(2)
            supervisor.check_invariants()

            # the held snapshot's shard-local capture died with the
            # worker: honest staleness, not silent wrong answers
            with pytest.raises(StaleStateError):
                dict(held.result())

            # a snapshot captured after recovery serves the merged state
            fresh = supervisor.snapshot()
            assert dict(fresh.result()) == oracle_result()
        finally:
            supervisor.close()

    def test_kill_during_batch_round(self, tmp_path):
        supervisor = start_supervised(tmp_path, shards=2)
        engine = supervisor.engine
        try:
            supervisor.apply_batch(STREAM[:4])
            victim = engine.router.shard_of_update(STREAM[4])
            kill_worker(engine, victim)
            # this batch spans both shards: the survivor applies, the dead
            # shard is recovered and its sub-batch reconciled (re-sent)
            supervisor.apply_batch(STREAM[4:])
            assert supervisor.recoveries >= 1
            assert supervisor.result() == oracle_result()
            supervisor.check_invariants()
        finally:
            supervisor.close()

    def test_watcher_thread_heals_idle_death(self, tmp_path):
        supervisor = start_supervised(tmp_path, shards=2, watch_interval=0.05)
        engine = supervisor.engine
        try:
            for update in STREAM[:6]:
                supervisor.apply(update)
            kill_worker(engine, 0)
            deadline = time.monotonic() + 10
            while supervisor.recoveries == 0 and time.monotonic() < deadline:
                time.sleep(0.05)
            assert supervisor.recoveries >= 1
            for update in STREAM[6:]:
                supervisor.apply(update)
            assert supervisor.result() == oracle_result()
        finally:
            supervisor.close()

    def test_read_path_recovers_dead_shard(self, tmp_path):
        supervisor = start_supervised(tmp_path, shards=2)
        try:
            for update in STREAM:
                supervisor.apply(update)
            kill_worker(supervisor.engine, 1)
            # reads broadcast to every shard, trip on the dead pipe, and
            # retry after recovery — no mutation needed to heal
            assert supervisor.result() == oracle_result()
            assert supervisor.recoveries >= 1
        finally:
            supervisor.close()


class TestDeterministicCrashSites:
    """Workers die at an exact WAL site via REPRO_CRASH_POINT."""

    def _run_stream_with_armed_workers(self, tmp_path, spec):
        with armed_workers(spec):
            supervisor = start_supervised(tmp_path, shards=2)
        # env is clear again: restarted workers must come up unarmed
        assert ENV_VAR not in os.environ
        try:
            for update in STREAM:
                supervisor.apply(update)
            result = dict(supervisor.result())
            recoveries = supervisor.recoveries
            supervisor.check_invariants()
        finally:
            supervisor.close()
        return result, recoveries

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
        assert dict(recovered.result()) == expected
        assert list(recovered.enumerate()) == sharded_twin_enumeration(2)
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


class TestSupervisorPreconditions:
    def test_supervisor_requires_durability(self):
        engine = ShardedEngine(PATH_QUERY, shards=2, executor="serial")
        engine.load(make_database())
        with pytest.raises(DurabilityError):
            ShardSupervisor(engine)
        engine.close()

    def test_supervisor_serves_normally_without_faults(self, tmp_path):
        supervisor = start_supervised(tmp_path, shards=2)
        try:
            supervisor.apply_stream(STREAM, batch_size=4)
            supervisor.retune(0.25)
            assert supervisor.recoveries == 0
            assert supervisor.result() == oracle_result()
            assert supervisor.count_distinct() == len(oracle_result())
        finally:
            supervisor.close()
