"""Checkpointing as a background observer: schedule, writer, failure path.

What changed when checkpoints left the commit path, stated as properties
that do not depend on timing:

* a durable engine is indistinguishable from a non-durable one fed the
  same events — checkpoints read the engine and change nothing;
* with the real writer thread, ``close()`` leaves a quiescent directory
  that recovers to the durability contract;
* a failing writer surfaces on the committing thread, never silently;
* the schedule is proportional to size: the number of checkpoints is
  bounded by WAL bytes ÷ checkpoint size, and no view is ever rebuilt.
"""

import math
import random
import sys
from unittest import mock

import pytest

from repro.conformance.runner import UNTIL_CLOSE, SteppedWriter
from repro.core.api import HierarchicalEngine
from repro.data.update import Update
from repro.durability import DurabilityConfig, recover_engine
from repro.durability import checkpoint as ckpt
from repro.durability import wal as walmod
from repro.ivm.rebalance import MaintenanceDriver
from repro.workloads.scenarios import get_scenario

from test_durability import PATH_QUERY, assert_recovered_like, make_database

#: Checkpoint on every commit the writer is free for.
TINY = 1e-9


def churn_stream(count, seed=3):
    """Inserts and deletes over a small domain: keys flip between heavy and
    light and index order drifts away from a fresh build's."""
    rng = random.Random(seed)
    present = {"R": [], "S": []}
    stream = []
    for _ in range(count):
        name = rng.choice(("R", "S"))
        if present[name] and rng.random() < 0.4:
            tup = present[name].pop(rng.randrange(len(present[name])))
            stream.append(Update(name, tup, -1))
        else:
            tup = (rng.randrange(6), rng.randrange(6))
            present[name].append(tup)
            stream.append(Update(name, tup, 1))
    return stream


@pytest.mark.parametrize("ratio", [TINY, 1.0, None])
def test_durable_engine_enumerates_like_a_non_durable_one(tmp_path, ratio):
    config = DurabilityConfig(str(tmp_path / "wal"), checkpoint_ratio=ratio)
    durable = HierarchicalEngine(PATH_QUERY, epsilon=0.5, durability=config)
    durable.load(make_database())
    plain = HierarchicalEngine(PATH_QUERY, epsilon=0.5).load(make_database())
    for step, update in enumerate(churn_stream(150)):
        durable.apply(update)
        plain.apply(update)
        assert list(durable.enumerate()) == list(plain.enumerate()), step
    assert durable.rebalance_stats.as_dict() == plain.rebalance_stats.as_dict()
    durable.close()
    if ratio == TINY:
        assert durable.durability_stats.checkpoints_written > 1


def test_real_writer_thread_close_then_recover(tmp_path):
    """Committer and writer thread hand over on every bytecode boundary."""
    config = DurabilityConfig(str(tmp_path / "wal"), checkpoint_ratio=TINY)
    engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5, durability=config)
    engine.load(make_database())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for update in churn_stream(300, seed=5):
            engine.apply(update)
        engine.close()
    finally:
        sys.setswitchinterval(interval)
    stats = engine.durability_stats
    # every commit found the schedule due: it either started a checkpoint
    # or found the previous one still in flight
    assert stats.checkpoints_written - 1 + stats.checkpoints_skipped_inflight == 300
    assert stats.checkpoint_failures == 0
    assert list(config.path.glob("*.tmp")) == []
    assert len(ckpt.find_checkpoints(config.path)) <= config.keep_checkpoints
    recovered, report = recover_engine(config.directory, config)
    assert report.warnings == []
    assert_recovered_like(recovered, engine)
    recovered.close()


def test_manual_checkpoint_is_synchronous(tmp_path):
    config = DurabilityConfig(str(tmp_path / "wal"), checkpoint_ratio=None)
    engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5, durability=config)
    engine.load(make_database())
    for update in churn_stream(10):
        engine.apply(update)
    path = engine.checkpoint()
    # durable on return: loadable, WAL rotated, nothing to replay
    assert ckpt.load_checkpoint(path)["version"] == engine.version
    assert engine.durability_stats.wal_bytes_since_checkpoint == 0
    assert walmod.wal_segments(config.path)[-1][0] == engine.version
    engine.close()
    recovered, report = recover_engine(config.directory, config)
    assert report.replayed_records == 0
    recovered.close()


class TestWriterFailure:
    def _failing_engine(self, tmp_path):
        config = DurabilityConfig(str(tmp_path / "wal"), checkpoint_ratio=TINY)
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5, durability=config)
        engine.load(make_database())
        return engine, config

    def test_next_commit_raises_then_the_schedule_retries(self, tmp_path):
        engine, config = self._failing_engine(tmp_path)
        stream = churn_stream(6)
        broken = mock.patch.object(
            ckpt, "write_checkpoint", side_effect=OSError("disk full")
        )
        with broken:
            engine.apply(stream[0])  # schedules the checkpoint that fails
            engine._durability.writer.drain()
            with pytest.raises(OSError, match="disk full"):
                engine.apply(stream[1])
        stats = engine.durability_stats
        assert stats.checkpoint_failures == 1
        assert stats.last_checkpoint_version == 0
        # the failed commit's record was logged before the failure surfaced,
        # so memory and log agree and ingestion simply continues
        for update in stream[2:]:
            engine.apply(update)
        engine.close()
        assert stats.last_checkpoint_version > 0
        recovered, _report = recover_engine(config.directory, config)
        assert_recovered_like(recovered, engine)
        recovered.close()

    def test_close_raises_a_failure_nobody_saw(self, tmp_path):
        engine, config = self._failing_engine(tmp_path)
        with mock.patch.object(
            ckpt, "write_checkpoint", side_effect=OSError("disk full")
        ):
            engine.apply(churn_stream(1)[0])
            with pytest.raises(OSError, match="disk full"):
                engine.close()
        # the WAL was closed first: the directory recovers from checkpoint 0
        recovered, report = recover_engine(config.directory, config)
        assert (report.checkpoint_version, recovered.version) == (0, 1)
        recovered.close()

    def test_at_most_one_checkpoint_in_flight(self, tmp_path):
        engine, _config = self._failing_engine(tmp_path)
        engine._durability.writer = SteppedWriter(UNTIL_CLOSE)
        for update in churn_stream(5):
            engine.apply(update)
        stats = engine.durability_stats
        assert (stats.checkpoints_written, stats.checkpoints_skipped_inflight) == (1, 4)
        engine.close()
        assert stats.checkpoints_written == 2
        assert stats.last_checkpoint_version == 1  # captured at the first commit


def test_schedule_is_proportional_to_size_and_never_normalises(tmp_path):
    """2 000 single-tuple commits on ``retail`` with the default policy."""
    scenario = get_scenario("retail")
    database = scenario.make_database(1, 1.0)
    stream = list(scenario.make_stream(database, 2000, 7))
    config = DurabilityConfig(str(tmp_path / "wal"), fsync=False)
    with mock.patch.object(
        MaintenanceDriver, "rematerialize", side_effect=AssertionError
    ):
        engine = HierarchicalEngine(scenario.query, durability=config).load(database)
        first_checkpoint = engine.durability_stats.checkpoint_bytes
        assert first_checkpoint > 0
        for update in stream:
            engine.apply(update)
        engine.close()
    stats = engine.durability_stats
    scheduled = stats.checkpoints_written - 1  # minus the version-0 one
    assert 1 <= scheduled <= math.ceil(stats.wal_bytes / first_checkpoint) + 1


def test_recovery_resumes_the_schedule_where_the_log_left_it(tmp_path):
    config = DurabilityConfig(str(tmp_path / "wal"), checkpoint_ratio=None)
    engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5, durability=config)
    engine.load(make_database())
    for update in churn_stream(20):
        engine.apply(update)
    engine.close()
    logged = engine.durability_stats.wal_bytes
    recovered, _report = recover_engine(config.directory, config)
    stats = recovered.durability_stats
    # magic header included: the replayed tail counts against the next checkpoint
    assert stats.wal_bytes_since_checkpoint == logged + len(walmod.WAL_MAGIC)
    assert stats.checkpoint_bytes == ckpt.find_checkpoints(config.path)[-1][1].stat().st_size
    recovered.close()


def test_wal_close_skips_the_fsync_when_nothing_is_unsynced(tmp_path):
    writer = walmod.WalWriter.create(tmp_path / walmod.wal_name(0))
    writer.append(walmod.encode(1, Update("R", (1, 1), 1)))
    with mock.patch.object(walmod.os, "fsync") as fsync:
        writer.close()
    assert fsync.call_count == 0
    unsynced = walmod.WalWriter.create(tmp_path / walmod.wal_name(1))
    with mock.patch.object(walmod.os, "fsync") as fsync:
        # a death between flush and fsync leaves dirty bytes behind
        with mock.patch.object(walmod, "crash_point", side_effect=[None, None, OSError]):
            with pytest.raises(OSError):
                unsynced.append(walmod.encode(2, Update("R", (1, 1), 1)))
        unsynced.close()
    assert fsync.call_count == 1
