"""Durability unit and regression tests: WAL format, checkpoints, recovery.

The corruption regressions follow one contract: *any* on-disk defect a
crash can leave behind — a torn last record, a flipped CRC byte, a
duplicate version, an empty or truncated file — recovers to the last
durable prefix with a clear log line, and never crashes or silently
diverges.
"""

import logging
import struct

import pytest

from repro.core.api import HierarchicalEngine
from repro.data.database import Database
from repro.data.update import Retune, Update, UpdateBatch
from repro.durability import (
    DurabilityConfig,
    coerce_config,
    recover_engine,
)
from repro.durability import checkpoint as ckpt
from repro.durability import wal as walmod
from repro.exceptions import DurabilityError, SchemaError
from repro.views.build import STATIC_MODE

PATH_QUERY = "Q(A, C) = R(A, B), S(B, C)"


def make_database(pairs_r=((1, 1), (1, 2), (2, 3)), pairs_s=((1, 5), (2, 5), (3, 6))):
    database = Database()
    r = database.create_relation("R", ("A", "B"))
    s = database.create_relation("S", ("B", "C"))
    for tup in pairs_r:
        r.apply_delta(tup, 1)
    for tup in pairs_s:
        s.apply_delta(tup, 1)
    return database


#: With the sub-kilobyte checkpoints of these databases and ~60-byte WAL
#: records, this schedules a checkpoint every second or third commit.
FREQUENT = 0.15


def durable_engine(tmp_path, ratio=FREQUENT, epsilon=0.5, fsync=True):
    config = DurabilityConfig(
        str(tmp_path / "wal"), checkpoint_ratio=ratio, fsync=fsync
    )
    engine = HierarchicalEngine(PATH_QUERY, epsilon=epsilon, durability=config)
    engine.load(make_database())
    return engine, config


def durable_state(engine):
    """Everything recovery reproduces without normalising (the contract)."""
    return (
        engine.version,
        engine.epsilon,
        engine._driver.threshold_base,
        [(rel.name, list(rel.items())) for rel in engine.database],
        dict(engine.result()),
    )


def assert_recovered_like(recovered, live):
    """The durability contract between a recovered and a live engine."""
    assert durable_state(recovered) == durable_state(live)
    recovered.check_invariants()
    recovered._driver.rematerialize()
    live._driver.rematerialize()
    assert list(recovered.enumerate()) == list(live.enumerate())


STREAM = [
    Update("R", (3, 1), 1),
    Update("S", (1, 7), 1),
    Update("R", (1, 2), 1),
    Update("S", (2, 8), 1),
    Update("R", (3, 1), -1),
    Update("S", (5, 5), 1),
    Update("R", (4, 5), 1),
]


class TestWalFormat:
    def test_append_scan_round_trip(self, tmp_path):
        path = tmp_path / walmod.wal_name(0)
        writer = walmod.WalWriter.create(path)
        for version, update in enumerate(STREAM, start=1):
            writer.append(walmod.encode(version, update))
        writer.close()
        scan = walmod.scan_wal(path)
        assert [record["v"] for record in scan.records] == list(
            range(1, len(STREAM) + 1)
        )
        assert scan.truncated_bytes == 0
        assert scan.warnings == []
        assert scan.valid_length == path.stat().st_size
        assert [walmod.decode(record) for record in scan.records] == STREAM

    def test_batch_round_trip_preserves_order_and_source_count(self, tmp_path):
        from repro.data.update import as_batch

        batch = as_batch(
            [Update("S", (9, 9), 1), Update("R", (8, 8), 1), Update("S", (9, 9), 1)]
        )
        path = tmp_path / walmod.wal_name(0)
        writer = walmod.WalWriter.create(path)
        writer.append(walmod.encode(1, batch))
        writer.close()
        (record,) = walmod.scan_wal(path).records
        rebuilt = walmod.decode(record)
        assert rebuilt.source_count == batch.source_count
        assert list(rebuilt.deltas_by_relation()) == list(batch.deltas_by_relation())

    def test_retune_round_trip_and_unknown_kind(self):
        record = walmod.encode(3, Retune(0.25))
        assert record == {"v": 3, "kind": "retune", "eps": 0.25}
        assert walmod.decode(record) == Retune(0.25)
        with pytest.raises(DurabilityError, match="unknown WAL record kind"):
            walmod.decode({"v": 4, "kind": "reshard"})

    def test_segment_listing_sorts_and_skips_noise(self, tmp_path):
        for version in (7, 0, 21):
            walmod.WalWriter.create(tmp_path / walmod.wal_name(version)).close()
        (tmp_path / "wal-notanumber.log").write_bytes(b"junk")
        assert [start for start, _ in walmod.wal_segments(tmp_path)] == [0, 7, 21]


class TestWalCorruptionRegressions:
    """Every defect truncates to the durable prefix — logged, never fatal."""

    def _segment_with(self, tmp_path, count=4):
        path = tmp_path / walmod.wal_name(0)
        writer = walmod.WalWriter.create(path)
        for version, update in enumerate(STREAM[:count], start=1):
            writer.append(walmod.encode(version, update))
        writer.close()
        return path

    def test_truncated_last_record(self, tmp_path, caplog):
        path = self._segment_with(tmp_path)
        intact = walmod.scan_wal(path)
        data = path.read_bytes()
        path.write_bytes(data[:-5])
        with caplog.at_level(logging.WARNING, logger="repro.durability"):
            scan = walmod.scan_wal(path)
        assert [r["v"] for r in scan.records] == [1, 2, 3]
        assert scan.truncated_bytes > 0
        assert scan.valid_length < len(data) - 5
        assert any("truncating" in w for w in scan.warnings)
        assert any("torn record payload" in rec.message for rec in caplog.records)
        assert intact.records[:3] == scan.records

    def test_flipped_crc_byte(self, tmp_path, caplog):
        path = self._segment_with(tmp_path)
        data = bytearray(path.read_bytes())
        # flip one byte inside the *payload* of the third record
        offsets = self._record_offsets(data)
        payload_start = offsets[2] + 8
        data[payload_start + 2] ^= 0xFF
        path.write_bytes(bytes(data))
        with caplog.at_level(logging.WARNING, logger="repro.durability"):
            scan = walmod.scan_wal(path)
        assert [r["v"] for r in scan.records] == [1, 2]
        assert any("CRC mismatch" in w for w in scan.warnings)

    def test_duplicate_version_record(self, tmp_path, caplog):
        path = tmp_path / walmod.wal_name(0)
        writer = walmod.WalWriter.create(path)
        writer.append(walmod.encode(1, STREAM[0]))
        writer.append(walmod.encode(2, STREAM[1]))
        writer.append(walmod.encode(2, STREAM[2]))  # duplicate
        writer.close()
        with caplog.at_level(logging.WARNING, logger="repro.durability"):
            scan = walmod.scan_wal(path, last_version=0)
        assert [r["v"] for r in scan.records] == [1, 2]
        assert any("duplicate or out-of-order" in w for w in scan.warnings)

    def test_version_gap_record(self, tmp_path):
        path = tmp_path / walmod.wal_name(0)
        writer = walmod.WalWriter.create(path)
        writer.append(walmod.encode(1, STREAM[0]))
        writer.append(walmod.encode(5, STREAM[1]))  # gap
        writer.close()
        scan = walmod.scan_wal(path, last_version=0)
        assert [r["v"] for r in scan.records] == [1]

    def test_empty_file(self, tmp_path, caplog):
        path = tmp_path / walmod.wal_name(0)
        path.write_bytes(b"")
        with caplog.at_level(logging.WARNING, logger="repro.durability"):
            scan = walmod.scan_wal(path)
        assert scan.records == []
        assert scan.valid_length == 0
        assert any("magic" in w for w in scan.warnings)

    def test_magic_only_file_is_a_valid_empty_segment(self, tmp_path):
        path = tmp_path / walmod.wal_name(0)
        walmod.WalWriter.create(path).close()
        scan = walmod.scan_wal(path)
        assert scan.records == []
        assert scan.warnings == []
        assert scan.valid_length == len(walmod.WAL_MAGIC)

    def test_garbage_prefix_file(self, tmp_path):
        path = tmp_path / walmod.wal_name(0)
        path.write_bytes(b"not a wal at all")
        scan = walmod.scan_wal(path)
        assert scan.records == []
        assert scan.truncated_bytes == len(b"not a wal at all")

    def test_implausible_length_prefix(self, tmp_path):
        path = self._segment_with(tmp_path, count=1)
        with open(path, "ab") as handle:
            handle.write(struct.pack(">II", walmod.MAX_RECORD_BYTES + 1, 0))
            handle.write(b"xx")
        scan = walmod.scan_wal(path)
        assert [r["v"] for r in scan.records] == [1]
        assert any("implausible" in w for w in scan.warnings)

    def test_unparseable_payload(self, tmp_path):
        import zlib as _z

        path = self._segment_with(tmp_path, count=1)
        body = b"this is not json"
        with open(path, "ab") as handle:
            handle.write(struct.pack(">II", len(body), _z.crc32(body)) + body)
        scan = walmod.scan_wal(path)
        assert [r["v"] for r in scan.records] == [1]
        assert any("unparseable" in w for w in scan.warnings)

    @staticmethod
    def _record_offsets(data):
        offsets = []
        offset = len(walmod.WAL_MAGIC)
        while offset + 8 <= len(data):
            length, _crc = struct.unpack_from(">II", data, offset)
            offsets.append(offset)
            offset += 8 + length
        return offsets


class TestCheckpointFiles:
    def test_write_load_round_trip(self, tmp_path):
        engine, _config = durable_engine(tmp_path)
        state = ckpt.engine_state(engine)
        path = ckpt.write_checkpoint(tmp_path, state)
        assert ckpt.load_checkpoint(path) == ckpt.load_checkpoint(path)
        loaded = ckpt.load_checkpoint(path)
        assert loaded["version"] == engine.version
        assert loaded["query"] == str(engine.query)
        engine.close()

    def test_newest_corrupt_falls_back(self, tmp_path, caplog):
        engine, _config = durable_engine(tmp_path)
        state = ckpt.engine_state(engine)
        ckpt.write_checkpoint(tmp_path, state)
        newer = dict(state, version=state["version"] + 5)
        newest = ckpt.write_checkpoint(tmp_path, newer)
        data = bytearray(newest.read_bytes())
        data[-1] ^= 0xFF
        newest.write_bytes(bytes(data))
        with caplog.at_level(logging.WARNING, logger="repro.durability"):
            loaded, path, warnings = ckpt.load_newest_checkpoint(tmp_path)
        assert loaded["version"] == state["version"]
        assert warnings and "falling back" in warnings[0]
        engine.close()

    def test_no_valid_checkpoint_raises(self, tmp_path):
        (tmp_path / ckpt.checkpoint_name(3)).write_bytes(b"garbage")
        with pytest.raises(FileNotFoundError):
            ckpt.load_newest_checkpoint(tmp_path)

    def test_static_engine_cannot_be_checkpointed(self):
        engine = HierarchicalEngine(PATH_QUERY, mode=STATIC_MODE)
        engine.load(make_database())
        with pytest.raises(ValueError):
            ckpt.engine_state(engine)


class TestDurabilityConfig:
    def test_coercion_accepts_paths_and_configs(self, tmp_path):
        from pathlib import Path

        config = coerce_config(str(tmp_path / "x"))
        assert isinstance(config, DurabilityConfig)
        assert coerce_config(config) is config
        assert coerce_config(Path(tmp_path / "y")).directory.endswith("y")

    def test_for_shard_nests_directories(self, tmp_path):
        config = DurabilityConfig(str(tmp_path), checkpoint_ratio=0.5, fsync=False)
        shard = config.for_shard(2)
        assert shard.directory.endswith("shard-2")
        assert shard.checkpoint_ratio == 0.5
        assert shard.fsync is False

    def test_validation(self, tmp_path):
        with pytest.raises(ValueError):
            DurabilityConfig(str(tmp_path), keep_checkpoints=0)
        with pytest.raises(ValueError):
            DurabilityConfig(str(tmp_path), checkpoint_ratio=-0.5)
        # None is legal: it disables *scheduled* checkpoints; 0 checkpoints
        # on every commit the writer is free for
        assert DurabilityConfig(str(tmp_path), checkpoint_ratio=None)
        assert DurabilityConfig(str(tmp_path), checkpoint_ratio=0)

    def test_static_mode_engine_rejects_durability(self, tmp_path):
        with pytest.raises(DurabilityError):
            HierarchicalEngine(
                PATH_QUERY, mode=STATIC_MODE, durability=str(tmp_path)
            )


class TestEngineRecovery:
    def test_clean_close_recovers_exact_state(self, tmp_path):
        engine, config = durable_engine(tmp_path)
        for update in STREAM:
            engine.apply(update)
        engine.retune(0.75)
        engine.close()
        recovered, report = recover_engine(config.directory, config)
        assert report.final_version == engine.version
        assert_recovered_like(recovered, engine)
        recovered.close()

    def test_recovery_is_idempotent(self, tmp_path):
        engine, config = durable_engine(tmp_path, ratio=0.05)
        for update in STREAM:
            engine.apply(update)
        expected = dict(engine.result())
        engine.close()
        for _ in range(3):
            recovered, _report = recover_engine(config.directory, config)
            assert dict(recovered.result()) == expected
            recovered.close()

    def test_recovered_engine_keeps_committing(self, tmp_path):
        engine, config = durable_engine(tmp_path)
        for update in STREAM[:4]:
            engine.apply(update)
        engine.close()
        recovered, _report = recover_engine(config.directory, config)
        for update in STREAM[4:]:
            recovered.apply(update)
        expected = (recovered.version, dict(recovered.result()))
        recovered.close()
        again, _report = recover_engine(config.directory, config)
        assert (again.version, dict(again.result())) == expected
        again.close()

    def test_recovery_with_torn_tail_resumes_before_it(self, tmp_path, caplog):
        engine, config = durable_engine(tmp_path, ratio=None)
        for update in STREAM:
            engine.apply(update)
        engine.close()
        segments = walmod.wal_segments(config.path)
        _start, active = segments[-1]
        active.write_bytes(active.read_bytes()[:-7])
        with caplog.at_level(logging.WARNING, logger="repro.durability"):
            recovered, report = recover_engine(config.directory, config)
        assert report.truncated_bytes > 0
        assert recovered.version == len(STREAM) - 1
        recovered.check_invariants()
        recovered.close()

    def test_batch_with_a_malformed_tuple_is_rejected_whole(self, tmp_path):
        """A wrong-arity entry late in a batch rejects it before its first
        group is applied, so the live engine and its WAL stay in step."""
        engine, config = durable_engine(tmp_path, ratio=None)
        before = durable_state(engine)
        with pytest.raises(SchemaError):
            engine.commit(UpdateBatch([Update("R", (5, 2), 1), Update("S", (2,), 1)]))
        assert durable_state(engine) == before
        engine.commit(Update("R", (7, 2), 1))
        engine.close()
        recovered, _report = recover_engine(config.directory, config)
        assert_recovered_like(recovered, engine)
        recovered.close()

    def test_short_and_long_tuples_are_one_schema_error(self, tmp_path):
        engine, _config = durable_engine(tmp_path, ratio=None)
        before = durable_state(engine)
        for tup in ((5,), (2, 3, 4)):
            with pytest.raises(SchemaError):
                engine.commit(Update("R", tup, 1))
        assert durable_state(engine) == before
        engine.close()

    def test_empty_directory_raises_durability_error(self, tmp_path):
        with pytest.raises(DurabilityError):
            recover_engine(tmp_path)

    def test_wal_not_extending_checkpoint_raises(self, tmp_path):
        engine, config = durable_engine(tmp_path, ratio=None)
        for update in STREAM[:3]:
            engine.apply(update)
        engine.close()
        # surgically remove the first record after the checkpoint: the tail
        # then starts at version 2, which cannot extend checkpoint 0
        _start, active = walmod.wal_segments(config.path)[-1]
        data = active.read_bytes()
        offset = len(walmod.WAL_MAGIC)
        length, _crc = struct.unpack_from(">II", data, offset)
        active.write_bytes(
            data[:offset] + data[offset + 8 + length :]
        )
        with pytest.raises(DurabilityError):
            recover_engine(config.directory, config)

    def test_manual_checkpoint_and_stats(self, tmp_path):
        engine, config = durable_engine(tmp_path, ratio=None)
        for update in STREAM[:3]:
            engine.apply(update)
        before = engine.durability_stats.checkpoints_written
        engine.checkpoint()
        stats = engine.durability_stats
        assert stats.checkpoints_written == before + 1
        assert stats.last_checkpoint_version == engine.version
        assert stats.wal_records == 3
        engine.close()

    def test_checkpoint_requires_durability(self):
        engine = HierarchicalEngine(PATH_QUERY)
        engine.load(make_database())
        with pytest.raises(DurabilityError):
            engine.checkpoint()

    def test_retention_prunes_checkpoints_and_segments(self, tmp_path):
        config = DurabilityConfig(
            str(tmp_path / "wal"), checkpoint_ratio=0.05, keep_checkpoints=2
        )
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5, durability=config)
        engine.load(make_database())
        for index in range(12):
            engine.apply(Update("R", (90 + index, 90 + index), 1))
            engine._durability.writer.drain()  # let every scheduled one land
        engine.close()
        assert engine.durability_stats.checkpoints_written > 3
        checkpoints = ckpt.find_checkpoints(config.path)
        assert len(checkpoints) == 2
        oldest_kept = checkpoints[0][0]
        segments = walmod.wal_segments(config.path)
        # every surviving segment is still reachable from the oldest kept
        # checkpoint: the last segment starting at or before it, plus later
        assert sum(1 for start, _ in segments if start < oldest_kept) <= 1
        recovered, _report = recover_engine(config.directory, config)
        assert recovered.version == 12
        recovered.close()

    def test_fsync_off_still_recovers_after_clean_close(self, tmp_path):
        engine, config = durable_engine(tmp_path, fsync=False)
        for update in STREAM:
            engine.apply(update)
        expected = dict(engine.result())
        engine.close()
        recovered, _report = recover_engine(config.directory, config)
        assert dict(recovered.result()) == expected
        recovered.close()

    def test_reload_starts_a_fresh_durable_history(self, tmp_path):
        engine, config = durable_engine(tmp_path, ratio=0.05)
        for update in STREAM:
            engine.apply(update)
        engine.load(make_database())  # wipe: a new history begins at version 0
        engine.apply(STREAM[0])
        expected = dict(engine.result())
        engine.close()
        recovered, report = recover_engine(config.directory, config)
        assert recovered.version == 1
        assert dict(recovered.result()) == expected
        recovered.close()
