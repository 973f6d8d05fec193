"""The checkpoint's counter dicts, pinned: a file written by an earlier build
still restores the same rebalance counters and telemetry.

A checkpoint is the magic, a big-endian payload length, a big-endian CRC32
and the compact, key-sorted JSON engine state (:mod:`repro.durability.
checkpoint`).  Its ``stats`` dict is the maintenance driver's
:class:`~repro.ivm.rebalance.RebalanceStats`, its ``telemetry`` dict the
engine's :class:`~repro.adaptive.telemetry.WorkloadTelemetry`, including
EWMA seeds that are still ``null`` — restoring one of those as ``0.0``
would poison the first smoothed value after a recovery.  The bytes below
are a literal, so a re-declaration of either family that renames, drops
or retypes a persisted key fails here rather than on a user's disk.
"""

import json

from repro.core.api import HierarchicalEngine
from repro.data.update import Update
from repro.durability import DurabilityConfig, recover_engine
from repro.durability import checkpoint as ckpt
from tests.test_wal_golden import PATH_QUERY, make_database

STATS = {
    "batches": 2,
    "major_rebalances": 1,
    "minor_rebalances": 3,
    "moved_to_heavy": 4,
    "moved_to_light": 5,
    "retunes": 1,
    "updates": 7,
}
TELEMETRY = {
    "alpha": 0.25,
    "ewma_read_fraction": 0.0,
    "ewma_read_seconds": None,
    "ewma_update_seconds": 0.125,
    "read_events": 0,
    "read_seconds": 0.0,
    "read_tuples": 0,
    "update_events": 3,
    "update_seconds": 0.5,
    "update_tuples": 7,
}

PAYLOAD = (
    b'{"enable_rebalancing":true,"epsilon":0.5,"mode":"dynamic",'
    b'"query":"Q(A, C) = R(A, B), S(B, C)",'
    b'"relations":[["R",["A","B"],[[[1,1],1],[[1,2],1],[[2,3],1]]],'
    b'["S",["B","C"],[[[1,5],1],[[2,5],1],[[3,6],1]]]],'
    b'"stats":{"batches":2,"major_rebalances":1,"minor_rebalances":3,'
    b'"moved_to_heavy":4,"moved_to_light":5,"retunes":1,"updates":7},'
    b'"telemetry":{"alpha":0.25,"ewma_read_fraction":0.0,'
    b'"ewma_read_seconds":null,"ewma_update_seconds":0.125,"read_events":0,'
    b'"read_seconds":0.0,"read_tuples":0,"update_events":3,'
    b'"update_seconds":0.5,"update_tuples":7},'
    b'"threshold_base":13,"version":5}'
)

CHECKPOINT = b"REPROCKPT1\n" + bytes.fromhex("00000240" "ead43551") + PAYLOAD


def test_literal_checkpoint_restores_the_pinned_counters(tmp_path):
    directory = tmp_path / "ckpt"
    directory.mkdir()
    (directory / ckpt.checkpoint_name(5)).write_bytes(CHECKPOINT)
    engine, report = recover_engine(directory)
    try:
        assert report.checkpoint_version == engine.version == 5
        assert engine.threshold_base == 13
        assert engine.rebalance_stats.as_dict() == STATS
        state = engine.telemetry.state_dict()
        assert state == TELEMETRY
        assert state["ewma_read_seconds"] is None
        assert engine.telemetry.ewma_read_seconds is None
        assert engine.telemetry.read_fraction() == 0.0
    finally:
        engine.close()


def test_live_checkpoints_persist_the_pinned_keys(tmp_path):
    config = DurabilityConfig(str(tmp_path / "live"), checkpoint_ratio=None)
    engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5, durability=config)
    engine.load(make_database())
    try:
        engine.apply(Update("R", (3, 1), 1))
        path = engine.checkpoint()
    finally:
        engine.close()
    data = path.read_bytes()
    assert data.startswith(b"REPROCKPT1\n")
    state = json.loads(data[len(b"REPROCKPT1\n") + 8 :])
    assert list(state["stats"]) == list(STATS)
    assert list(state["telemetry"]) == list(TELEMETRY)
    assert state["stats"]["updates"] == 1
    assert state["telemetry"]["ewma_read_seconds"] is None
