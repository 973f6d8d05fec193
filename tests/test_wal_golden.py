"""The WAL's bytes, pinned: a log written by an earlier build still replays.

The other WAL tests round-trip records through the codec under test, so a
change to the codec that is consistent with itself would pass them while
orphaning every log already on disk.  These tests state the format as
literal bytes instead — the magic, then per record a big-endian payload
length, a big-endian CRC32 and the compact, key-sorted JSON payload — for
one ``update``, one multi-relation ``batch`` (relation groups in
first-touched order, tuples in first-touched order, the source-update
count) and one ``retune``.  They drive only the public engine surface and
observe replay at the maintenance driver, so they hold whatever the codec's
function names are.
"""

import json

from repro.core.api import HierarchicalEngine
from repro.data.database import Database
from repro.data.update import Update, UpdateBatch
from repro.durability import DurabilityConfig, recover_engine
from repro.durability import wal as walmod
from repro.ivm.rebalance import MaintenanceDriver

PATH_QUERY = "Q(A, C) = R(A, B), S(B, C)"

UPDATE = Update("R", (3, 1), 1)
#: S first, then R; the (2, 2) pair cancels, so 6 source updates leave
#: three net entries and R keeps (8, 8) ahead of (1, 1).
BATCH_UPDATES = [
    Update("S", (9, 9), 1),
    Update("R", (8, 8), 1),
    Update("R", (2, 2), 1),
    Update("S", (9, 9), 1),
    Update("R", (2, 2), -1),
    Update("R", (1, 1), -1),
]
EPSILON = 0.25

PAYLOADS = [
    b'{"kind":"update","m":1,"rel":"R","tup":[3,1],"v":1}',
    b'{"deltas":[["S",[[[9,9],2]]],["R",[[[8,8],1],[[1,1],-1]]]],'
    b'"kind":"batch","src":6,"v":2}',
    b'{"eps":0.25,"kind":"retune","v":3}',
]

SEGMENT = (
    b"REPROWAL1\n"
    + bytes.fromhex("00000033" "d429854e")
    + PAYLOADS[0]
    + bytes.fromhex("00000058" "7536892f")
    + PAYLOADS[1]
    + bytes.fromhex("00000022" "72d13555")
    + PAYLOADS[2]
)


def make_database():
    database = Database()
    r = database.create_relation("R", ("A", "B"))
    s = database.create_relation("S", ("B", "C"))
    for tup in ((1, 1), (1, 2), (2, 3)):
        r.apply_delta(tup, 1)
    for tup in ((1, 5), (2, 5), (3, 6)):
        s.apply_delta(tup, 1)
    return database


def write_log(directory):
    """Commit the three events on a durable engine; returns the live engine."""
    config = DurabilityConfig(str(directory), checkpoint_ratio=None)
    engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5, durability=config)
    engine.load(make_database())
    engine.apply(UPDATE)
    engine.apply_batch(UpdateBatch(BATCH_UPDATES))
    engine.retune(EPSILON)
    engine.close()
    return engine


def test_committed_events_write_the_pinned_bytes(tmp_path):
    write_log(tmp_path / "wal")
    segment = tmp_path / "wal" / walmod.wal_name(0)
    assert segment.read_bytes() == SEGMENT


def test_pinned_bytes_scan_and_replay_to_the_same_events(tmp_path, monkeypatch):
    directory = tmp_path / "wal"
    live = write_log(directory)
    segment = directory / walmod.wal_name(0)
    segment.write_bytes(SEGMENT)

    scan = walmod.scan_wal(segment, last_version=0)
    assert scan.warnings == []
    assert scan.valid_length == len(SEGMENT)
    assert scan.records == [json.loads(payload) for payload in PAYLOADS]

    replayed = []
    for name in ("on_update", "on_batch", "retune"):
        real = getattr(MaintenanceDriver, name)

        def spy(self, event, _name=name, _real=real):
            replayed.append((_name, event))
            return _real(self, event)

        monkeypatch.setattr(MaintenanceDriver, name, spy)
    recovered, report = recover_engine(directory)
    try:
        assert report.replayed_records == 3
        assert [name for name, _ in replayed] == ["on_update", "on_batch", "retune"]
        assert replayed[0][1] == UPDATE
        batch = replayed[1][1]
        expected = UpdateBatch(BATCH_UPDATES)
        assert batch.source_count == expected.source_count == 6
        assert list(batch.deltas_by_relation().items()) == list(
            expected.deltas_by_relation().items()
        )
        assert [list(group) for group in batch.deltas_by_relation().values()] == [
            [(9, 9)],
            [(8, 8), (1, 1)],
        ]
        assert replayed[2][1] == EPSILON
        assert recovered.version == live.version == 3
        assert recovered.epsilon == EPSILON
        assert [(rel.name, list(rel.items())) for rel in recovered.database] == [
            (rel.name, list(rel.items())) for rel in live.database
        ]
    finally:
        recovered.close()
