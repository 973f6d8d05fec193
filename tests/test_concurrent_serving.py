"""Concurrency battery: reader threads vs a writer thread, no torn reads.

Four reader threads enumerate snapshots in a loop while a writer thread
applies consolidated batches.  Every observed read must be a duplicate-free
enumeration with strictly positive multiplicities whose result equals the
oracle replayed to *some* prefix of the batch stream (identified by the
snapshot's version stamp) — for :class:`HierarchicalEngine` and for
:class:`ShardedEngine` under both the thread and the persistent-process
executors.
"""

from __future__ import annotations

import random
import sys
import threading

import pytest

from repro import Database, HierarchicalEngine, Update
from repro.baselines import NaiveRecomputeEngine
from repro.core.serving import EngineServer, ReadTicket
from repro.data.relation import get_default_backend
from repro.sharding import ShardedEngine

PATH_QUERY = "Q(A, C) = R(A, B), S(B, C)"
READERS = 4
WINDOW_SECONDS = 0.6
BATCHES = 60
BATCH_SIZE = 30


def make_db(seed: int = 11, size: int = 80, domain: int = 10) -> Database:
    rng = random.Random(seed)
    return Database.from_dict(
        {
            "R": (
                ("A", "B"),
                [(rng.randrange(40), rng.randrange(domain)) for _ in range(size)],
            ),
            "S": (
                ("B", "C"),
                [(rng.randrange(domain), rng.randrange(40)) for _ in range(size)],
            ),
        }
    )


def make_batches(seed: int = 12, domain: int = 10):
    rng = random.Random(seed)
    inserted = []
    batches = []
    for _ in range(BATCHES):
        batch = []
        deletable = len(inserted)
        for index in range(BATCH_SIZE):
            if deletable > 0 and index % 3 == 2:
                deletable -= 1
                batch.append(Update("R", inserted.pop(0), -1))
            else:
                tup = (rng.randrange(40), rng.randrange(domain))
                inserted.append(tup)
                batch.append(Update("R", tup, 1))
        batches.append(batch)
    return batches


@pytest.fixture(scope="module")
def workload():
    database = make_db()
    batches = make_batches()
    oracle = NaiveRecomputeEngine(PATH_QUERY).load(database)
    prefix = {0: dict(oracle.result())}
    for version, batch in enumerate(batches, start=1):
        oracle.apply_batch(batch)
        prefix[version] = dict(oracle.result())
    return database, batches, prefix


def assert_ticket_untorn(ticket: ReadTicket, prefix) -> None:
    seen = set()
    for tup, mult in ticket.pairs:
        assert mult > 0, f"non-positive multiplicity {mult} for {tup!r}"
        assert tup not in seen, f"tuple {tup!r} enumerated twice in one read"
        seen.add(tup)
    assert ticket.version in prefix, f"unknown version {ticket.version}"
    assert ticket.result() == prefix[ticket.version], (
        f"read at version {ticket.version} does not match the oracle prefix"
    )


def run_stress(engine, workload) -> int:
    """Writer thread + READERS reader threads; returns the number of reads."""
    database, batches, prefix = workload
    engine.load(database)
    server = EngineServer(engine)
    writer = server.start_writer(batches)
    tickets = server.run_readers(READERS, WINDOW_SECONDS)
    writer.join()  # drain the full stream so every version is well-defined
    server.stop_writer()
    tickets.append(server.read())  # one read of the final version
    for ticket in tickets:
        assert_ticket_untorn(ticket, prefix)
    assert engine.version == len(batches)
    assert tickets[-1].version == len(batches)
    return len(tickets)


class TestHierarchicalStress:
    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0])
    def test_readers_never_observe_torn_state(self, workload, epsilon):
        reads = run_stress(HierarchicalEngine(PATH_QUERY, epsilon=epsilon), workload)
        assert reads >= 1

    def test_private_snapshots_under_concurrent_writer(self, workload):
        """Readers capturing their own snapshots (not the published one)."""
        database, batches, prefix = workload
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5).load(database)
        server = EngineServer(engine)
        errors = []
        observed = []

        def reader() -> None:
            try:
                for _ in range(8):
                    snapshot = server.snapshot()
                    result = dict(snapshot.result())
                    assert result == prefix[snapshot.version]
                    observed.append(snapshot.version)
                    snapshot.close()
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        writer = server.start_writer(batches)
        threads = [threading.Thread(target=reader) for _ in range(READERS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        writer.join()
        server.stop_writer()
        assert not errors, errors[0]
        assert len(observed) == READERS * 8


class TestTrailingReplicaStress:
    """Single-tuple commits over a view large enough that the writer rolls
    frozen copies forward from the redo log (see :mod:`repro.snapshot.cow`)
    while readers enumerate them: more threads than cores, a shortened
    switch interval, every read checked against the oracle at its version.
    """

    def test_replayed_replicas_are_never_read_torn(self):
        side = 60
        database = Database.from_dict(
            {
                "R": (("A", "B"), [(a, b) for a in range(side) for b in range(4)]),
                "S": (("B", "C"), [(b, c) for b in range(4) for c in range(side)]),
            }
        )
        commits = []
        for i in range(60):  # each changes `side` tuples of the 3600-tuple view
            commits.append([Update("R", (1_000 + i, i % 4), 1)])
            commits.append([Update("R", (1_000 + i, i % 4), -1)])
        oracle = NaiveRecomputeEngine(PATH_QUERY).load(database)
        prefix = {0: dict(oracle.result())}
        for version, batch in enumerate(commits, start=1):
            oracle.apply_batch(batch)
            prefix[version] = dict(oracle.result())

        engine = HierarchicalEngine(PATH_QUERY, epsilon=1.0).load(database)
        server = EngineServer(engine)
        # The writer's first commit waits for the first served read: a writer
        # free to start ahead of the readers can finish all 120 commits
        # before any of them reads, and then no read overlaps a replay.
        first_read = threading.Event()
        serve_read = server.read

        def read_then_signal(limit=None):
            ticket = serve_read(limit)
            first_read.set()
            return ticket

        server.read = read_then_signal

        def commits_after_first_read():
            assert first_read.wait(30.0), "no read was served"
            yield from commits

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            writer = server.start_writer(commits_after_first_read())
            tickets = server.run_readers(READERS, WINDOW_SECONDS)
            writer.join(60.0)
            assert not writer.is_alive()
            server.stop_writer()
        finally:
            sys.setswitchinterval(interval)
        tickets.append(server.read())
        for ticket in tickets:
            assert_ticket_untorn(ticket, prefix)
        assert tickets[-1].version == len(commits)
        # (only the columnar backend keeps the redo log replicas replay)
        stats = engine.snapshot_stats
        assert stats["replayed_entries"] > 0 or get_default_backend() == "dict", stats
        assert len({ticket.version for ticket in tickets}) > 1


class TestShardedStress:
    @pytest.mark.parametrize("executor", ["thread", "process"])
    def test_readers_never_observe_torn_state(self, workload, executor):
        engine = ShardedEngine(
            PATH_QUERY, shards=3, epsilon=0.5, executor=executor
        )
        try:
            reads = run_stress(engine, workload)
            assert reads >= 1
        finally:
            engine.close()

    def test_serial_executor_is_safe_too(self, workload):
        engine = ShardedEngine(PATH_QUERY, shards=2, epsilon=0.5, executor="serial")
        try:
            reads = run_stress(engine, workload)
            assert reads >= 1
        finally:
            engine.close()


class TestWriterErrorSurfacing:
    def test_writer_exception_reraised_on_stop(self, workload):
        database, _batches, _prefix = workload
        engine = HierarchicalEngine(PATH_QUERY).load(database)
        server = EngineServer(engine)
        bad = [[Update("R", (1, 1), -10**9)]]  # over-delete: rejected batch
        writer = server.start_writer(bad)
        writer.join()
        with pytest.raises(Exception):
            server.stop_writer()

    def test_two_writers_rejected(self, workload):
        database, batches, _prefix = workload
        engine = HierarchicalEngine(PATH_QUERY).load(database)
        server = EngineServer(engine)
        server.start_writer(iter(batches))
        with pytest.raises(RuntimeError):
            server.start_writer(iter(batches))
        server.stop_writer()

    def test_unknown_mode_rejected(self, workload):
        database, _batches, _prefix = workload
        engine = HierarchicalEngine(PATH_QUERY).load(database)
        for mode in ("optimistic", "locked"):
            with pytest.raises(ValueError):
                EngineServer(engine, mode=mode)
