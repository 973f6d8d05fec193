"""Serving-path regressions: the bugfix sweep riding with the net layer.

Three bugs fixed in :mod:`repro.core.serving` get pinned here, plus the
pin/retire race coverage the snapshot-publish accounting always deserved:

1. ``apply_update`` used to bypass the commit path ``apply_batch`` took —
   no controller consult, no retune counting, no commit counting
   (and in snapshot mode its version was published only as a side effect
   of the *next* batch).  Both now flow through one ``commit``.
2. A writer-loop exception was swallowed until ``stop_writer``; readers
   kept serving a frozen version indefinitely.  ``check_writer()`` now
   raises from every ``read()``.
3. ``run_readers`` joined every session to the full wall-clock deadline
   even after one raised; a shared abort event now stops peers promptly.
"""

from __future__ import annotations

import random
import threading
import time

import pytest

from repro import Database, HierarchicalEngine, Update
from repro.core.serving import EngineServer
from repro.exceptions import WriterFailedError
from repro.snapshot.versioned import PinCount

PATH_QUERY = "Q(A, C) = R(A, B), S(B, C)"


def make_database(rows: int = 40, seed: int = 9) -> Database:
    rng = random.Random(seed)
    database = Database()
    database.create_relation("R", ("A", "B"))
    database.create_relation("S", ("B", "C"))
    for _ in range(rows):
        database.relation("R").apply_delta((rng.randrange(6), rng.randrange(6)), 1)
        database.relation("S").apply_delta((rng.randrange(6), rng.randrange(6)), 1)
    return database


class CountingController:
    """Stub controller: counts consults, retunes on demand."""

    def __init__(self, engine) -> None:
        self.engine = engine
        self.consults = 0
        self.retune_next = False

    def maybe_retune(self):
        self.consults += 1
        if self.retune_next:
            self.retune_next = False
            epsilon = 0.9 if self.engine.epsilon < 0.9 else 0.1
            self.engine.retune(epsilon)
            return epsilon
        return None


# ----------------------------------------------------------------------
# 1. apply_update goes through the same commit path as apply_batch
# ----------------------------------------------------------------------
def test_apply_update_uses_unified_commit_path():
    engine = HierarchicalEngine(PATH_QUERY).load(make_database())
    controller = CountingController(engine)
    server = EngineServer(engine, controller=controller)

    before = server.read()
    server.apply_update(Update("R", (0, 0), 1))

    # counted like a commit
    assert server.stats.batches_applied == 1
    # controller consulted exactly once
    assert controller.consults == 1
    # the new version is published immediately: a read serves it without
    # waiting for a later batch to publish it as a side effect
    after = server.read()
    assert after.version == before.version + 1
    assert after.version == engine.version

    # a consult that retunes is counted in retunes_applied
    controller.retune_next = True
    server.apply_update(Update("S", (0, 0), 1))
    assert server.stats.retunes_applied == 1
    assert server.stats.batches_applied == 2
    # and the published snapshot already serves the post-retune state
    assert server.read().result() == engine.result()
    engine.close()


def test_apply_update_notifies_commit_listeners():
    engine = HierarchicalEngine(PATH_QUERY).load(make_database())
    server = EngineServer(engine)
    seen = []
    server.on_commit(lambda version, delta: seen.append((version, dict(delta))))
    server.apply_update(Update("R", (1, 1), 1))
    server.apply_batch([Update("S", (1, 1), 1)])
    assert [version for version, _ in seen] == [engine.version - 1, engine.version]
    # listener deltas replay to the engine's own result
    engine.close()


# ----------------------------------------------------------------------
# 2. a dead writer surfaces at the next read, not at stop_writer
# ----------------------------------------------------------------------
def test_dead_writer_fails_reads_promptly():
    engine = HierarchicalEngine(PATH_QUERY).load(make_database())
    server = EngineServer(engine)

    class WriterBoom(RuntimeError):
        pass

    died = threading.Event()

    def batches():
        yield [Update("R", (2, 2), 1)]
        yield [Update("S", (2, 2), 1)]
        try:
            raise WriterBoom("mid-stream failure")
        finally:
            died.set()

    thread = server.start_writer(batches())
    thread.join(10.0)
    assert died.wait(10.0)

    # the probe raises, every read raises, and the cause is attached
    with pytest.raises(WriterFailedError) as info:
        server.check_writer()
    assert isinstance(info.value.__cause__, WriterBoom)
    with pytest.raises(WriterFailedError):
        server.read()
    # the probe does not consume the error: repeated reads keep failing
    with pytest.raises(WriterFailedError):
        server.read()
    # stop_writer still re-raises the original exception
    with pytest.raises(WriterBoom):
        server.stop_writer()
    # after stop_writer drained it, serving resumes
    assert server.read().version == engine.version
    engine.close()


# ----------------------------------------------------------------------
# 3. one failed reader session aborts its peers promptly
# ----------------------------------------------------------------------
def test_run_readers_aborts_peers_on_first_error():
    engine = HierarchicalEngine(PATH_QUERY).load(make_database())
    server = EngineServer(engine)

    class ReadBoom(RuntimeError):
        pass

    calls = {"count": 0}
    original_read = server.read

    def failing_read(limit=None):
        calls["count"] += 1
        if calls["count"] == 5:
            raise ReadBoom("reader session died")
        return original_read(limit)

    server.read = failing_read  # type: ignore[method-assign]
    duration = 10.0
    started = time.perf_counter()
    with pytest.raises(ReadBoom):
        server.run_readers(4, duration)
    elapsed = time.perf_counter() - started
    # before the fix this only returned after the full wall-clock window
    assert elapsed < duration / 2, (
        f"peers kept reading for {elapsed:.1f}s after the first failure"
    )
    engine.close()


# ----------------------------------------------------------------------
# 4. pin/retire accounting: close exactly once, never while pinned
# ----------------------------------------------------------------------
class TrackedSnapshot:
    """A snapshot double that records pins around enumeration and close."""

    def __init__(self, version: int, log) -> None:
        self.version = version
        self._log = log
        self._lock = threading.Lock()
        self.active_readers = 0
        self.close_calls = 0

    def enumerate(self):
        with self._lock:
            self.active_readers += 1
            assert self.close_calls == 0, (
                f"version {self.version}: enumerate on a closed snapshot"
            )
        try:
            yield ((self.version,), 1)
            time.sleep(0)  # widen the race window
            yield ((self.version, self.version), 1)
        finally:
            with self._lock:
                self.active_readers -= 1

    def close(self):
        with self._lock:
            assert self.active_readers == 0, (
                f"version {self.version}: close() while a reader is pinned"
            )
            self.close_calls += 1
        self._log.append(self)


class SnapshotFactory:
    """Engine double: only what EngineServer's snapshot path touches."""

    telemetry = None

    def __init__(self) -> None:
        self.version = 0
        self.closed_log = []
        self.all_snapshots = []
        self._lock = threading.Lock()

    def snapshot(self) -> TrackedSnapshot:
        with self._lock:
            snapshot = TrackedSnapshot(self.version, self.closed_log)
            self.all_snapshots.append(snapshot)
            return snapshot

    def commit(self, event) -> None:
        with self._lock:
            self.version += 1


def test_publish_retire_race_closes_each_snapshot_exactly_once():
    engine = SnapshotFactory()
    server = EngineServer(engine)
    stop = threading.Event()
    errors = []

    def reader() -> None:
        try:
            while not stop.is_set():
                server.read()
        except BaseException as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)
            stop.set()

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for thread in threads:
        thread.start()
    try:
        for _ in range(300):
            server.apply_batch([])  # publish + retire the previous version
    finally:
        stop.set()
        for thread in threads:
            thread.join(10.0)
    if errors:
        raise errors[0]

    # every superseded snapshot was closed exactly once...
    for snapshot in engine.all_snapshots[:-1]:
        assert snapshot.close_calls == 1, (
            f"version {snapshot.version} closed {snapshot.close_calls} times"
        )
    # ...and the currently published one not at all
    assert engine.all_snapshots[-1].close_calls == 0
    # (the "never while pinned" half is asserted inside TrackedSnapshot)


def test_published_version_close_once_under_direct_race():
    """Hammer unpin/retire directly: the close body runs exactly once."""
    for _ in range(200):
        log = []
        snapshot = TrackedSnapshot(0, log)
        entry = PinCount(snapshot)
        entry.pin()
        barrier = threading.Barrier(2)

        def unpin() -> None:
            barrier.wait()
            entry.unpin()

        def retire() -> None:
            barrier.wait()
            entry.retire()

        threads = [threading.Thread(target=unpin), threading.Thread(target=retire)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5.0)
        assert snapshot.close_calls == 1
