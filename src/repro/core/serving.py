"""Concurrent serving over one engine: a writer loop plus reader sessions.

:class:`EngineServer` wraps a :class:`~repro.core.api.HierarchicalEngine` or
:class:`~repro.sharding.ShardedEngine` for multi-threaded deployments where
one *writer* ingests update batches while any number of *reader sessions*
enumerate results concurrently.

Serving is publish-on-commit.  After every batch the writer captures a
:class:`~repro.snapshot.Snapshot` (an ``O(plan)`` bookkeeping step, done
while it still holds the write lock) and publishes it; a read grabs the
currently published handle and enumerates it with *no* lock at all.  The
write lock is held only for maintenance plus capture, never for
enumeration, so readers overlap batch maintenance and each other, serving
the last committed version while the next batch is mid-flight;
copy-on-write keeps every published version intact.  (The classical
alternative — one lock held around each commit and around each whole
enumeration — is the baseline ``benchmarks/bench_concurrent_serving.py``
builds for itself and measures this against.)

Reads return a :class:`ReadTicket` carrying the observed engine version, so
callers can assert that every served result corresponds to a prefix of the
ingested stream (the concurrency test battery does exactly that).

Example::

    from repro import Database, HierarchicalEngine
    from repro.core.serving import EngineServer

    engine = HierarchicalEngine("Q(A, C) = R(A, B), S(B, C)").load(db)
    server = EngineServer(engine)
    writer = server.start_writer(stream.batches(500))
    ticket = server.read()                        # never blocks on the writer
    print(ticket.version, len(ticket.pairs))
    writer.join()
    server.stop_writer()
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from itertools import islice
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.data.schema import ValueTuple
from repro.data.update import Event, MutationSurface
from repro.exceptions import WriterFailedError

# A commit listener: called after every committed ingestion event with
# ``(version, result_delta)`` — see EngineServer.on_commit.
CommitListener = Callable[[int, Dict[ValueTuple, int]], None]


@dataclass
class ServingStats:
    """Thread-safe counters describing one server's traffic.

    ``batches_applied`` counts *commits* — consolidated batches and
    single-tuple updates alike, since both flow through the same unified
    commit path (:meth:`EngineServer.commit`).
    """

    batches_applied: int = 0
    reads_served: int = 0
    retunes_applied: int = 0
    reshards_applied: int = 0
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def count_batch(self) -> None:
        with self._lock:
            self.batches_applied += 1

    def count_read(self) -> None:
        with self._lock:
            self.reads_served += 1

    def count_retune(self) -> None:
        with self._lock:
            self.retunes_applied += 1

    def count_reshard(self) -> None:
        with self._lock:
            self.reshards_applied += 1


class _PublishedVersion:
    """One published snapshot plus the pin accounting that retires it.

    Readers pin the entry for the duration of their read; the writer calls
    :meth:`retire` when a newer version supersedes it.  The underlying
    snapshot's ``close()`` runs exactly once, as soon as it is both retired
    and unpinned — so shard-local snapshot registries (which hold strong
    references) drain at the pace readers finish, never later.
    """

    __slots__ = ("snapshot", "_lock", "_pins", "_retired", "_closed")

    def __init__(self, snapshot, lock: threading.Lock) -> None:
        self.snapshot = snapshot
        self._lock = lock
        self._pins = 0
        self._retired = False
        self._closed = False

    def unpin(self) -> None:
        with self._lock:
            self._pins -= 1
            close_now = self._retired and self._pins == 0 and not self._closed
            if close_now:
                self._closed = True
        if close_now:
            self.snapshot.close()

    def retire(self) -> None:
        with self._lock:
            self._retired = True
            close_now = self._pins == 0 and not self._closed
            if close_now:
                self._closed = True
        if close_now:
            self.snapshot.close()


class PinnedVersion:
    """One reader's hold on a served version (see :meth:`EngineServer.pin`).

    ``snapshot`` stays readable until :meth:`close`, which is idempotent and
    safe from any thread: it drops this reader's pin (the snapshot is shared
    and closes once superseded and unpinned).
    """

    def __init__(self, snapshot, release: Callable[[], None]) -> None:
        self.snapshot = snapshot
        self.version: int = snapshot.version
        self._release: Optional[Callable[[], None]] = release
        self._lock = threading.Lock()

    def close(self) -> None:
        with self._lock:
            release, self._release = self._release, None
        if release is not None:
            release()

    def __enter__(self) -> "PinnedVersion":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


@dataclass(frozen=True)
class ReadTicket:
    """One served read: the observed engine version and the enumerated prefix
    (the full result unless the read was issued with a ``limit``)."""

    version: int
    pairs: Tuple[Tuple[ValueTuple, int], ...]

    def result(self) -> Dict[ValueTuple, int]:
        return {tup: mult for tup, mult in self.pairs}


def check_limit(limit, error=ValueError) -> Optional[int]:
    """The ``limit`` of a read or of a page: ``None`` (none) or a positive
    ``int``; anything else raises ``error``."""
    if limit is not None and (type(limit) is not int or limit <= 0):
        raise error(f"limit must be None or a positive integer, got {limit!r}")
    return limit


def take(enumerator, limit: Optional[int]) -> Tuple:
    """The first ``limit`` items of ``enumerator`` (all of them for ``None``):
    a served read, or one page of a paged one."""
    return tuple(enumerator if limit is None else islice(enumerator, limit))


class EngineServer(MutationSurface):
    """Serve one loaded engine to a writer thread and N reader sessions."""

    def __init__(self, engine, mode: str = "snapshot", controller=None) -> None:
        # ``mode`` has one value left.  The keyword stays accepted only
        # because benchmarks/e2e/ passes it and that directory is frozen
        # outside a [benchmark] PR (ROADMAP item 5(a) drops both).
        if mode != "snapshot":
            raise ValueError(
                f"unknown serving mode {mode!r}; there is only 'snapshot'"
            )
        self.engine = engine
        # Optional repro.adaptive.AdaptiveController: consulted after every
        # committed batch (while the write lock is still held, before the
        # new version is published), so the served ε tracks the observed
        # read/write mix with no extra thread.  Reads feed the engine's
        # telemetry with the enumeration costs they actually paid —
        # snapshot reads bypass engine.enumerate(), so the server records
        # them explicitly.
        self.controller = controller
        self.stats = ServingStats()
        self._write_lock = threading.Lock()
        self._writer_thread: Optional[threading.Thread] = None
        self._writer_stop = threading.Event()
        self._writer_error: Optional[BaseException] = None
        # The currently published snapshot: swapped by the writer after
        # each commit, read without holding the write lock.
        # Superseded snapshots cannot simply be dropped: readers may still
        # be enumerating them, and sharded snapshots hold shard-local
        # registry entries by strong reference (only the single-engine
        # tracker is weak).  Every read pins the published entry for its
        # duration; the writer retires the old entry on publish, and the
        # entry's close() runs as soon as the pin count drains to zero.
        self._published: Optional[_PublishedVersion] = None
        self._publish_lock = threading.Lock()
        # Commit listeners (the push-based serving hook): called after
        # every committed ingestion event, under the write lock, with the
        # new engine version and the commit's net result delta.  The first
        # registration turns the engine's result-delta capture on.
        self._commit_listeners: List[CommitListener] = []
        # Gates the controller-driven auto-reshard: set under the write
        # lock when a proposal is accepted, cleared when the reshard
        # finishes, so concurrent commits never start a second one.
        self._resharding = False

    # ------------------------------------------------------------------
    # writer side
    # ------------------------------------------------------------------
    def _publish_locked(self) -> "_PublishedVersion":
        """Swap in a fresh capture; caller holds the write lock."""
        entry = _PublishedVersion(self.engine.snapshot(), self._publish_lock)
        with self._publish_lock:
            previous, self._published = self._published, entry
        if previous is not None:
            previous.retire()
        return entry

    def on_commit(self, listener: CommitListener) -> None:
        """Register a listener called after every committed ingestion event.

        The listener receives ``(version, result_delta)`` — the engine
        version after the commit (auto-retune included) and the commit's
        net result-level delta, drained from the engine's capture hook
        (:meth:`~repro.core.api.HierarchicalEngine.set_delta_capture`).
        Called under the write lock, *after* the new version is published,
        so listeners observe commits serialized and in version order;
        :class:`repro.net.EngineTCPServer` fans these out to its
        subscribers.  Registering the first listener enables delta capture
        on the engine (dynamic engines only; on a static engine listeners
        simply receive empty deltas).
        """
        if not self._commit_listeners:
            set_capture = getattr(self.engine, "set_delta_capture", None)
            if set_capture is not None and getattr(self.engine, "mode", None) == "dynamic":
                set_capture(True)
        self._commit_listeners.append(listener)

    def commit(self, event: Event) -> None:
        """The one commit path of every update, batch and retune served.

        Commit ``event`` on the engine, consult the adaptive controller
        (the commit may auto-retune the engine — the published snapshot
        then already serves the new ε, so readers never observe a
        half-retuned version), publish, and notify commit listeners — all
        under the write lock; then count the commit.  Every spelling of the
        inherited update API (``apply_update``, ``apply_batch``, ``retune``,
        …) is one call of this method.
        """
        pending_reshard: Optional[int] = None
        with self._write_lock:
            self.engine.commit(event)
            if self.controller is not None:
                if self.controller.maybe_retune() is not None:
                    self.stats.count_retune()
                # The capacity knob: accept at most one proposal at a time
                # (the flag is only ever set under this lock) and execute
                # it *after* the commit releases the lock — the expensive
                # build phase must not stall the writer.
                propose = getattr(self.controller, "propose_shards", None)
                if (
                    propose is not None
                    and not self._resharding
                    and hasattr(self.engine, "begin_reshard")
                ):
                    pending_reshard = propose()
                    if pending_reshard is not None:
                        self._resharding = True
            self._publish_locked()
            if self._commit_listeners:
                drain = getattr(self.engine, "drain_result_delta", None)
                delta = drain() if drain is not None else {}
                version = self.engine.version
                for listener in self._commit_listeners:
                    listener(version, delta)
        self.stats.count_batch()
        if pending_reshard is not None:
            try:
                self.reshard(pending_reshard)
                self.controller.record_reshard(pending_reshard)
            finally:
                self._resharding = False

    def reshard(self, new_count: int) -> None:
        """Change the sharded engine's shard count while serving.

        Drives the engine's three-phase protocol so the write lock is
        held only for the brief cut and swap phases — the expensive build
        (re-route every shard's base data into a fresh fleet) runs with
        the lock *released*, the writer keeps committing, and the engine
        buffers the tail for replay at the swap.  Subscribers ride
        through exactly like a retune: the post-swap publish carries the
        reshard's version tick with an **empty** delta (the result is
        unchanged by construction — a reshard moves tuples between
        shards, never in or out of the result), so mirrors advance their
        version stamp without phantom updates.  Readers pinned on the
        pre-reshard snapshot finish against the retired fleet.
        """
        if not hasattr(self.engine, "begin_reshard"):
            raise ValueError(
                "reshard needs a sharded engine; "
                f"got {type(self.engine).__name__}"
            )
        with self._write_lock:
            plan = self.engine.begin_reshard(new_count)
        try:
            self.engine.build_reshard(plan)
        except BaseException:
            with self._write_lock:
                self.engine.abort_reshard(plan)
            raise
        with self._write_lock:
            self.engine.finish_reshard(plan)
            self._publish_locked()
            if self._commit_listeners:
                version = self.engine.version
                for listener in self._commit_listeners:
                    listener(version, {})
        self.stats.count_reshard()

    def start_writer(self, batches: Iterable) -> threading.Thread:
        """Run a writer loop ingesting ``batches`` on a background thread.

        The loop stops when the iterable is exhausted or
        :meth:`stop_writer` is called; an exception in the writer is
        captured and re-raised by :meth:`stop_writer`.
        """
        if self._writer_thread is not None and self._writer_thread.is_alive():
            raise RuntimeError("a writer loop is already running")
        self._writer_stop.clear()
        self._writer_error = None

        def loop() -> None:
            try:
                for batch in batches:
                    if self._writer_stop.is_set():
                        break
                    self.apply_batch(batch)
            except BaseException as exc:  # noqa: BLE001 - re-raised on stop
                self._writer_error = exc

        thread = threading.Thread(
            target=loop, name="repro-engine-writer", daemon=True
        )
        self._writer_thread = thread
        thread.start()
        return thread

    def check_writer(self) -> None:
        """Raise promptly if a started writer loop has died.

        Every :meth:`read` (and the networked server's loops) consults
        this probe, so a dead writer surfaces at the next read as a
        :class:`~repro.exceptions.WriterFailedError` — with the original
        exception attached as ``__cause__`` — instead of readers serving a
        silently frozen version until someone happens to call
        :meth:`stop_writer`.  The stored error is *not* cleared:
        ``stop_writer`` still re-raises the original.
        """
        error = self._writer_error
        if error is not None:
            raise WriterFailedError(
                f"the writer loop died with {type(error).__name__}: {error}; "
                "the served version is frozen — stop_writer() re-raises the "
                "original error"
            ) from error

    def stop_writer(self, timeout: Optional[float] = None) -> None:
        """Signal the writer loop to stop, join it, and surface its error.

        If the loop is still inside a batch when ``timeout`` expires the
        thread handle is kept — a later :meth:`start_writer` keeps being
        rejected and a later :meth:`stop_writer` can join it — instead of
        orphaning a loop that would interleave with its replacement.
        """
        self._writer_stop.set()
        thread = self._writer_thread
        if thread is not None:
            thread.join(timeout)
            if thread.is_alive():
                raise RuntimeError(
                    "the writer loop did not stop within the timeout; it is "
                    "still finishing its current batch — call stop_writer() "
                    "again to wait for it"
                )
            self._writer_thread = None
        if self._writer_error is not None:
            error, self._writer_error = self._writer_error, None
            raise error

    # ------------------------------------------------------------------
    # reader side
    # ------------------------------------------------------------------
    def snapshot(self):
        """Capture a private snapshot, write lock held only for the capture.

        Unlike :meth:`read`, this waits for any in-flight batch (a capture
        is only meaningful at a commit boundary); the caller owns the
        returned handle and should ``close()`` it when done.
        """
        with self._write_lock:
            return self.engine.snapshot()

    def pin(self) -> PinnedVersion:
        """Hold the last committed version for one reader; ``close()`` it.

        Pins the *published* version: no write lock, no capture, so a
        reader never waits for the commit in flight — and since a commit
        publishes before it returns, an acked write is in the version
        pinned next.  The pin is counted under the publish lock: a
        concurrent publish either swaps first (the newer entry is pinned)
        or retires the entry only after the pin is in.  Only before the
        first commit is nothing published yet; version 0 is then captured
        under the write lock.
        """
        while True:
            with self._publish_lock:
                entry = self._published
                if entry is not None:
                    entry._pins += 1
                    return PinnedVersion(entry.snapshot, entry.unpin)
            with self._write_lock:
                if self._published is None:
                    self._publish_locked()

    @property
    def cold(self) -> bool:
        """Nothing published yet: the next :meth:`pin` takes the write lock,
        and its reader makes the first frozen copies."""
        return self._published is None

    def read(self, limit: Optional[int] = None) -> ReadTicket:
        """Serve one consistent read session.

        The read enumerates the currently *published* snapshot — the last
        committed version — without taking any lock, so it never waits for
        an in-flight batch.  The returned ticket's ``pairs`` are a
        torn-read-free enumeration prefix of one engine version — the full
        result with ``limit=None``, or the first ``limit`` tuples (a page,
        in the paper's constant-delay enumeration model) otherwise.  Raises
        :class:`~repro.exceptions.WriterFailedError` if a started writer
        loop has died (see :meth:`check_writer`).
        """
        check_limit(limit)
        self.check_writer()
        started = time.perf_counter()
        with self.pin() as pinned:
            pairs = take(pinned.snapshot.enumerate(), limit)
            version = pinned.version
        # snapshot reads bypass engine.enumerate(), so record the read
        # into the engine's telemetry here
        telemetry = getattr(self.engine, "telemetry", None)
        if telemetry is not None:
            telemetry.record_read(len(pairs), time.perf_counter() - started)
        self.stats.count_read()
        return ReadTicket(version=version, pairs=pairs)

    def aggregate(self, spec, maintained: bool = True):
        """One consistent aggregate read: ``(version, {group: (support, element)})``.

        Commits mutate the engine's maintained aggregate state under the
        write lock, so the read takes it too — the returned elements and
        version always belong to one committed engine state.  Maintained reads are O(groups), so the lock hold is
        brief even when the result itself is huge; the networked server's
        aggregate ops and subscription resyncs all come through here.
        """
        self.check_writer()
        with self._write_lock:
            version = getattr(self.engine, "version", 0)
            elements = self.engine.aggregate_elements(spec, maintained=maintained)
        self.stats.count_read()
        return version, elements

    def run_readers(
        self,
        count: int,
        duration_seconds: float,
        limit: Optional[int] = None,
    ) -> List[ReadTicket]:
        """Run ``count`` reader sessions in parallel for a wall-clock window.

        Each session loops :meth:`read` until the deadline; the tickets of
        every session are returned (used by the stress tests and the
        concurrent-serving benchmark).  Reader exceptions propagate — and
        the *first* error aborts every peer session via a shared abort
        event, so a failed reader surfaces after at most one in-flight
        read per peer instead of burning the full wall-clock window.
        """
        deadline = time.perf_counter() + duration_seconds
        tickets: List[List[ReadTicket]] = [[] for _ in range(count)]
        errors: List[BaseException] = []
        abort = threading.Event()

        def session(slot: int) -> None:
            try:
                while not abort.is_set() and time.perf_counter() < deadline:
                    tickets[slot].append(self.read(limit))
            except BaseException as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)
                abort.set()

        threads = [
            threading.Thread(
                target=session, args=(slot,), name=f"repro-reader-{slot}"
            )
            for slot in range(count)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if errors:
            raise errors[0]
        return [ticket for session_tickets in tickets for ticket in session_tickets]
