"""Concurrent serving: snapshot readers vs the serialized read-after-write loop.

Without snapshots every enumeration walks live view state, so a reader and a
maintenance batch cannot overlap: reads serialize behind the in-flight batch
and — worse — each reader gets at most one read per batch cycle, because the
one lock alternates between the writer and the queued readers.  That loop is
the baseline, built here and nowhere else (``_run_serialized``): one
``threading.Lock`` held around ``engine.apply_batch`` and around each full
``engine.enumerate()``.  With versioned snapshots (``EngineServer``) the
writer publishes a capture of each committed version in ``O(plan)`` under its
lock and a reader enumerates that immutable capture *outside* it, so readers
keep serving while a batch is mid-flight and are no longer rate-limited by
the maintenance cadence.

The workload puts the engine in the regime where maintenance, not
enumeration, is the bottleneck: a dense ``DOM × KEYS × DOM`` path-query cube
(``R`` is the full ``DOM × KEYS`` grid, ``S`` the full ``KEYS × DOM`` one),
where every join key has degree ``DOM``, ingested at ε = 1 (everything light,
so each distinct batch delta pays ``O(DOM)`` propagation into the
materialized views) while the result — and with it the cost of one full
enumeration and of one copy-on-write view capture — stays at ``DOM²`` tuples.
A continuous writer applies consolidated batches of ``BATCH_SIZE`` updates; 4
reader sessions enumerate the full result as fast as they can for a fixed
wall-clock window.  Both sides run the same writer loop and the same reader
sessions; the only difference is what a read holds while it enumerates.

*Sizing.*  The serialized baseline (the ``locked`` row) serves four reads
per batch cycle, so its rate is set by how long a batch holds the lock, and
the regime needs that hold to outlast four enumerations (~0.1 s here).  A
batch holds the lock
for its *net* delta — what is left of ``BATCH_SIZE`` updates once same-tuple
updates have cancelled — so ``BATCH_SIZE`` buys lock time only while the
updates land on distinct tuples, of which ``R`` has ``DOM × KEYS``.  The two
are sized together for the speed of the compiled delta joins (~18 µs per net
tuple on this cube): ~15 k net tuples, ~0.27 s of lock per batch.  With
``KEYS = DOM`` the net delta saturates at ``DOM²`` ≈ 3 k tuples (~0.05 s,
half of the four enumerations) whatever the batch size.  Snapshot-mode
``reads_per_s`` depends on neither knob — the result and the reader sessions
are the same — and is the number to compare between versions of the engine
on one host.

The recorded table asserts the headline claim: snapshot serving sustains at
least 2× the aggregate enumeration throughput (completed full-result reads
per second, equivalently result tuples served per second) of the serialized
loop, with every served read a duplicate-free, torn-free enumeration of one
engine version.
"""

import random
import threading
import time
from collections import deque

import pytest

from repro import Database, HierarchicalEngine, Update
from repro.core.serving import EngineServer, ReadTicket
from benchmarks.conftest import scaled

PATH_QUERY = "Q(A, C) = R(A, B), S(B, C)"
# Never scaled *below* the defaults: the serving window is fixed wall-clock
# time, and shrinking the cube would let per-read capture overhead dominate
# the regime this benchmark is about (REPRO_BENCH_SCALE > 1 still scales up).
DOM = max(55, scaled(55))
KEYS = 6 * DOM
BATCH_SIZE = max(30000, scaled(30000))
# The freshness scenario uses small batches so several versions commit (and
# get served) inside its window even with readers sharing the interpreter.
FRESH_BATCH_SIZE = 1000
FRESH_WINDOW_SECONDS = 1.25
READERS = 4
WINDOW_SECONDS = 2.5
EPSILON = 1.0
ATTEMPTS = 2  # best-of-N: noise on a busy host only ever inflates a run


def dense_cube_database() -> Database:
    """The dense path-query cube: R = the full DOM x KEYS grid, S = KEYS x DOM."""
    return Database.from_dict(
        {
            "R": (("A", "B"), [(a, b) for a in range(DOM) for b in range(KEYS)]),
            "S": (("B", "C"), [(b, c) for b in range(KEYS) for c in range(DOM)]),
        }
    )


def _endless_batches(relation: str, domains, seed: int, batch_size: int):
    """An infinite stream of valid consolidated batches of ``batch_size`` updates.

    Alternates fresh inserts with deletes of tuples inserted by *previous*
    batches (same-batch pairs would cancel during consolidation), keeping
    the database size roughly constant so per-batch maintenance cost stays
    stationary across the measurement window.
    """
    rng = random.Random(seed)
    inserted = deque()
    counter = 0
    while True:
        batch = []
        deletable = len(inserted)
        for _ in range(batch_size):
            counter += 1
            if deletable > 0 and counter % 2 == 1:
                deletable -= 1
                batch.append(Update(relation, inserted.popleft(), -1))
            else:
                tup = tuple(rng.randrange(domain) for domain in domains)
                inserted.append(tup)
                batch.append(Update(relation, tup, 1))
        yield batch


def _check_ticket(ticket) -> None:
    """Every served read must be duplicate-free with positive multiplicities."""
    seen = set()
    for tup, mult in ticket.pairs:
        assert mult > 0, f"non-positive multiplicity {mult} for {tup!r}"
        assert tup not in seen, f"tuple {tup!r} enumerated twice in one read"
        seen.add(tup)


def _row(mode: str, tickets, elapsed: float, batches: int) -> dict:
    for ticket in tickets[:: max(1, len(tickets) // 16)]:
        _check_ticket(ticket)
    tuples = sum(len(ticket.pairs) for ticket in tickets)
    return {
        "mode": mode,
        "readers": READERS,
        "reads": len(tickets),
        "batches": batches,
        "reads_per_s": len(tickets) / elapsed,
        "tuples_per_s": tuples / elapsed,
        "versions_seen": len({ticket.version for ticket in tickets}),
    }


def _run_snapshot(
    database,
    batch_size: int = BATCH_SIZE,
    window: float = WINDOW_SECONDS,
) -> dict:
    """One serving window: continuous writer + READERS full-read sessions."""
    engine = HierarchicalEngine(PATH_QUERY, epsilon=EPSILON)
    engine.load(database)
    server = EngineServer(engine)
    batches = _endless_batches("R", (DOM, KEYS), seed=303, batch_size=batch_size)
    server.start_writer(batches)
    started = time.perf_counter()
    tickets = server.run_readers(READERS, window)
    elapsed = time.perf_counter() - started
    server.stop_writer()
    return _row("snapshot", tickets, elapsed, server.stats.batches_applied)


def _run_serialized(database) -> dict:
    """The same window with no snapshots: one lock, held by the writer for
    each batch and by a reader for each whole enumeration of the live views."""
    engine = HierarchicalEngine(PATH_QUERY, epsilon=EPSILON)
    engine.load(database)
    lock = threading.Lock()
    stop = threading.Event()
    applied = []

    def writer() -> None:
        for batch in _endless_batches("R", (DOM, KEYS), seed=303, batch_size=BATCH_SIZE):
            if stop.is_set():
                return
            with lock:
                engine.apply_batch(batch)
            applied.append(1)

    sessions = [[] for _ in range(READERS)]

    def reader(tickets: list) -> None:
        while time.perf_counter() < deadline:
            with lock:
                tickets.append(ReadTicket(engine.version, tuple(engine.enumerate())))

    threads = [threading.Thread(target=writer, daemon=True)] + [
        threading.Thread(target=reader, args=(tickets,)) for tickets in sessions
    ]
    started = time.perf_counter()
    deadline = started + WINDOW_SECONDS
    for thread in threads:
        thread.start()
    for thread in threads[1:]:
        thread.join()
    elapsed = time.perf_counter() - started
    stop.set()
    threads[0].join()
    tickets = [ticket for session in sessions for ticket in session]
    return _row("locked", tickets, elapsed, len(applied))


def _best_of(run, database) -> dict:
    best = None
    for _ in range(ATTEMPTS):
        row = run(database)
        if best is None or row["reads_per_s"] > best["reads_per_s"]:
            best = row
    return best


@pytest.fixture(scope="module")
def serving_rows(figure_report):
    database = dense_cube_database()
    rows = [
        _best_of(_run_serialized, database),
        _best_of(_run_snapshot, database),
    ]
    locked = rows[0]
    for row in rows:
        row["speedup_vs_locked"] = row["reads_per_s"] / locked["reads_per_s"]
    figure_report.record(
        "Concurrent serving: aggregate enumeration throughput, "
        f"{READERS} full-result readers vs a continuous batch writer "
        f"(N={database.size}, result={DOM * DOM}, batch={BATCH_SIZE}, "
        f"eps={EPSILON}, window={WINDOW_SECONDS}s)",
        rows,
    )
    return rows


def test_snapshot_readers_at_least_2x_serialized(serving_rows, benchmark):
    benchmark(lambda: None)
    by_mode = {row["mode"]: row for row in serving_rows}
    assert by_mode["snapshot"]["reads_per_s"] >= 2.0 * by_mode["locked"]["reads_per_s"]


def test_snapshot_readers_observe_multiple_versions(figure_report, benchmark):
    """Snapshot reads must track the writer: several committed versions get
    served inside one window once commits are frequent enough."""
    benchmark(lambda: None)
    row = _run_snapshot(
        dense_cube_database(),
        batch_size=FRESH_BATCH_SIZE,
        window=FRESH_WINDOW_SECONDS,
    )
    row["mode"] = "snapshot-freshness"
    figure_report.record(
        "Freshness: published versions served during one window "
        f"(batch={FRESH_BATCH_SIZE}, window={FRESH_WINDOW_SECONDS}s)",
        [row],
    )
    assert row["versions_seen"] > 1
    assert row["batches"] >= 1
