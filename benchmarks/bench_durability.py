"""Durability cost and recovery speed: the price of surviving a crash.

Two claims, both recorded in ``BENCH_trajectory.json`` and re-checked by
``tools/bench_gate.py``:

* **WAL-on overhead ≤ 30% per tuple** for batched ingestion with
  per-commit fsync (batch size 100).  One WAL record per accepted batch
  amortizes the frame/encode cost and the fsync over the whole batch, so
  durability rides along with the PR 1 batching win instead of fighting
  it.  The table also records ``fsync=False`` (OS-buffered flushes — an
  order of magnitude cheaper per commit, but a crash may lose the
  buffered tail) and the single-update fsync row, which is *deliberately
  not asserted*: one fsync per tuple is exactly the regime where fsync
  batching loses, see ``docs/architecture.md`` §12.
* **Checkpointed recovery ≤ 0.5× replay-everything recovery** for a
  WAL of ``scaled(100_000)`` update tuples.  A checkpoint is a paid-up
  prefix of the log: recovery loads the newest one and replays only the
  tail, while a checkpoint-free log replays every record through the
  normal batch path.  The schedule is the size-proportional one
  (``checkpoint_ratio``: a checkpoint per ratio × its own size of WAL),
  written by the background writer while ingestion continues; the
  table's ``ingest_s`` column is what that costs the ingesting thread.
  An insert-only log is the schedule's worst case — the database doubles
  between checkpoints, so at the default ratio 1.0 the replayed tail can
  be as long as the checkpoint is big — and loading a tuple from a
  checkpoint costs a third to a half of replaying it, so the gated row
  bounds the tail at a quarter of the checkpoint (and pays for it in
  ``ingest_s``); the default-policy row is recorded beside it, ungated.

Timings are best-of-``ATTEMPTS`` fresh runs, like the other benchmark
modules: scheduling noise on a busy host only ever inflates a run.
"""

import gc
import time

import pytest

from repro.core.api import HierarchicalEngine
from repro.data.database import Database
from repro.data.update import Update, UpdateBatch
from repro.durability import DurabilityConfig, recover_engine
from benchmarks.conftest import scaled

QUERY = "Q(A, C) = R(A, B), S(B, C)"
DOMAIN_B = 50
EPSILON = 0.5
OVERHEAD_TUPLES = scaled(20_000)
RECOVERY_TUPLES = scaled(100_000)
BATCH = 100
ATTEMPTS = 5  # fsync latency is the noisiest timer on a busy host
# the asserted claims (mirrored in BENCH_trajectory.json)
MAX_WAL_OVERHEAD = 1.30
MAX_CHECKPOINTED_RECOVERY_RATIO = 0.50


def make_database():
    database = Database()
    r = database.create_relation("R", ("A", "B"))
    s = database.create_relation("S", ("B", "C"))
    for b in range(DOMAIN_B):
        s.apply_delta((b, b), 1)
        r.apply_delta((-b - 1, b), 1)
    return database


def make_batches(tuples, batch_size):
    """Insert-only batches of fresh tuples: every result row is new, so
    the workload exercises view maintenance on every single update."""
    batches, current = [], UpdateBatch()
    for index in range(tuples):
        current.add(Update("R", (index, index % DOMAIN_B), 1))
        if current.source_count >= batch_size:
            batches.append(current)
            current = UpdateBatch()
    if current.source_count:
        batches.append(current)
    return batches


def ingest(batches, durability=None):
    engine = HierarchicalEngine(QUERY, epsilon=EPSILON, durability=durability)
    engine.load(make_database())
    started = time.perf_counter()
    for batch in batches:
        engine.apply_batch(batch)
    engine.close()  # inside the clock: it waits for a checkpoint in flight
    return time.perf_counter() - started


def best_ingest(batches, config_factory):
    """Fastest of ATTEMPTS fresh runs, each into a fresh directory."""
    return min(
        ingest(batches, config_factory(attempt)) for attempt in range(ATTEMPTS)
    )


@pytest.fixture(scope="module")
def overhead_rows(figure_report, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("bench-durability-overhead")
    rows = []

    def record(name, batch_size, elapsed, baseline):
        rows.append(
            {
                "mode": name,
                "batch_size": batch_size,
                "total_s": elapsed,
                "per_tuple_us": elapsed / OVERHEAD_TUPLES * 1e6,
                "tuples_per_s": OVERHEAD_TUPLES / elapsed,
                "overhead_vs_memory": elapsed / baseline,
            }
        )

    batches = make_batches(OVERHEAD_TUPLES, BATCH)
    memory = best_ingest(batches, lambda attempt: None)
    record("in-memory", BATCH, memory, memory)
    for fsync, name in ((True, "wal fsync=True"), (False, "wal fsync=False")):
        elapsed = best_ingest(
            batches,
            lambda attempt, fsync=fsync: DurabilityConfig(
                str(tmp_path / f"{fsync}-{attempt}"),
                fsync=fsync,
                checkpoint_ratio=None,
            ),
        )
        record(name, BATCH, elapsed, memory)

    # the cautionary row: one fsync per *tuple* — recorded, not asserted
    singles = make_batches(scaled(2_000), 1)
    single_memory = best_ingest(singles, lambda attempt: None)
    single_durable = best_ingest(
        singles,
        lambda attempt: DurabilityConfig(
            str(tmp_path / f"single-{attempt}"),
            fsync=True,
            checkpoint_ratio=None,
        ),
    )
    rows.append(
        {
            "mode": "wal fsync=True (per-tuple commits)",
            "batch_size": 1,
            "total_s": single_durable,
            "per_tuple_us": single_durable / scaled(2_000) * 1e6,
            "tuples_per_s": scaled(2_000) / single_durable,
            "overhead_vs_memory": single_durable / single_memory,
        }
    )

    figure_report.record(
        f"Durability overhead: per-tuple ingestion cost with the WAL on "
        f"({OVERHEAD_TUPLES} tuples, batch={BATCH}, eps={EPSILON})",
        rows,
    )
    return rows


@pytest.fixture(scope="module")
def recovery_rows(figure_report, tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("bench-durability-recovery")
    batches = make_batches(RECOVERY_TUPLES, BATCH)
    rows = []

    def timed_recovery(name, ratio):
        config = DurabilityConfig(
            str(tmp_path / name),
            fsync=False,  # the log's *size*, not its fsync policy, is under test
            checkpoint_ratio=ratio,
        )
        ingest_s = ingest(batches, config)
        recovery_s = float("inf")
        for _ in range(3):  # recovering changes nothing on disk: repeatable
            # a recovering process starts on an empty heap; the engines of
            # earlier rows would otherwise be rescanned by every collection
            gc.collect()
            started = time.perf_counter()
            recovered, report = recover_engine(config.directory, config)
            recovery_s = min(recovery_s, time.perf_counter() - started)
            assert report.final_version == len(batches)
            recovered.close()
            del recovered
        rows.append(
            {
                "strategy": name,
                "checkpoint_ratio": ratio or 0,
                "wal_tuples": RECOVERY_TUPLES,
                "ingest_s": ingest_s,
                "recovery_s": recovery_s,
                "replayed_records": report.replayed_records,
                "checkpoint_version": report.checkpoint_version,
            }
        )
        return recovery_s

    replay_all = timed_recovery("replay-all", None)
    timed_recovery("checkpointed", 0.25)
    timed_recovery("checkpointed (default policy)", 1.0)

    started = time.perf_counter()
    ingest(batches)
    rebuild = time.perf_counter() - started
    rows.append(
        {
            "strategy": "rebuild-from-source (no durability)",
            "checkpoint_ratio": 0,
            "wal_tuples": RECOVERY_TUPLES,
            "ingest_s": rebuild,
            "recovery_s": rebuild,
            "replayed_records": 0,
            "checkpoint_version": 0,
        }
    )
    for row in rows:
        row["vs_replay_all"] = row["recovery_s"] / replay_all
    figure_report.record(
        f"Recovery time for a {RECOVERY_TUPLES}-update WAL "
        f"(batch={BATCH}, eps={EPSILON})",
        rows,
    )
    return rows


def test_batched_wal_overhead_within_30pct(overhead_rows, benchmark):
    benchmark(lambda: None)
    by_mode = {row["mode"]: row for row in overhead_rows}
    assert by_mode["wal fsync=True"]["overhead_vs_memory"] <= MAX_WAL_OVERHEAD
    assert by_mode["wal fsync=False"]["overhead_vs_memory"] <= MAX_WAL_OVERHEAD


def test_checkpointed_recovery_beats_full_replay(recovery_rows, benchmark):
    benchmark(lambda: None)
    by_strategy = {row["strategy"]: row for row in recovery_rows}
    checkpointed = by_strategy["checkpointed"]
    assert checkpointed["vs_replay_all"] <= MAX_CHECKPOINTED_RECOVERY_RATIO
    # the checkpoint genuinely shortened the replayed tail
    assert (
        checkpointed["replayed_records"]
        < by_strategy["replay-all"]["replayed_records"]
    )


def test_recovery_replays_the_whole_log_without_checkpoints(
    recovery_rows, benchmark
):
    benchmark(lambda: None)
    by_strategy = {row["strategy"]: row for row in recovery_rows}
    assert by_strategy["replay-all"]["replayed_records"] == (
        RECOVERY_TUPLES + BATCH - 1
    ) // BATCH
