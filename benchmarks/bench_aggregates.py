"""Maintained ring aggregates vs enumerate-and-fold on ``iot_rolling_sum``.

The PR-10 claim: once a spec is registered, ``engine.aggregate()`` answers
from maintained ring state — each commit folds only its own result delta
into the state (O(delta) maintenance), so a read touches the live groups
and nothing else.  The alternative recomputes the fold from scratch:
enumerate the full join result through the view stack and lift every tuple
into the ring (``maintained=False``).  On a sliding-window workload whose
result is several times larger than its group count, the maintained read
must win by a wide margin *while the stream keeps churning*.

Two headline series on the iot sliding-window workload:

* **read latency** (gated claim) — interleave consolidated batches with a
  per-site rolling-sum read at 10k-group scale (``sites=10000``, a 30k
  reading window).  Per-read wall-clock of the maintained path vs the
  enumerate-and-fold path over the identical stream; the ratio must be
  **>= 5x**.  Maintenance cost rides along in the table: the maintained
  engine's ingest time includes folding every delta into the state, so the
  speedup is not bought by shifting work into ingestion.
* **subscription frame bytes** (context) — per-commit push frames, each
  sized as :func:`~repro.net.protocol.encode_frame` puts it on the wire, for
  a plain subscription (every changed result tuple, binary column blocks)
  vs an aggregate subscription (net per-group support/element rows, JSON:
  the :mod:`repro.net.server` shape) on the registered ``iot_rolling_sum``
  scenario, whose 24 hot sites make many result rows coalesce into few
  group rows.  Aggregate frames must never be the larger ones in total.

Correctness rides along: after the full stream, the maintained answers
must equal the fold over a fresh enumeration, group for group.
"""

from __future__ import annotations

import time
from typing import Dict, List, Tuple

import pytest

from benchmarks.conftest import scaled
from repro.core.api import HierarchicalEngine
from repro.net.protocol import encode_frame, wire_pairs
from repro.rings.spec import AggregateSpec, fold_delta, wire_elements
from repro.workloads.scenarios import (
    IOT_QUERY,
    get_scenario,
    iot_database,
    iot_window_stream,
)

# -- read-latency series: 10k-group scale ------------------------------
DEVICES = scaled(12000)
SITES = scaled(10000)
WINDOW = scaled(30000)
STREAM = scaled(4000)
BATCH_SIZE = 100
SEED_DB = 11
SEED_STREAM = 13
READ_SPEEDUP_MIN = 5.0

# -- payload series: the registered scenario's hot-site sizing ---------
PAYLOAD_STREAM = scaled(3000)
PAYLOAD_BATCH = 100

SPEC = AggregateSpec("sum", "V", ("S",))
HEAD = ("S", "V")


def _workload() -> Tuple[HierarchicalEngine, List[List]]:
    database = iot_database(
        devices=DEVICES, sites=SITES, window=WINDOW, seed=SEED_DB
    )
    stream = list(
        iot_window_stream(
            STREAM, database, window=WINDOW, devices=DEVICES, seed=SEED_STREAM
        )
    )
    engine = HierarchicalEngine(IOT_QUERY, epsilon=0.5).load(database)
    batches = [
        stream[i : i + BATCH_SIZE] for i in range(0, len(stream), BATCH_SIZE)
    ]
    return engine, batches


def _run(maintained: bool) -> Dict[str, float]:
    """Interleave batches with one aggregate read each; time both sides."""
    engine, batches = _workload()
    if maintained:
        engine.register_aggregate(SPEC)
    engine.aggregate(SPEC, maintained=maintained)  # warm both paths
    ingest = read = 0.0
    answers: Dict = {}
    for batch in batches:
        started = time.perf_counter()
        engine.apply_batch(batch)
        ingest += time.perf_counter() - started
        started = time.perf_counter()
        answers = engine.aggregate(SPEC, maintained=maintained)
        read += time.perf_counter() - started
    return {
        "ingest_s": ingest,
        "read_s": read,
        "reads": len(batches),
        "groups": len(answers),
        "answers": answers,
    }


@pytest.fixture(scope="module")
def latency_rows(figure_report):
    maintained = _run(True)
    folded = _run(False)
    assert maintained["answers"] == folded["answers"], (
        "maintained aggregate diverged from enumerate-and-fold"
    )
    read_ratio = folded["read_s"] / maintained["read_s"]
    rows = []
    for label, run in (("maintained", maintained), ("enumerate-and-fold", folded)):
        rows.append(
            {
                "path": label,
                "groups": run["groups"],
                "ingest s": round(run["ingest_s"], 2),
                "ms/read": round(run["read_s"] / run["reads"] * 1000, 2),
                "read ratio": round(read_ratio, 2) if label == "maintained" else 1.0,
            }
        )
    figure_report.record(
        "Maintained aggregate vs enumerate-and-fold: per-site rolling sum, "
        f"{SITES} sites, {WINDOW}-reading window, {len(_workload()[1])} "
        f"batches of {BATCH_SIZE}",
        rows,
    )
    return rows


def test_maintained_read_speedup(latency_rows):
    """Gated claim: maintained aggregate reads are >= 5x enumerate-and-fold."""
    maintained = next(r for r in latency_rows if r["path"] == "maintained")
    assert maintained["read ratio"] >= READ_SPEEDUP_MIN, latency_rows


def test_maintenance_not_shifted_into_ingest(latency_rows):
    """The read win is not bought by hiding the fold in ingestion.

    Maintained ingest includes folding every result delta into the ring
    state; it must stay within 2x of the fold-free ingest path (in
    practice it is nearly identical — the delta fold is O(delta)).
    """
    maintained = next(r for r in latency_rows if r["path"] == "maintained")
    folded = next(r for r in latency_rows if r["path"] == "enumerate-and-fold")
    assert maintained["ingest s"] <= 2.0 * folded["ingest s"] + 0.5, latency_rows


# ----------------------------------------------------------------------
# subscription payload bytes: plain result deltas vs ring-folded frames
# ----------------------------------------------------------------------
def _delta(previous: Dict, current: Dict) -> Dict:
    out = {}
    for tup, mult in current.items():
        change = mult - previous.get(tup, 0)
        if change:
            out[tup] = change
    for tup, mult in previous.items():
        if tup not in current:
            out[tup] = -mult
    return out


def _push_frame(version: int, payload) -> bytes:
    return encode_frame({"sub": 1, "kind": "delta", "version": version, "delta": payload})


@pytest.fixture(scope="module")
def payload_rows(figure_report):
    scenario = get_scenario("iot_rolling_sum")
    database = scenario.make_database(SEED_DB, 1.0)
    stream = list(scenario.make_stream(database, PAYLOAD_STREAM, SEED_STREAM))
    engine = HierarchicalEngine(scenario.query, epsilon=0.5).load(database)
    head = tuple(engine.query.head)
    ring = SPEC.ring
    plain_bytes = agg_bytes = 0
    plain_rows = agg_rows = commits = 0
    previous = dict(engine.result())
    for start in range(0, len(stream), PAYLOAD_BATCH):
        engine.apply_batch(stream[start : start + PAYLOAD_BATCH])
        current = dict(engine.result())
        delta = _delta(previous, current)
        previous = current
        if not delta:
            continue
        commits += 1
        # Both frames as the server sends them (repro.net.server's message
        # shapes).  The plain push frame: every changed result tuple.
        plain_rows += len(delta)
        plain_bytes += len(_push_frame(commits, wire_pairs(delta.items())))
        # the aggregate push frame: net per-group support/element rows
        agg_payload = wire_elements(ring, fold_delta(SPEC, head, delta.items()))
        agg_rows += len(agg_payload)
        agg_bytes += len(_push_frame(commits, agg_payload))
    rows = [
        {
            "frame": "plain delta",
            "commits": commits,
            "rows": plain_rows,
            "bytes": plain_bytes,
            "bytes ratio": 1.0,
        },
        {
            "frame": "aggregate delta",
            "commits": commits,
            "rows": agg_rows,
            "bytes": agg_bytes,
            "bytes ratio": round(plain_bytes / max(1, agg_bytes), 2),
        },
    ]
    figure_report.record(
        "Subscription push frame bytes: plain result deltas (binary column "
        "blocks, protocol 3) vs ring-folded aggregate frames (JSON rows) "
        f"(iot_rolling_sum, {commits} commits of {PAYLOAD_BATCH} updates)",
        rows,
    )
    return rows


def test_aggregate_frames_coalesce(payload_rows):
    """Hot-group churn coalesces: aggregate frames never outweigh plain ones."""
    plain = next(r for r in payload_rows if r["frame"] == "plain delta")
    agg = next(r for r in payload_rows if r["frame"] == "aggregate delta")
    assert agg["rows"] <= plain["rows"], payload_rows
    assert agg["bytes"] <= plain["bytes"], payload_rows
