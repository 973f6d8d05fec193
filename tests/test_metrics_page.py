"""The ``/metrics`` page, pinned: every family's HELP and TYPE lines, in order.

Dashboards and alerts key on the exported names, so a change to how the
counter families are declared or rendered must leave the page's header
lines byte-identical.  Three deployments are scraped over plain HTTP after
one commit that both a tuple subscription and an aggregate subscription
have received: a durable single engine (every family present), a
sharded engine on the serial executor (no snapshot or durability family,
plus the shard-count gauge), and the same sharded engine made durable
(plus its worker-restart counter).  Sample values are checked only where they
are deterministic; timings and byte counts are not.
"""

from __future__ import annotations

import contextlib
import urllib.request

from repro import HierarchicalEngine, Update
from repro.core.serving import EngineServer
from repro.durability import DurabilityConfig
from repro.net import EngineClient, ServerConfig, ServerThread
from repro.rings.spec import AggregateSpec
from repro.sharding import ShardedEngine
from tests.test_net import PATH_QUERY, make_database

ENGINE = [
    ("repro_engine_version", "gauge", "Engine version: count of committed ingestion events."),
    ("repro_engine_epsilon", "gauge", "Current epsilon trade-off parameter."),
]
SHARDS = [
    ("repro_engine_shards", "gauge", "Current shard count of the served fleet."),
]
WORKLOAD = [
    ("repro_workload_update_events", "counter", "Ingestion events recorded by the workload telemetry."),
    ("repro_workload_update_tuples", "counter", "Source tuples across all recorded ingestion events."),
    ("repro_workload_update_seconds", "counter", "Wall-clock seconds spent in recorded ingestion."),
    ("repro_workload_read_events", "counter", "Enumeration events recorded by the workload telemetry."),
    ("repro_workload_read_tuples", "counter", "Tuples produced across all recorded enumerations."),
    ("repro_workload_read_seconds", "counter", "Wall-clock seconds spent in recorded enumeration."),
    ("repro_workload_ewma_update_seconds", "gauge", "EWMA-smoothed per-event ingestion cost."),
    ("repro_workload_ewma_read_seconds", "gauge", "EWMA-smoothed per-event enumeration cost."),
    ("repro_workload_read_fraction", "gauge", "EWMA-smoothed fraction of events that are reads."),
]
REBALANCE = [
    ("repro_rebalance_updates", "counter", "Single-tuple updates processed by the maintenance driver."),
    ("repro_rebalance_batches", "counter", "Consolidated batches processed by the maintenance driver."),
    ("repro_rebalance_minor_rebalances", "counter", "Minor (per-key) heavy/light rebalances."),
    ("repro_rebalance_major_rebalances", "counter", "Major (full repartition) rebalances."),
    ("repro_rebalance_moved_to_light", "counter", "Keys demoted from the heavy to the light partition."),
    ("repro_rebalance_moved_to_heavy", "counter", "Keys promoted from the light to the heavy partition."),
    ("repro_rebalance_retunes", "counter", "Explicit epsilon retunes (each is a major rebalance)."),
]
SERVING = [
    ("repro_serving_batches_applied", "counter", "Commits applied through the serving commit path."),
    ("repro_serving_reads_served", "counter", "Read tickets served."),
    ("repro_serving_retunes_applied", "counter", "Auto-retunes triggered by the adaptive controller."),
    ("repro_serving_reshards_applied", "counter", "Online reshards applied through the serving layer."),
]
SNAPSHOT = [
    ("repro_snapshot_full_copies", "counter", "Whole-relation copies made by snapshot copy-on-write."),
    ("repro_snapshot_copied_tuples", "counter", "Tuples those copies copied."),
    ("repro_snapshot_carried_indexes", "counter", "Indexes those copies inherited from the live relation."),
    ("repro_snapshot_replayed_entries", "counter", "Redo-log entries replayed onto frozen snapshot copies."),
]
DURABILITY = [
    ("repro_durability_wal_bytes_since_checkpoint", "gauge", "WAL bytes a recovery would replay."),
    ("repro_durability_checkpoint_age_seconds", "gauge", "Seconds since the last checkpoint became durable."),
    ("repro_durability_checkpoint_last_seconds", "gauge", "Write-and-prune time of the last checkpoint."),
    ("repro_durability_checkpoints_written_total", "counter", "Checkpoints written."),
    ("repro_durability_checkpoints_skipped_inflight_total", "counter", "Due checkpoints skipped: one in flight."),
    ("repro_durability_checkpoint_failures_total", "counter", "Checkpoint writes that failed."),
]
NET = [
    ("repro_aggregate_reads_total", "counter", "Aggregate reads served (one-shot ops, subscription snapshots, and resyncs)."),
    ("repro_net_connections_total", "counter", "TCP connections accepted since server start."),
    ("repro_net_connections_current", "gauge", "TCP connections currently open."),
    ("repro_net_connections_refused", "counter", "Connections refused at the connection limit."),
    ("repro_net_frames_received", "counter", "Protocol frames received across all connections."),
    ("repro_net_frames_sent", "counter", "Protocol frames sent across all connections."),
    ("repro_net_requests_failed", "counter", "Requests answered with an error frame."),
    ("repro_net_subscriptions_total", "counter", "Subscriptions opened since server start."),
    ("repro_net_subscribers_current", "gauge", "Subscriptions currently active."),
    ("repro_net_deltas_pushed", "counter", "Per-commit delta frames enqueued to subscribers."),
    ("repro_net_resyncs", "counter", "Slow-subscriber resyncs (queue overflow coalescing)."),
    ("repro_net_commits_observed", "counter", "Engine commits observed by the push hub."),
    ("repro_net_max_queue_depth", "gauge", "High-water mark of any subscriber send queue."),
    ("repro_net_http_requests", "counter", "Plain HTTP requests served on the shared port."),
    ("repro_net_agg_subscriptions_total", "counter", "Aggregate subscriptions opened since start."),
    ("repro_net_agg_subscribers_current", "gauge", "Aggregate subscriptions currently active."),
    ("repro_net_agg_deltas_pushed", "counter", "Folded aggregate delta frames enqueued."),
    ("repro_net_agg_resyncs", "counter", "Slow aggregate-subscriber resyncs (queue overflow)."),
    ("repro_net_push_build_us", "counter", "Event-loop microseconds spent building push payloads."),
    ("repro_net_pushes_held", "counter", "Commits whose push waited for the reply to their request."),
    ("repro_net_push_bytes_total", "counter", "Bytes of per-commit delta frames written to subscribers."),
]
RESTARTS = [
    ("repro_shard_restarts_total", "counter", "Dead shard workers restarted from their durability directories."),
]
RING = [
    ("repro_net_aggregate_deltas_pushed_total", "counter", "Folded aggregate delta frames enqueued, by ring."),
]

DURABLE_SINGLE = ENGINE + WORKLOAD + REBALANCE + SERVING + SNAPSHOT + DURABILITY + NET + RING
SHARDED_SERIAL = ENGINE + SHARDS + WORKLOAD + REBALANCE + SERVING + NET + RING
DURABLE_SHARDED = ENGINE + SHARDS + WORKLOAD + REBALANCE + SERVING + RESTARTS + NET + RING

#: The ``stats`` op reply's keys, which share the families' declarations.
NET_KEYS = {
    "connections_total", "connections_current", "connections_refused",
    "frames_received", "frames_sent", "requests_failed",
    "subscriptions_total", "subscribers_current", "deltas_pushed",
    "push_bytes", "resyncs", "commits_observed", "max_queue_depth",
    "http_requests", "aggregate_reads", "agg_subscriptions_total",
    "agg_subscribers_current", "agg_deltas_pushed", "agg_resyncs",
    "push_build_us", "pushes_held",
}
SERVING_KEYS = {"batches_applied", "reads_served", "retunes_applied", "reshards_applied"}

#: Samples that one commit seen by both subscribers fixes exactly.
DETERMINISTIC = {
    "repro_engine_version": "1",
    "repro_engine_epsilon": "0.5",
    "repro_workload_update_events": "1",
    "repro_workload_update_tuples": "2",
    "repro_rebalance_updates": "2",
    "repro_rebalance_batches": "1",
    "repro_rebalance_retunes": "0",
    "repro_serving_batches_applied": "1",
    "repro_serving_retunes_applied": "0",
    "repro_serving_reshards_applied": "0",
    "repro_net_subscriptions_total": "1",
    "repro_net_agg_subscriptions_total": "1",
    "repro_net_deltas_pushed": "1",
    "repro_net_agg_deltas_pushed": "1",
    "repro_net_commits_observed": "1",
    "repro_net_requests_failed": "0",
    "repro_net_http_requests": "1",
    'repro_net_aggregate_deltas_pushed_total{ring="sum"}': "1",
}


def header_lines(families):
    lines = []
    for name, mtype, help_text in families:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {mtype}")
    return lines


@contextlib.contextmanager
def scraped(engine):
    """Serve ``engine``, commit once past both subscriptions, then yield
    the ``GET /metrics`` page and the ``stats`` op reply."""
    serving = EngineServer(engine)
    handle = ServerThread(serving, ServerConfig()).start()
    try:
        with EngineClient("127.0.0.1", handle.port) as client:
            tuples = client.subscribe()
            sums = client.subscribe_aggregate(AggregateSpec("sum", "C", ("A",)))
            version = client.apply_batch([Update("R", (0, 0), 1), Update("S", (0, 3), 1)])
            assert tuples.wait_for_version(version)
            assert sums.wait_for_version(version)
            page = urllib.request.urlopen(
                f"http://127.0.0.1:{handle.port}/metrics", timeout=10
            ).read().decode("utf-8")
            yield page, client.server_stats()
    finally:
        handle.close()


def samples(page):
    values = {}
    for line in page.splitlines():
        if not line.startswith("#"):
            name, _, value = line.rpartition(" ")
            values[name] = value
    return values


def check(page, stats, families, extra):
    headers = [line for line in page.splitlines() if line.startswith("# ")]
    assert headers == header_lines(families)
    values = samples(page)
    assert list(values) == [name for name, _, _ in families[:-1]] + [
        'repro_net_aggregate_deltas_pushed_total{ring="sum"}'
    ]
    for name, value in {**DETERMINISTIC, **extra}.items():
        assert values[name] == value, name
    assert set(stats["net"]) == NET_KEYS
    assert set(stats["serving"]) == SERVING_KEYS
    assert stats["serving"]["batches_applied"] == 1
    assert stats["net"]["aggregate_reads"] == int(values["repro_aggregate_reads_total"])


def test_durable_single_engine_page(tmp_path):
    config = DurabilityConfig(str(tmp_path / "wal"), checkpoint_ratio=None)
    engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5, durability=config)
    engine.load(make_database())
    try:
        with scraped(engine) as (page, stats):
            check(
                page,
                stats,
                DURABLE_SINGLE,
                {
                    "repro_durability_checkpoints_written_total": "1",
                    "repro_durability_checkpoints_skipped_inflight_total": "0",
                    "repro_durability_checkpoint_failures_total": "0",
                },
            )
    finally:
        engine.close()


def test_served_sharded_engine_page():
    engine = ShardedEngine(PATH_QUERY, shards=2, executor="serial").load(make_database())
    try:
        with scraped(engine) as (page, stats):
            check(page, stats, SHARDED_SERIAL, {"repro_engine_shards": "2"})
    finally:
        engine.close()


def test_served_durable_sharded_engine_page(tmp_path):
    engine = ShardedEngine(
        PATH_QUERY, shards=2, executor="serial", durability=str(tmp_path / "wal")
    ).load(make_database())
    try:
        with scraped(engine) as (page, stats):
            check(
                page,
                stats,
                DURABLE_SHARDED,
                {"repro_engine_shards": "2", "repro_shard_restarts_total": "0"},
            )
    finally:
        engine.close()
