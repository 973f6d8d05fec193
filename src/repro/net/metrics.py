"""Prometheus text-format rendering of the serving layer's statistics.

The networked server answers plain ``GET /metrics`` HTTP requests on its
one listening port (see :class:`repro.net.server.EngineTCPServer`) with
the text exposition format (version 0.0.4): ``# HELP`` / ``# TYPE``
comment lines followed by ``name value`` samples.  The export flattens
six sources into one page:

* :class:`~repro.adaptive.telemetry.WorkloadTelemetry` — ingest/read
  traffic counters and EWMA costs (``repro_workload_*``),
* :class:`~repro.ivm.rebalance.RebalanceStats` — minor/major rebalances,
  heavy/light moves, retunes (``repro_rebalance_*``),
* :class:`~repro.core.serving.ServingStats` — commits, reads, auto-retunes
  served by the :class:`~repro.core.serving.EngineServer`
  (``repro_serving_*``),
* :attr:`~repro.core.api.HierarchicalEngine.snapshot_stats` — what the
  per-commit snapshot copy-on-write cost: whole-relation copies, the indexes
  they inherited, replayed redo-log entries (``repro_snapshot_*``; single
  engines only),
* :attr:`~repro.core.api.HierarchicalEngine.durability_stats` — how much
  WAL a recovery would replay, checkpoint age, the background writer's
  last duration, skips and failures (``repro_durability_*``; durable
  single engines only),
* the network layer's own counters (``repro_net_*``) plus engine gauges
  (``repro_engine_version``, ``repro_engine_epsilon``).

Only the stdlib is used; no Prometheus client dependency.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Tuple

#: (metric name, type, help) per family; values are looked up dynamically.
_Sample = Tuple[str, str, str, float]


def _fmt(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def render_families(samples: List[_Sample]) -> str:
    """Render ``(name, type, help, value)`` samples as exposition text."""
    lines: List[str] = []
    for name, mtype, help_text, value in samples:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {mtype}")
        lines.append(f"{name} {_fmt(value)}")
    return "\n".join(lines) + "\n"


def render_labeled_family(
    name: str,
    mtype: str,
    help_text: str,
    label: str,
    values: Mapping[str, float],
) -> str:
    """Render one family with a single label dimension (e.g. per-ring
    counters): one HELP/TYPE header, one sample per label value."""
    lines = [f"# HELP {name} {help_text}", f"# TYPE {name} {mtype}"]
    for label_value in sorted(values):
        escaped = str(label_value).replace("\\", "\\\\").replace('"', '\\"')
        lines.append(f'{name}{{{label}="{escaped}"}} {_fmt(values[label_value])}')
    return "\n".join(lines) + "\n"


def _prefixed(
    prefix: str,
    mapping: Mapping[str, float],
    types: Mapping[str, str],
    helps: Mapping[str, str],
) -> List[_Sample]:
    samples: List[_Sample] = []
    for key, value in mapping.items():
        name = f"{prefix}_{key}"
        samples.append(
            (
                name,
                types.get(key, "gauge"),
                helps.get(key, f"{key} from the {prefix} group."),
                float(value),
            )
        )
    return samples


_WORKLOAD_TYPES = {
    "update_events": "counter",
    "update_tuples": "counter",
    "update_seconds": "counter",
    "read_events": "counter",
    "read_tuples": "counter",
    "read_seconds": "counter",
}
_WORKLOAD_HELPS = {
    "update_events": "Ingestion events recorded by the workload telemetry.",
    "update_tuples": "Source tuples across all recorded ingestion events.",
    "update_seconds": "Wall-clock seconds spent in recorded ingestion.",
    "read_events": "Enumeration events recorded by the workload telemetry.",
    "read_tuples": "Tuples produced across all recorded enumerations.",
    "read_seconds": "Wall-clock seconds spent in recorded enumeration.",
    "ewma_update_seconds": "EWMA-smoothed per-event ingestion cost.",
    "ewma_read_seconds": "EWMA-smoothed per-event enumeration cost.",
    "read_fraction": "EWMA-smoothed fraction of events that are reads.",
}

_REBALANCE_HELPS = {
    "updates": "Single-tuple updates processed by the maintenance driver.",
    "batches": "Consolidated batches processed by the maintenance driver.",
    "minor_rebalances": "Minor (per-key) heavy/light rebalances.",
    "major_rebalances": "Major (full repartition) rebalances.",
    "moved_to_light": "Keys demoted from the heavy to the light partition.",
    "moved_to_heavy": "Keys promoted from the light to the heavy partition.",
    "retunes": "Explicit epsilon retunes (each is a major rebalance).",
}

_SERVING_HELPS = {
    "batches_applied": "Commits applied through the serving commit path.",
    "reads_served": "Read tickets served.",
    "retunes_applied": "Auto-retunes triggered by the adaptive controller.",
    "reshards_applied": "Online reshards applied through the serving layer.",
}

_SNAPSHOT_HELPS = {
    "full_copies": "Whole-relation copies made by snapshot copy-on-write.",
    "carried_indexes": "Indexes those copies inherited from the live relation.",
    "replayed_entries": "Redo-log entries replayed onto frozen snapshot copies.",
}

#: ``repro_durability_<name>`` -> help; the DurabilityStats attribute is the
#: name without its ``_total`` suffix.
_DURABILITY_HELPS = {
    "wal_bytes_since_checkpoint": "WAL bytes a recovery would replay.",
    "checkpoint_age_seconds": "Seconds since the last checkpoint became durable.",
    "checkpoint_last_seconds": "Write-and-prune time of the last checkpoint.",
    "checkpoints_written_total": "Checkpoints written.",
    "checkpoints_skipped_inflight_total": "Due checkpoints skipped: one in flight.",
    "checkpoint_failures_total": "Checkpoint writes that failed.",
}

_NET_HELPS = {
    "connections_total": "TCP connections accepted since server start.",
    "connections_current": "TCP connections currently open.",
    "connections_refused": "Connections refused at the connection limit.",
    "frames_received": "Protocol frames received across all connections.",
    "frames_sent": "Protocol frames sent across all connections.",
    "requests_failed": "Requests answered with an error frame.",
    "subscriptions_total": "Subscriptions opened since server start.",
    "subscribers_current": "Subscriptions currently active.",
    "deltas_pushed": "Per-commit delta frames enqueued to subscribers.",
    "push_bytes_total": "Bytes of per-commit delta frames written to subscribers.",
    "resyncs": "Slow-subscriber resyncs (queue overflow coalescing).",
    "commits_observed": "Engine commits observed by the push hub.",
    "max_queue_depth": "High-water mark of any subscriber send queue.",
    "http_requests": "Plain HTTP requests served on the shared port.",
    "agg_subscriptions_total": "Aggregate subscriptions opened since start.",
    "agg_subscribers_current": "Aggregate subscriptions currently active.",
    "agg_deltas_pushed": "Folded aggregate delta frames enqueued.",
    "agg_resyncs": "Slow aggregate-subscriber resyncs (queue overflow).",
}


def render_server_metrics(
    serving,
    net_stats: Optional[Mapping[str, float]] = None,
    ring_deltas: Optional[Mapping[str, float]] = None,
) -> str:
    """Render one Prometheus page for an :class:`EngineServer`.

    ``serving`` is the :class:`repro.core.serving.EngineServer`;
    ``net_stats`` is the optional flat counter dict of the TCP front-end;
    ``ring_deltas`` is the optional per-ring breakdown of pushed aggregate
    delta frames (rendered as one labeled family).  Sources that are
    absent (no telemetry attached, engine not loaded yet, static engine
    without rebalance stats) are simply omitted.
    """
    samples: List[_Sample] = []
    engine = serving.engine

    version = getattr(engine, "version", None)
    if version is not None:
        samples.append(
            (
                "repro_engine_version",
                "gauge",
                "Engine version: count of committed ingestion events.",
                float(version),
            )
        )
    epsilon = getattr(engine, "epsilon", None)
    if epsilon is not None:
        samples.append(
            (
                "repro_engine_epsilon",
                "gauge",
                "Current epsilon trade-off parameter.",
                float(epsilon),
            )
        )

    shards = getattr(engine, "shards", None)
    if shards is not None:
        samples.append(
            (
                "repro_engine_shards",
                "gauge",
                "Current shard count of the served fleet.",
                float(shards),
            )
        )

    telemetry = getattr(engine, "telemetry", None)
    if telemetry is not None:
        samples.extend(
            _prefixed(
                "repro_workload",
                telemetry.as_dict(),
                _WORKLOAD_TYPES,
                _WORKLOAD_HELPS,
            )
        )

    rebalance = None
    try:
        rebalance = engine.rebalance_stats
    except Exception:  # noqa: BLE001 - not loaded / static engine
        rebalance = None
    if rebalance is not None:
        samples.extend(
            _prefixed(
                "repro_rebalance",
                rebalance.as_dict(),
                {key: "counter" for key in _REBALANCE_HELPS},
                _REBALANCE_HELPS,
            )
        )

    stats = serving.stats
    samples.extend(
        _prefixed(
            "repro_serving",
            {
                "batches_applied": stats.batches_applied,
                "reads_served": stats.reads_served,
                "retunes_applied": stats.retunes_applied,
                "reshards_applied": stats.reshards_applied,
            },
            {key: "counter" for key in _SERVING_HELPS},
            _SERVING_HELPS,
        )
    )

    snapshot_stats = getattr(engine, "snapshot_stats", None)
    if snapshot_stats is not None:
        samples.extend(
            _prefixed(
                "repro_snapshot",
                snapshot_stats,
                {key: "counter" for key in _SNAPSHOT_HELPS},
                _SNAPSHOT_HELPS,
            )
        )

    durability = getattr(engine, "durability_stats", None)
    if durability is not None:
        for name, help_text in _DURABILITY_HELPS.items():
            attribute, total, _ = name.partition("_total")
            value = float(getattr(durability, attribute))
            mtype = "counter" if total else "gauge"
            samples.append((f"repro_durability_{name}", mtype, help_text, value))

    if net_stats is not None:
        net_stats = dict(net_stats)
        # The aggregate read counter gets the exact name the dashboards
        # key on rather than the generic repro_net_* prefix.
        aggregate_reads = net_stats.pop("aggregate_reads", None)
        if aggregate_reads is not None:
            samples.append(
                (
                    "repro_aggregate_reads_total",
                    "counter",
                    "Aggregate reads served (one-shot ops, subscription "
                    "snapshots, and resyncs).",
                    float(aggregate_reads),
                )
            )
        if "push_bytes" in net_stats:
            net_stats["push_bytes_total"] = net_stats.pop("push_bytes")
        net_types: Dict[str, str] = {
            key: "gauge"
            if key
            in (
                "connections_current",
                "subscribers_current",
                "agg_subscribers_current",
                "max_queue_depth",
            )
            else "counter"
            for key in net_stats
        }
        samples.extend(_prefixed("repro_net", net_stats, net_types, _NET_HELPS))

    page = render_families(samples)
    if ring_deltas:
        page += render_labeled_family(
            "repro_net_aggregate_deltas_pushed_total",
            "counter",
            "Folded aggregate delta frames enqueued, by ring.",
            "ring",
            ring_deltas,
        )
    return page
