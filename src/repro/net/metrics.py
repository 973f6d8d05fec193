"""Prometheus text-format rendering of the serving layer's statistics.

The networked server answers plain ``GET /metrics`` HTTP requests on its
one listening port (see :class:`repro.net.server.EngineTCPServer`) with
the text exposition format (version 0.0.4): ``# HELP`` / ``# TYPE``
comment lines followed by ``name value`` samples.  The page is three
engine gauges (``repro_engine_version``, ``repro_engine_epsilon``,
``repro_engine_shards``) followed by every counter family the served
deployment has, in this order:

* :class:`~repro.adaptive.telemetry.WorkloadTelemetry` (``repro_workload_*``),
* :class:`~repro.ivm.rebalance.RebalanceStats` (``repro_rebalance_*``),
* :class:`~repro.core.serving.ServingStats` (``repro_serving_*``),
* :class:`~repro.snapshot.cow.CowStats` (``repro_snapshot_*``; single
  engines only),
* :class:`~repro.durability.manager.DurabilityStats`
  (``repro_durability_*``; durable single engines only),
* :class:`~repro.sharding.engine.ShardRestartStats`
  (``repro_shard_restarts_total``; durable sharded engines only),
* :class:`~repro.net.server.NetServerStats` (``repro_net_*``), then its
  per-ring breakdown as one labeled family.

Which counters a family has, and their exported names, types and help,
are declared once on the family (:mod:`repro.stats`); this module only
walks the families.  Only the stdlib is used; no Prometheus client
dependency.
"""

from __future__ import annotations

from typing import List, Mapping

from repro.snapshot.cow import CowStats
from repro.stats import Sample

#: The engine gauges: attribute, help.
_ENGINE_GAUGES = (
    ("version", "Engine version: count of committed ingestion events."),
    ("epsilon", "Current epsilon trade-off parameter."),
    ("shards", "Current shard count of the served fleet."),
)


def _fmt(value: float) -> str:
    """Render a sample value: integers without a trailing ``.0``."""
    number = float(value)
    if number.is_integer() and abs(number) < 1e15:
        return str(int(number))
    return repr(number)


def render_families(samples: List[Sample]) -> str:
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


def render_server_metrics(serving, net=None) -> str:
    """Render one Prometheus page for an :class:`EngineServer`.

    ``serving`` is the :class:`repro.core.serving.EngineServer`; ``net`` the
    optional :class:`~repro.net.server.NetServerStats` of the TCP front-end.
    Sources that are absent (no telemetry attached, engine not loaded yet,
    static engine without rebalance stats) are simply omitted.
    """
    engine = serving.engine
    samples: List[Sample] = []
    for attribute, help_text in _ENGINE_GAUGES:
        value = getattr(engine, attribute, None)
        if value is not None:
            samples.append((f"repro_engine_{attribute}", "gauge", help_text, float(value)))

    try:
        rebalance = engine.rebalance_stats
    except Exception:  # noqa: BLE001 - not loaded / static engine
        rebalance = None
    snapshot = getattr(engine, "snapshot_stats", None)
    families = (
        getattr(engine, "telemetry", None),
        rebalance,
        serving.stats,
        None if snapshot is None else CowStats.from_dict(snapshot),
        getattr(engine, "durability_stats", None),
        getattr(engine, "restart_stats", None),
        net,
    )
    for family in families:
        if family is not None:
            samples.extend(family.samples())

    page = render_families(samples)
    ring_deltas = net.ring_deltas() if net is not None else None
    if ring_deltas:
        page += render_labeled_family(
            "repro_net_aggregate_deltas_pushed_total",
            "counter",
            "Folded aggregate delta frames enqueued, by ring.",
            "ring",
            ring_deltas,
        )
    return page
