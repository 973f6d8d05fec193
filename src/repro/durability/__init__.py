"""Durability: write-ahead logging, checkpoints, recovery, supervision.

The engine's views are expensive to build and cheap to lose: everything
lives in memory, so a process death costs the whole ε-partitioned state.
This package makes a dynamic engine *durable* behind one constructor
argument::

    engine = HierarchicalEngine(query, durability="/var/lib/repro/q1")
    engine.load(db)            # version-0 checkpoint + fresh WAL
    engine.apply_batch(batch)  # ingested, logged, fsynced, acked

    engine, report = HierarchicalEngine.recover("/var/lib/repro/q1")

Layout:

* :mod:`~repro.durability.wal` — length-prefixed, CRC32-checksummed redo
  records of accepted events, fsynced per commit; torn tails are
  detected and truncated on recovery.
* :mod:`~repro.durability.checkpoint` — atomic-rename snapshots of one
  engine version: base relations in insertion order plus the driver
  state (version, Definition-51 threshold base, counters, telemetry).
* :mod:`~repro.durability.manager` — the commit path: WAL append, the
  size-proportional checkpoint schedule (capture on the committing
  thread, write on a background writer; checkpoints only observe the
  engine), segment rotation, and retention.
* :mod:`~repro.durability.recovery` — newest valid checkpoint + WAL-tail
  replay through the normal ingestion paths, with the final version
  verified.
* :mod:`~repro.durability.crashpoints` — the fault-injection hooks the
  kill-anywhere conformance harness arms at every append/fsync/rename.
* :mod:`~repro.durability.supervisor` — watches a sharded deployment's
  worker processes and restart-and-recovers a dead shard from its own
  durability directory while the others keep serving.
"""

from repro.durability.crashpoints import (
    SITES,
    CrashPointInjector,
    SimulatedCrashError,
    current_injector,
    injected,
    install_injector,
)
from repro.durability.manager import (
    DurabilityConfig,
    DurabilityManager,
    DurabilityStats,
    coerce_config,
)
from repro.durability.recovery import RecoveryReport, recover_engine
from repro.durability.supervisor import ShardSupervisor

__all__ = [
    "SITES",
    "CrashPointInjector",
    "SimulatedCrashError",
    "current_injector",
    "injected",
    "install_injector",
    "DurabilityConfig",
    "DurabilityManager",
    "DurabilityStats",
    "coerce_config",
    "RecoveryReport",
    "recover_engine",
    "ShardSupervisor",
]
