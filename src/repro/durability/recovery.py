"""Crash recovery: newest valid checkpoint + WAL-tail replay, verified.

:func:`recover_engine` rebuilds a :class:`~repro.core.api.HierarchicalEngine`
from a durability directory:

1. **Checkpoint** — load the newest checkpoint that passes its CRC
   (corrupt crash residue falls back to the previous one), rebuild the
   base relations in their serialized insertion order, restore the
   driver's version / threshold base / counters / telemetry, and
   materialize the views at the restored threshold.
2. **WAL tail** — scan the segments that can hold records past the
   checkpoint (torn tails and corrupt records truncate the scan with a
   logged warning) and replay each record's event through the engine's
   one ingestion path, ``engine.commit(wal.decode(record))``; nothing is
   written meanwhile.  The checkpoint may
   be older than the newest WAL rotation (the process died with a
   checkpoint in flight): the chain of segments from the one covering
   it onward is replayed.
3. **Verify** — the replayed engine must land exactly on the last
   durable record's version; anything else is a
   :class:`~repro.exceptions.DurabilityError`, never a silent divergence.

What comes back equals the engine that never crashed in everything
durable — version, ε, threshold base, each base relation's content and
insertion order, the result — and, once both are normalised, in
enumeration order (the contract: :mod:`repro.durability.manager`).  It
has a live :class:`DurabilityManager` attached, appending to the
truncated active segment, so ``engine.apply(...)`` keeps committing
where the dead process stopped.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.durability import checkpoint as ckpt
from repro.durability import wal as walmod
from repro.durability.manager import (
    DurabilityConfig,
    DurabilityManager,
    coerce_config,
)
from repro.exceptions import DurabilityError


@dataclass
class RecoveryReport:
    """What one recovery did, for logs, tests, and the benchmark harness."""

    checkpoint_version: int
    replayed_records: int
    final_version: int
    truncated_bytes: int
    warnings: List[str] = field(default_factory=list)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "checkpoint_version": self.checkpoint_version,
            "replayed_records": self.replayed_records,
            "final_version": self.final_version,
            "truncated_bytes": self.truncated_bytes,
            "warnings": list(self.warnings),
        }


def scan_tail(
    directory: Path, after_version: int
) -> Tuple[List[Dict[str, Any]], Optional[Path], int, int, int, List[str]]:
    """Collect every durable WAL record with version > ``after_version``.

    Returns ``(records, active_segment, its valid_length, tail_bytes,
    truncated_bytes, warnings)`` — ``tail_bytes`` being the valid bytes
    of every scanned segment.  Only segments from the last one whose
    start version is ≤ ``after_version`` onward can hold such records
    (rotation happens at checkpoints); earlier ones are skipped.  Cross-
    segment version continuity is enforced — a discontinuity truncates
    the tail there, like any other corruption.
    """
    segments = walmod.wal_segments(Path(directory))
    first = 0
    for index, (start, _) in enumerate(segments):
        if start <= after_version:
            first = index
    records: List[Dict[str, Any]] = []
    warnings: List[str] = []
    truncated = 0
    tail_bytes = 0
    active_segment: Optional[Path] = None
    valid_length = 0
    last_version: Optional[int] = None
    for start, path in segments[first:]:
        scan = walmod.scan_wal(path, last_version=last_version)
        warnings.extend(scan.warnings)
        truncated += scan.truncated_bytes
        active_segment = path
        valid_length = scan.valid_length
        tail_bytes += valid_length
        if scan.records:
            last_version = int(scan.records[-1]["v"])
        elif last_version is None:
            last_version = start
        records.extend(
            record for record in scan.records if int(record["v"]) > after_version
        )
        if scan.truncated_bytes:
            # Everything past a defect is unreachable crash residue; a
            # later segment cannot legitimately continue from it.
            break
    return records, active_segment, valid_length, tail_bytes, truncated, warnings


def recover_engine(
    directory: Union[str, Path],
    durability: Optional[Union[DurabilityConfig, str, Path]] = None,
):
    """Rebuild the durable engine in ``directory``; returns ``(engine, report)``.

    ``durability`` overrides the config the recovered engine resumes
    with (fsync policy, checkpoint ratio, keep count); by default the
    directory itself with default policy.  Raises
    :class:`~repro.exceptions.DurabilityError` when the directory's
    contents cannot be a crash residue of this code (no valid checkpoint
    at all, a WAL that does not extend its checkpoint, or a replay that
    misses the expected final version).
    """
    from repro.core.api import HierarchicalEngine

    directory = Path(directory)
    config = coerce_config(durability if durability is not None else directory)
    try:
        state, checkpoint_path, ckpt_warnings = ckpt.load_newest_checkpoint(
            directory
        )
    except FileNotFoundError as exc:
        raise DurabilityError(str(exc)) from exc
    checkpoint_version = int(state["version"])

    engine = HierarchicalEngine(
        state["query"],
        epsilon=float(state["epsilon"]),
        mode=state["mode"],
        enable_rebalancing=bool(state["enable_rebalancing"]),
        copy_database=False,
        telemetry=False if state.get("telemetry") is None else True,
    )
    engine._restore_from_checkpoint(state)

    records, active_segment, valid_length, tail_bytes, truncated, warnings = (
        scan_tail(directory, checkpoint_version)
    )
    if records and int(records[0]["v"]) != checkpoint_version + 1:
        raise DurabilityError(
            f"WAL tail starts at version {records[0]['v']} but the checkpoint "
            f"is at {checkpoint_version}; the log does not extend the checkpoint"
        )

    for record in records:
        engine.commit(walmod.decode(record))

    final_version = int(records[-1]["v"]) if records else checkpoint_version
    if engine.version != final_version:
        raise DurabilityError(
            f"replay landed on version {engine.version}, expected {final_version}"
        )
    manager = DurabilityManager(engine, config)
    manager.stats.recovered_records = len(records)
    manager.resume(
        checkpoint_version,
        checkpoint_path.stat().st_size,
        active_segment,
        valid_length,
        tail_bytes,
    )
    engine._attach_durability(manager)
    report = RecoveryReport(
        checkpoint_version=checkpoint_version,
        replayed_records=len(records),
        final_version=final_version,
        truncated_bytes=truncated,
        warnings=[*ckpt_warnings, *warnings],
    )
    return engine, report
