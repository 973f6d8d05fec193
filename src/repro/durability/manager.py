"""The durability manager: the commit path between an engine and its disk.

:class:`DurabilityConfig` names a directory and a policy (fsync per
commit or not, how much WAL may accumulate per checkpoint byte, how many
checkpoints to keep); :class:`DurabilityManager` attaches that policy to
one loaded dynamic engine.  The engine calls ``commit(event, version)``
*after* its in-memory ingest succeeded — the WAL is a redo log of
**accepted** events, so a rejected over-delete is never logged and can
never poison a replay — and the commit returns only once the record is
flushed (and, with ``fsync=True``, fsynced).

Checkpointing is a pure **observer**: it reads the base relations and a
few scalars and changes nothing, so a durable engine is byte-identical —
enumeration order included — to a non-durable one fed the same events.
**The contract** for a recovered engine R and the never-crashed engine L
at the same version: identical ``version``, ε, ``threshold_base``, every
base relation's ``items()`` sequence (content *and* insertion order) and
``result()``, and ``check_invariants()`` passes on R; after the
maintenance driver's normalisation pass on both (a pure function of
exactly that list), identical enumeration order too.  *Raw* enumeration
order and rebalance counters of R vs L are not promised.

**The schedule is proportional to size** — a checkpoint is due once the
WAL bytes logged since the last one reach ``checkpoint_ratio`` × that
checkpoint's byte size — so checkpoint work is ``O(N)`` per ``Ω(N)``
logged bytes, ``O(1)`` amortised per update, and the replay tail is
bounded alike for 65-byte updates and 1.3 KB batches.  **The committing
thread pays a capture, not a checkpoint**: it copies the base relations,
rotates the WAL segment and hands the capture to the *checkpoint writer*
(a ``submit``/``drain`` object), which encodes, writes, fsyncs, renames
and only then prunes.  At most one checkpoint is in flight; a writer
failure is re-raised on the committing thread; pruning reasons only from
checkpoints renamed into place.  ``docs/architecture.md`` §12 has the
argument in full.

This module never imports :mod:`repro.core.api` — the engine owns the
manager, not the other way around; everything engine-shaped is
duck-typed.
"""

from __future__ import annotations

import json
import os
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Dict, Optional, Union

from repro.durability import checkpoint as ckpt
from repro.durability import wal as walmod
from repro.durability.crashpoints import crash_point


@dataclass(frozen=True)
class DurabilityConfig:
    """Where and how an engine persists itself.  Picklable (crosses pipes).

    ``fsync=False`` trades the per-commit fsync for OS-buffered flushes:
    an order of magnitude cheaper per tuple, but a crash may lose the
    tail that the OS had not written back yet — see the "when fsync
    batching loses" discussion in ``docs/architecture.md`` §12.
    A checkpoint is scheduled once the WAL bytes logged since the last
    one reach ``checkpoint_ratio`` × that checkpoint's size in bytes;
    ``checkpoint_ratio=None`` disables scheduled checkpoints (manual
    ``engine.checkpoint()`` calls still work).
    """

    directory: str
    fsync: bool = True
    checkpoint_ratio: Optional[float] = 1.0
    keep_checkpoints: int = 2

    def __post_init__(self) -> None:
        object.__setattr__(self, "directory", str(self.directory))
        if self.keep_checkpoints < 1:
            raise ValueError("keep_checkpoints must be >= 1")
        if self.checkpoint_ratio is not None and self.checkpoint_ratio < 0:
            raise ValueError("checkpoint_ratio must be >= 0 (or None)")

    @property
    def path(self) -> Path:
        return Path(self.directory)

    def for_shard(self, index: int) -> "DurabilityConfig":
        """The same policy in a per-shard subdirectory ``shard-<index>``."""
        return replace(self, directory=os.path.join(self.directory, f"shard-{index}"))

    def for_epoch(self, epoch: int) -> "DurabilityConfig":
        """The same policy in the fleet-epoch subdirectory ``epoch-<epoch>``.

        Epoch 0 is the pre-reshard layout (``shard-<i>`` directly under
        the root), kept for backward compatibility with PR 6 deployments;
        every reshard bumps the epoch and moves the fleet's per-shard
        directories under ``epoch-<epoch>/``.
        """
        if epoch == 0:
            return self
        return replace(self, directory=os.path.join(self.directory, f"epoch-{epoch}"))


#: Name of the fleet barrier record at the root of a sharded durability
#: directory.  Its atomic rename *is* the reshard commit point.
FLEET_META_NAME = "fleet.json"


def read_fleet_meta(directory: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """Read the fleet barrier record, or ``None`` when absent/unreadable.

    An unreadable record is treated as absent: the write is atomic
    (tmp + ``os.replace``), so a torn file can only be a pre-barrier
    stray tmp that leaked into place by an outside force — recovery then
    falls back to the constructed shard count, which is the epoch-0
    behavior.
    """
    path = Path(directory) / FLEET_META_NAME
    try:
        with open(path, "r", encoding="utf-8") as handle:
            meta = json.load(handle)
    except (OSError, ValueError):
        return None
    if not isinstance(meta, dict) or "shards" not in meta:
        return None
    return meta


def write_fleet_meta(
    directory: Union[str, Path], meta: Dict[str, Any], fsync: bool = True
) -> Path:
    """Atomically publish the fleet barrier record (the reshard barrier).

    The record becomes visible only at the ``os.replace`` — a crash
    before it leaves the old record (or none) in place, so recovery
    lands at exactly the old fleet; a crash after it lands at exactly
    the new fleet.  ``crash_point("reshard-barrier")`` models a death at
    the instant before the rename.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / FLEET_META_NAME
    tmp = directory / (FLEET_META_NAME + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(meta, sort_keys=True))
        handle.flush()
        if fsync:
            os.fsync(handle.fileno())
    crash_point("reshard-barrier")
    os.replace(tmp, path)
    return path


def coerce_config(
    durability: Union["DurabilityConfig", str, Path],
) -> "DurabilityConfig":
    """Accept a config, a directory string, or a :class:`~pathlib.Path`."""
    if isinstance(durability, DurabilityConfig):
        return durability
    return DurabilityConfig(directory=str(durability))


@dataclass
class DurabilityStats:
    """Durability counters and gauges (``repro_durability_*`` on ``/metrics``).

    The checkpoint fields are written by the checkpoint writer once a
    checkpoint is renamed into place.
    """

    wal_records: int = 0
    wal_bytes: int = 0
    checkpoints_written: int = 0
    checkpoints_skipped_inflight: int = 0
    checkpoint_failures: int = 0
    last_checkpoint_version: int = 0
    checkpoint_bytes: int = 0
    checkpoint_last_seconds: float = 0.0
    recovered_records: int = 0
    #: ``wal_bytes`` when the last checkpoint was captured, and the clock
    #: when it became durable — the two derived gauges count from these.
    checkpoint_wal_mark: int = 0
    checkpoint_time: float = 0.0

    @property
    def wal_bytes_since_checkpoint(self) -> int:
        """WAL bytes a recovery would replay on top of the last checkpoint."""
        return self.wal_bytes - self.checkpoint_wal_mark

    @property
    def checkpoint_age_seconds(self) -> float:
        return time.monotonic() - self.checkpoint_time


class CheckpointWriter:
    """Runs one checkpoint job at a time on a short-lived daemon thread.

    Nothing exists until a checkpoint is due and no thread outlives its
    job, so forked shard workers and engines dropped without ``close()``
    leave nothing behind.
    """

    def __init__(self) -> None:
        self._thread: Optional[threading.Thread] = None

    def submit(self, job: Callable[[], None]) -> None:
        self._thread = threading.Thread(target=job, name="repro-ckpt", daemon=True)
        self._thread.start()

    def drain(self) -> None:
        """Return once the submitted job, if any, has finished."""
        thread, self._thread = self._thread, None
        if thread is not None:
            thread.join()


class DurabilityManager:
    """Owns one engine's WAL writer, checkpoint schedule, and file rotation."""

    def __init__(self, engine, config: DurabilityConfig) -> None:
        self.engine = engine
        self.config = coerce_config(config)
        self.stats = DurabilityStats()
        #: ``submit(job)`` / ``drain()``; the crash harness swaps in a stepper
        self.writer = CheckpointWriter()
        self._wal: Optional[walmod.WalWriter] = None
        self._inflight = False
        self._failure: Optional[Exception] = None

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start_fresh(self) -> None:
        """Begin a new durable history for a freshly loaded engine.

        Wipes previous durability files in the directory (a re-``load``
        replaces the engine's state wholesale, so the old history can
        only mislead), writes the version-0 checkpoint — synchronously,
        on the calling thread — and opens the first WAL segment.
        """
        directory = self.config.path
        directory.mkdir(parents=True, exist_ok=True)
        for _, path in ckpt.find_checkpoints(directory):
            path.unlink()
        for _, path in walmod.wal_segments(directory):
            path.unlink()
        for stray in directory.glob("*.tmp"):
            stray.unlink()
        state = ckpt.engine_state(self.engine)
        self._write(state, 0)
        self._raise_failure()
        self._wal = walmod.WalWriter.create(
            directory / walmod.wal_name(int(state["version"])), fsync=self.config.fsync
        )

    def resume(
        self,
        checkpoint_version: int,
        checkpoint_bytes: int,
        segment_path: Optional[Path],
        valid_length: int,
        tail_bytes: int,
    ) -> None:
        """Attach to an engine recovery rebuilt and reopen its active segment.

        ``tail_bytes`` (the WAL recovery replayed) seeds ``wal_bytes``, so a
        restart earns no fresh allowance from the schedule.  Nothing can be
        in flight in a recovered directory: stray temp files are removed.
        """
        stats = self.stats
        stats.last_checkpoint_version = checkpoint_version
        stats.checkpoint_bytes = checkpoint_bytes
        stats.checkpoint_time = time.monotonic()
        stats.wal_bytes = tail_bytes
        directory = self.config.path
        if segment_path is None or valid_length < len(walmod.WAL_MAGIC):
            segment_path = directory / walmod.wal_name(self.engine.version)
            self._wal = walmod.WalWriter.create(segment_path, fsync=self.config.fsync)
        else:
            self._wal = walmod.WalWriter.resume(
                segment_path, valid_length, fsync=self.config.fsync
            )
        self._wal.bytes_written = tail_bytes
        for stray in directory.glob("*.tmp"):
            stray.unlink()
        self._cleanup()

    def close(self) -> None:
        """Drain the checkpoint writer, close the WAL, raise a stored failure."""
        self.writer.drain()
        if self._wal is not None:
            self._wal.close()
            self._wal = None
        self._raise_failure()

    # ------------------------------------------------------------------
    # the commit path
    # ------------------------------------------------------------------
    def _active_wal(self) -> walmod.WalWriter:
        if self._wal is None:
            raise ValueError("durability manager has no active WAL writer")
        return self._wal

    def commit(self, event, version: int) -> None:
        """Make one accepted event (update, batch or retune) durable at ``version``."""
        wal = self._active_wal()
        wal.append(walmod.encode(version, event))
        stats = self.stats
        stats.wal_records += 1
        stats.wal_bytes = wal.bytes_written
        # The record above is durable either way; a failure of the writer
        # surfaces here, after it, so memory and log never part ways.
        self._raise_failure()
        ratio = self.config.checkpoint_ratio
        since = stats.wal_bytes_since_checkpoint
        if ratio is None or since < ratio * stats.checkpoint_bytes:
            return
        if self._inflight:
            stats.checkpoints_skipped_inflight += 1
        else:
            self._submit()

    # ------------------------------------------------------------------
    # checkpoints
    # ------------------------------------------------------------------
    def checkpoint(self) -> Path:
        """Checkpoint now; returns once the file is durable and pruning done."""
        self.writer.drain()
        self._raise_failure()
        path = self._submit()
        self.writer.drain()
        self._raise_failure()
        return path

    def _submit(self) -> Path:
        """Capture the engine, rotate the WAL, hand the rest to the writer."""
        self._active_wal().close()
        state = ckpt.engine_state(self.engine)
        version = int(state["version"])
        wal_mark = self.stats.wal_bytes
        self._wal = walmod.WalWriter.create(
            self.config.path / walmod.wal_name(version), fsync=self.config.fsync
        )
        self._wal.bytes_written = wal_mark
        self._inflight = True
        self.writer.submit(lambda: self._write(state, wal_mark))
        return self.config.path / ckpt.checkpoint_name(version)

    def _write(self, state: Dict[str, Any], wal_mark: int) -> None:
        """The writer's job: persist one capture, then prune behind it."""
        started = time.perf_counter()
        stats = self.stats
        try:
            path = ckpt.write_checkpoint(
                self.config.path, state, fsync=self.config.fsync
            )
            stats.checkpoint_bytes = path.stat().st_size
            stats.checkpoint_wal_mark = wal_mark
            stats.checkpoint_time = time.monotonic()
            stats.last_checkpoint_version = int(state["version"])
            stats.checkpoints_written += 1
            self._cleanup()
            stats.checkpoint_last_seconds = time.perf_counter() - started
        except Exception as exc:  # noqa: BLE001 - re-raised by the committer
            stats.checkpoint_failures += 1
            self._failure = exc
        finally:
            self._inflight = False

    def _raise_failure(self) -> None:
        failure = self._failure
        if failure is not None:  # cleared only once seen: the writer sets it
            self._failure = None
            raise failure

    def _cleanup(self) -> None:
        """Prune checkpoints beyond the keep policy and retired WAL segments.

        Reasons only from checkpoints renamed into place.  A segment is
        retired only when recovery from the *oldest kept* checkpoint could
        never need it: all segments strictly before the last segment whose
        start version is ≤ that checkpoint's version.  (The crash site
        models a death between the rename and the pruning.)  Temp files are
        left alone: one may belong to a write in flight.
        """
        directory = self.config.path
        checkpoints = ckpt.find_checkpoints(directory)
        keep = checkpoints[-self.config.keep_checkpoints :]
        for _, path in checkpoints[: -self.config.keep_checkpoints]:
            crash_point("checkpoint-cleanup")
            path.unlink()
        if not keep:
            return
        oldest_kept = keep[0][0]
        segments = walmod.wal_segments(directory)
        last_covering = 0
        for index, (start, _) in enumerate(segments):
            if start <= oldest_kept:
                last_covering = index
        for start, path in segments[:last_covering]:
            crash_point("checkpoint-cleanup")
            path.unlink()
