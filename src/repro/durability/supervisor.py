"""Shard supervision: restart-and-recover a dead worker, keep serving.

A :class:`~repro.sharding.ShardedEngine` with a process executor loses a
whole shard when its worker dies (OOM killer, SIGKILL, a segfault in
native code).  With per-shard durability each worker logs its own WAL
and checkpoints into ``<directory>/shard-<i>``, so the shard's state
survives its process.  :class:`ShardSupervisor` closes the loop:

* the supervisor installs itself as the sharded engine's *round runner*:
  every shard round of the facade's one ingest protocol
  (:meth:`~repro.sharding.ShardedEngine._dispatch`) executes through
  :meth:`ShardSupervisor._run_round`, which tracks the per-shard versions
  it has seen acknowledged; routing, the validate round, the reshard tail
  buffer, the version tick and telemetry stay the facade's;
* a :class:`~repro.exceptions.WorkerDiedError` (a pipe breaking
  mid-command) triggers ``executor.restart_shard(i)`` — a fresh worker
  that *recovers* from the shard's durability directory instead of
  loading a database — while the other shards' pipes stay untouched;
* an interrupted read-only round is simply re-asked; an interrupted
  mutating round is reconciled per dead shard: if the recovered worker's
  version equals the version the supervisor last saw, the dying worker
  never made the command durable and it is re-sent; if it is one ahead,
  the command committed but its acknowledgement was lost with the
  process, and re-sending would double-apply — so it is skipped.  Any
  other version is a real divergence and raises
  :class:`~repro.exceptions.DurabilityError`.
* an optional watcher thread polls ``executor.dead_shards()`` so an
  *idle* worker's death is repaired before the next command trips on it.

Shard-local snapshots are in-memory copy-on-write state and die with the
worker: a :class:`~repro.sharding.engine.ShardedSnapshot` held across a
kill raises :class:`~repro.exceptions.StaleStateError` on its next read
touching the restarted shard — honest semantics, asserted by the
process-kill integration test — while a snapshot captured *after* the
recovery serves the same merged result as the never-killed oracle.

Only live rounds on the current fleet are guarded.  A worker of the *new*
fleet dying while a reshard builds it or replays the tail onto it is not
handled: the reshard raises and the caller aborts it, as before
supervision existed.  After a completed reshard the supervisor re-reads
the per-shard versions of the new fleet on its next round.

This module deliberately never imports :mod:`repro.sharding` at module
level (the sharded engine imports :mod:`repro.core.api`, which imports
this package); everything engine-shaped is duck-typed.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.data.update import Event, MutationSurface
from repro.exceptions import DurabilityError, WorkerDiedError


class ShardSupervisor(MutationSurface):
    """Routes commands to a sharded engine, repairing dead workers en route."""

    def __init__(self, engine, watch_interval: Optional[float] = None) -> None:
        engine._require_loaded()
        if engine.durability is None:
            raise DurabilityError(
                "the sharded engine has no durability directory; a dead "
                "shard could only be rebuilt empty"
            )
        self.engine = engine
        self.recoveries = 0
        self._lock = threading.RLock()
        self._versions: List[int] = list(engine.shard_versions())
        self._epoch: int = engine.epoch
        engine._run_round = self._run_round
        self._watch_interval = watch_interval
        self._stop = threading.Event()
        self._watcher: Optional[threading.Thread] = None
        if watch_interval is not None:
            self._watcher = threading.Thread(
                target=self._watch, name="repro-shard-supervisor", daemon=True
            )
            self._watcher.start()

    # ------------------------------------------------------------------
    # recovery plumbing
    # ------------------------------------------------------------------
    def _recover_shards(self, shard_indexes: Iterable[int]) -> None:
        executor = self.engine._require_loaded()
        for index in sorted(set(shard_indexes)):
            executor.restart_shard(index)
            self.recoveries += 1

    def _reconcile(self, shard: int, command: str, payload: Any) -> None:
        """Re-send or skip one interrupted mutation on a recovered shard."""
        executor = self.engine._require_loaded()
        durable = executor.call(shard, "version")
        expected = self._versions[shard]
        if durable == expected:
            # the dying worker never committed the command: re-send it
            executor.call(shard, command, payload)
        elif durable != expected + 1:
            raise DurabilityError(
                f"shard {shard} recovered at version {durable}, but the "
                f"supervisor last acknowledged {expected}; the shard's "
                "durability directory does not belong to this deployment"
            )

    def _run_round(
        self, executor, commands: Dict[int, Tuple[str, Any]], mutating: bool
    ) -> None:
        """One shard round of the facade's ingest protocol, repairing deaths.

        Survivors of an interrupted round already ran their command (the
        executor drains every live pipe before raising); each dead shard
        is restarted, then re-asked (read-only round) or reconciled by its
        durable version (mutating round).  Either way every commanded
        shard has acknowledged a mutating round exactly once afterwards.
        """
        if self.engine.epoch != self._epoch:
            # a reshard swapped the fleet: its shards count from their own 0
            self._versions = list(self.shard_versions())
            self._epoch = self.engine.epoch
        try:
            executor.map(commands)
        except WorkerDiedError as exc:
            self._recover_shards(exc.shard_indexes)
            for shard in exc.shard_indexes:
                if mutating:
                    self._reconcile(shard, *commands[shard])
                else:
                    executor.call(shard, *commands[shard])
        if mutating:
            for shard in commands:
                self._versions[shard] += 1

    def check_and_recover(self) -> List[int]:
        """Repair any currently-dead workers; returns the shards recovered."""
        with self._lock:
            executor = self.engine._require_loaded()
            dead = executor.dead_shards()
            if dead:
                self._recover_shards(dead)
            return dead

    def _watch(self) -> None:
        while not self._stop.wait(self._watch_interval):
            try:
                self.check_and_recover()
            except Exception:  # pragma: no cover - watcher must not die
                continue

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def commit(self, event: Event) -> None:
        """Commit one event on the sharded engine, recovering dead shards.

        The lock is held per commit, so a chunked ``apply_stream`` lets a
        watcher repair (or a reader recover) between chunks.
        """
        with self._lock:
            self.engine.commit(event)

    # ------------------------------------------------------------------
    # reads
    # ------------------------------------------------------------------
    def _read(self, operation):
        with self._lock:
            try:
                return operation()
            except WorkerDiedError as exc:
                self._recover_shards(exc.shard_indexes)
                return operation()

    def result(self) -> Dict[Tuple, int]:
        """Merged result; a dead shard is recovered and the read retried."""
        return self._read(self.engine.result)

    def enumerate(self) -> Iterator[Tuple[Tuple, int]]:
        """Materialized merged enumeration (recovering, hence not lazy)."""
        return iter(self._read(lambda: list(self.engine.enumerate())))

    def count_distinct(self) -> int:
        """Number of distinct result tuples across all shards."""
        return self._read(self.engine.count_distinct)

    def check_invariants(self) -> None:
        """Every shard's deep probe plus placement, with recovery retry."""
        self._read(self.engine.check_invariants)

    def snapshot(self):
        """Capture a sharded snapshot (recovering dead workers first).

        The capture is only as durable as the workers holding it: a
        worker killed later takes its shard's snapshot state with it, and
        reads through this handle then raise
        :class:`~repro.exceptions.StaleStateError`.
        """
        return self._read(self.engine.snapshot)

    def shard_versions(self) -> Tuple[int, ...]:
        """Every shard's own ingestion-event counter, in shard order."""
        return tuple(self._read(self.engine.shard_versions))

    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop the watcher and shut the sharded engine down."""
        self._stop.set()
        if self._watcher is not None:
            self._watcher.join(timeout=5)
            self._watcher = None
        self.engine.close()

    def __enter__(self) -> "ShardSupervisor":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
