"""Workload telemetry: what the engine actually pays per operation.

:class:`WorkloadTelemetry` is a thread-safe accumulator threaded through
the maintenance driver and the enumeration paths.  It records two kinds
of events:

* **updates** — every ingestion event (a single-tuple update or a whole
  consolidated batch) reports its source-update count and wall-clock cost,
  measured around the full maintenance pass *including* any minor/major
  rebalancing it triggered;
* **reads** — every enumeration reports how many tuples it produced and how
  long it ran; partial reads (a page of ``k`` tuples out of a large result)
  are recorded too, via generator finalization, so the read cost reflects
  what consumers actually paid rather than the full-result cost.

Besides raw totals the collector keeps exponentially weighted moving
averages: per-event update cost, per-event read cost, and the *read
fraction* — the EWMA of the event-kind indicator (1 for a read, 0 for a
write).  The read fraction is the phase detector of the adaptive ε
controller (:mod:`repro.adaptive.controller`): a write burst drives it
toward 0, a read-heavy serving phase toward 1, and the smoothing constant
``alpha`` sets how many events a phase shift takes to register.

Recording takes a lock: :class:`repro.core.serving.EngineServer` feeds
one collector from N reader threads plus the writer, and the
read-modify-write counter/EWMA updates would otherwise lose events.
Reads of the aggregates stay lock-free (a torn read of an EWMA is at
worst one event stale, which the smoothing already tolerates).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, Optional, Tuple

from repro.stats import LockedFamily, metric


@dataclass(eq=False)
class WorkloadTelemetry(LockedFamily):
    """EWMA-smoothed counters over the update and enumeration traffic
    (``repro_workload_*`` on ``/metrics``)."""

    PREFIX = "repro_workload"

    alpha: float = 0.4
    update_events: int = metric("Ingestion events recorded by the workload telemetry.")
    update_tuples: int = metric("Source tuples across all recorded ingestion events.")
    update_seconds: float = metric(
        "Wall-clock seconds spent in recorded ingestion.", default=0.0
    )
    read_events: int = metric("Enumeration events recorded by the workload telemetry.")
    read_tuples: int = metric("Tuples produced across all recorded enumerations.")
    read_seconds: float = metric(
        "Wall-clock seconds spent in recorded enumeration.", default=0.0
    )
    ewma_update_seconds: Optional[float] = metric(
        "EWMA-smoothed per-event ingestion cost.", "gauge", default=None
    )
    ewma_read_seconds: Optional[float] = metric(
        "EWMA-smoothed per-event enumeration cost.", "gauge", default=None
    )
    ewma_read_fraction: Optional[float] = metric(
        "EWMA-smoothed fraction of events that are reads.",
        "gauge",
        default=None,
        name="repro_workload_read_fraction",
        read=lambda telemetry: telemetry.read_fraction(),
    )

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must lie in (0, 1]")

    def reset(self) -> None:
        """Zero every counter and forget the moving averages."""
        self.restore_state(WorkloadTelemetry(self.alpha).as_dict())

    # ------------------------------------------------------------------
    def _smooth(self, previous: Optional[float], value: float) -> float:
        if previous is None:
            return value
        return previous + self.alpha * (value - previous)

    def record_update(self, tuples: int, seconds: float) -> None:
        """Record one ingestion event of ``tuples`` source updates."""
        with self._lock:
            self.update_events += 1
            self.update_tuples += tuples
            self.update_seconds += seconds
            self.ewma_update_seconds = self._smooth(
                self.ewma_update_seconds, seconds
            )
            self.ewma_read_fraction = self._smooth(self.ewma_read_fraction, 0.0)

    def record_read(self, tuples: int, seconds: float) -> None:
        """Record one enumeration (full or partial) of ``tuples`` tuples."""
        with self._lock:
            self.read_events += 1
            self.read_tuples += tuples
            self.read_seconds += seconds
            self.ewma_read_seconds = self._smooth(self.ewma_read_seconds, seconds)
            self.ewma_read_fraction = self._smooth(self.ewma_read_fraction, 1.0)

    def recorded_read(
        self, pairs: Iterable[Tuple[object, int]]
    ) -> Iterator[Tuple[object, int]]:
        """Yield from ``pairs``, recording the read when iteration ends.

        The ``finally`` clause runs on exhaustion AND on abandonment
        (generator close), so a page read that stops after ``k`` tuples
        still records its real cost.  Both enumeration paths — the single
        engine's :class:`~repro.enumeration.result.ResultEnumerator` and
        the sharded facade's merge — wrap their iteration in this helper.
        The clock includes consumer think-time between ``next()`` calls.
        """
        produced = 0
        started = time.perf_counter()
        try:
            for item in pairs:
                produced += 1
                yield item
        finally:
            self.record_read(produced, time.perf_counter() - started)

    # ------------------------------------------------------------------
    @property
    def events(self) -> int:
        """Total observed events of both kinds."""
        return self.update_events + self.read_events

    def read_fraction(self) -> float:
        """EWMA-smoothed share of reads in the recent event mix.

        Returns 0.5 before any event is observed — the neutral prior under
        which the cost model has no reason to move ε either way.
        """
        if self.ewma_read_fraction is None:
            return 0.5
        return self.ewma_read_fraction

    def state_dict(self) -> Dict[str, object]:
        """Exact, restorable state: :meth:`as_dict`, ``alpha`` included.

        The ``None`` EWMA seeds are preserved as ``None`` — restoring
        them as ``0.0`` would poison the first smoothed value after a
        recovery.  Used by the durability layer to carry telemetry across
        a checkpoint/restart cycle.
        """
        return self.as_dict()

    def restore_state(self, state: Dict[str, object]) -> None:
        """Overwrite every counter and EWMA from a :meth:`state_dict` dump."""
        with self._lock:
            for name, value in state.items():
                setattr(self, name, value)
