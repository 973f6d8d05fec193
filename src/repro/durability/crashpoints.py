"""Fault-injection hooks for the durability layer: crash *here*, on demand.

Every I/O step of the WAL and checkpoint writers calls
:func:`crash_point` with a site name from :data:`SITES` before (or, for
fsync sites, after) performing the real work.  In production the call is
a dictionary miss — no injector installed, nothing happens.  Tests
install a :class:`CrashPointInjector` (via :func:`install_injector`, the
:func:`injected` context manager, or the ``REPRO_CRASH_POINT``
environment variable, which also reaches worker *processes* because it
is read at import time) and the N-th hit of the armed site raises
:class:`SimulatedCrashError`, modeling a process death at exactly that
instruction.

The crash model is *process kill*, not power loss: bytes already handed
to the OS (flushed) survive, bytes still in the Python buffer do not,
and an ``os.replace`` either happened or did not.  The torn-tail site
(``wal-torn``) additionally writes *half* a record before dying so the
scan-and-truncate reader has something real to repair.

Two modes:

* **armed** — ``CrashPointInjector("wal-append", hits=3)`` raises on the
  third hit of ``wal-append``; the site ``"any"`` arms a countdown over
  *all* sites, which is what lets a harness enumerate every crash point
  of a workload without knowing the sites in advance.
* **recorder** — ``CrashPointInjector(None)`` never raises but counts
  hits per site; a counting pass over a workload yields the exhaustive
  sweep bound for the armed passes that follow.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Dict, Iterator, Optional

#: Every instrumented crash site, in the order a commit path reaches them.
SITES = (
    "wal-append",        # before any bytes of a WAL record are written
    "wal-torn",          # half the record's bytes written, then death
    "wal-fsync",         # after flush, before fsync returns
    "checkpoint-write",  # before any bytes of the checkpoint temp file
    "checkpoint-fsync",  # after the temp file is flushed, before fsync
    "checkpoint-rename", # before the atomic os.replace into place
    "checkpoint-cleanup",# after the rename, before old files are rotated
    "reshard-prepare",   # new fleet built, before the buffered tail replays
    "reshard-tail",      # between two tail events during reshard replay
    "reshard-barrier",   # before the fleet-meta os.replace (the barrier)
    "reshard-swap",      # after the barrier rename, before old-fleet cleanup
)

#: Environment variable read at import: ``"<site>:<hits>"``, e.g.
#: ``"wal-fsync:2"`` or ``"any:17"``.
ENV_VAR = "REPRO_CRASH_POINT"


class SimulatedCrashError(Exception):
    """An injected crash: the process "died" at an instrumented site.

    Deliberately **not** a :class:`~repro.exceptions.ReproError` — the
    library's own ``except ReproError`` handlers must treat it like a
    real ``SIGKILL`` (i.e. never see it), not like a library error.
    """

    def __init__(self, site: str, hit: int) -> None:
        self.site = site
        self.hit = hit
        super().__init__(f"simulated crash at {site} (hit {hit})")


class CrashPointInjector:
    """Counts crash-site hits and raises at an armed (site, hit) pair."""

    def __init__(self, site: Optional[str], hits: int = 1) -> None:
        if site is not None and site != "any" and site not in SITES:
            raise ValueError(f"unknown crash site {site!r}; expected one of {SITES}")
        if hits < 1:
            raise ValueError("hits must be >= 1")
        self.site = site
        self.hits = hits
        self.counts: Dict[str, int] = {name: 0 for name in SITES}
        self.fired = False

    @property
    def total_hits(self) -> int:
        """Total crash-site hits observed (the exhaustive-sweep bound)."""
        return sum(self.counts.values())

    def _armed_count(self) -> int:
        if self.site == "any":
            return self.total_hits
        return self.counts.get(self.site or "", 0)

    def peek(self, site: str) -> bool:
        """Would the *next* hit of ``site`` raise?  (No state change.)

        The torn-tail writer asks this before the write so it can emit
        half a record when the answer is yes.
        """
        if self.fired or self.site is None:
            return False
        if self.site not in ("any", site):
            return False
        return self._armed_count() + 1 >= self.hits

    def hit(self, site: str) -> None:
        """Record one hit of ``site``; raise if it is the armed one."""
        if site not in self.counts:
            raise ValueError(f"unknown crash site {site!r}")
        self.counts[site] += 1
        if self.fired or self.site is None:
            return
        if self.site in ("any", site) and self._armed_count() >= self.hits:
            self.fired = True
            raise SimulatedCrashError(site, self.counts[site])


_injector: Optional[CrashPointInjector] = None


def install_injector(injector: Optional[CrashPointInjector]) -> None:
    """Install ``injector`` process-wide (``None`` uninstalls)."""
    global _injector
    _injector = injector


@contextmanager
def injected(injector: CrashPointInjector) -> Iterator[CrashPointInjector]:
    """Install ``injector`` for the duration of the ``with`` block."""
    previous = _injector
    install_injector(injector)
    try:
        yield injector
    finally:
        install_injector(previous)


def crash_point(site: str) -> None:
    """Hook called by the WAL/checkpoint writers at every instrumented site."""
    if _injector is not None:
        _injector.hit(site)


def would_crash(site: str) -> bool:
    """True iff the next :func:`crash_point` call for ``site`` would raise."""
    return _injector is not None and _injector.peek(site)


def _injector_from_env() -> Optional[CrashPointInjector]:
    """Build an injector from ``REPRO_CRASH_POINT`` (worker-process path)."""
    spec = os.environ.get(ENV_VAR)
    if not spec:
        return None
    site, _, count = spec.partition(":")
    return CrashPointInjector(site, int(count) if count else 1)


# Worker processes cannot be monkeypatched from the test process; they
# inherit the environment instead, so an armed spec in REPRO_CRASH_POINT
# arms this process at import time.
if os.environ.get(ENV_VAR):  # pragma: no cover - exercised in subprocesses
    install_injector(_injector_from_env())
