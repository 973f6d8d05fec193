"""Snapshot-isolated reads over the IVM^ε engines.

Enumeration over the live engine walks mutable view state, so a reader and a
maintenance batch cannot overlap.  This package decouples them: a
:class:`Snapshot` is a cheaply-captured, immutable handle onto one engine
*version* (a monotonically increasing counter stamped by the maintenance
driver), answering ``enumerate()`` / ``result()`` / ``lookup()`` with the
same ordering guarantees as the live engine while updates keep flowing.

* :mod:`repro.snapshot.cow` — the copy-on-write machinery: a per-engine
  :class:`CowTracker` that freezes relation contents lazily, from whichever
  side (writer guard or snapshot read) touches them first;
* :mod:`repro.snapshot.versioned` — the :class:`Snapshot` handle: the
  captured tree shapes and relations its reads bind compiled plans to.

Entry points: :meth:`repro.core.api.HierarchicalEngine.snapshot`,
:meth:`repro.sharding.ShardedEngine.snapshot` (per-shard capture merged
through the canonical k-way merge), and the serving facade
:class:`repro.core.serving.EngineServer`.
"""

from repro.snapshot.cow import CowTracker, SnapshotState
from repro.snapshot.versioned import Snapshot, capture_snapshot

__all__ = [
    "CowTracker",
    "Snapshot",
    "SnapshotState",
    "capture_snapshot",
]
