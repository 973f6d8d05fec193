"""Metamorphic properties of update ingestion.

Differential testing needs an oracle; metamorphic testing needs only the
engine itself and an algebraic identity that must hold regardless of what
the correct result is.  The three identities here are the ones the batched
IVM pipeline leans on (and the ones incremental-view systems in the
DBToaster lineage classically check):

* **insert-then-delete is a no-op** — applying a stream and then its
  inversion in reverse order must restore the exact result (and keep every
  internal invariant intact);
* **permuting a consolidated batch is result-invariant** — a batch stores
  net per-relation deltas, so the order of the source updates (and hence
  the relation-group processing order) must not matter;
* **a partitioned stream equals the whole** — cutting a stream into
  consecutive consolidated chunks, or consolidating it into one batch,
  must land on the same final result as the one-tuple-at-a-time replay.

Each check takes an ``engine_factory`` so it runs identically against
:class:`~repro.core.api.HierarchicalEngine` at any ε and against every
baseline; both the Hypothesis test-suite and ``tools/fuzz.py`` drive these
functions over the degree-distribution knobs of
:mod:`repro.workloads.generators`.  Compositions — sharding, snapshots,
retuning, resharding, maintained aggregates — are not identities of one
engine; the differential run (:func:`repro.conformance.runner.run_case`)
checks them against the oracle.
"""

from __future__ import annotations

import random
from typing import Callable, Sequence

from repro.core.api import HierarchicalEngine
from repro.data.database import Database
from repro.data.update import Update

EngineFactory = Callable[[], object]


def _loaded(engine_factory: EngineFactory, database: Database):
    engine = engine_factory()
    engine.load(database)
    return engine


def _maybe_check_invariants(engine) -> None:
    if isinstance(engine, HierarchicalEngine):
        engine.check_invariants()


def check_insert_delete_noop(
    engine_factory: EngineFactory, database: Database, updates: Sequence[Update]
) -> None:
    """Applying ``updates`` then their reversed inversion restores the result."""
    engine = _loaded(engine_factory, database)
    before = dict(engine.result())
    for update in updates:
        engine.apply(update)
    for update in reversed(list(updates)):
        engine.apply(update.inverted())
    after = dict(engine.result())
    assert after == before, (
        "insert-then-delete round-trip changed the result: "
        f"{len(before)} tuples before, {len(after)} after"
    )
    _maybe_check_invariants(engine)


def check_batch_permutation_invariance(
    engine_factory: EngineFactory,
    database: Database,
    updates: Sequence[Update],
    rng: random.Random,
) -> None:
    """A consolidated batch must ingest identically under source-order permutation.

    Permuting the sources changes the first-touched relation order inside
    the batch, and with it the relation-group processing order of the
    batched maintenance path — the final result must not notice.
    """
    original = _loaded(engine_factory, database)
    original.apply_batch(list(updates))
    permuted_updates = list(updates)
    rng.shuffle(permuted_updates)
    permuted = _loaded(engine_factory, database)
    permuted.apply_batch(permuted_updates)
    assert dict(original.result()) == dict(permuted.result()), (
        "permuting a consolidated batch changed the result"
    )
    _maybe_check_invariants(original)
    _maybe_check_invariants(permuted)


def check_partition_union(
    engine_factory: EngineFactory,
    database: Database,
    updates: Sequence[Update],
    parts: int,
) -> None:
    """Chunked batches, one whole batch, and sequential replay must agree."""
    updates = list(updates)
    sequential = _loaded(engine_factory, database)
    for update in updates:
        sequential.apply(update)
    expected = dict(sequential.result())

    whole = _loaded(engine_factory, database)
    whole.apply_batch(updates)
    assert dict(whole.result()) == expected, (
        "consolidating the whole stream into one batch changed the result"
    )

    parts = max(1, parts)
    size = max(1, (len(updates) + parts - 1) // parts) if updates else 1
    chunked = _loaded(engine_factory, database)
    for start in range(0, len(updates), size):
        chunked.apply_batch(updates[start : start + size])
    assert dict(chunked.result()) == expected, (
        f"partitioning the stream into {parts} consolidated chunks changed the result"
    )
    for engine in (sequential, whole, chunked):
        _maybe_check_invariants(engine)
