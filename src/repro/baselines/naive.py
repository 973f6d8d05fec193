"""Baseline: full recomputation on every update.

This is the conceptually simplest dynamic strategy — after each single-tuple
update, recompute the full query result from scratch and keep it in a hash
index.  Preprocessing and update both cost a full join (``O(N^w)`` in the
worst case for width-``w`` queries), while enumeration is constant-delay from
the materialized result.  It anchors the "no incremental maintenance" corner
of the Figure 5 comparison and doubles as the ground-truth oracle in tests.

Batching is where recomputation catches up in practice: a batch applies all
net deltas first and recomputes *once*, so the amortized per-tuple cost drops
from ``O(N^w)`` to ``O(N^w / b)`` for batch size ``b`` — the classical
argument for why full-refresh systems ingest in large batches.

Usage::

    from repro.baselines import NaiveRecomputeEngine
    from repro.workloads import mixed_stream, path_query_database

    database = path_query_database(100, seed=1)
    engine = NaiveRecomputeEngine("Q(A, C) = R(A, B), S(B, C)")
    engine.load(database)
    engine.apply_batch(mixed_stream(database, 50, seed=2))  # one recompute
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.baselines.base import BaselineEngine
from repro.data.schema import ValueTuple
from repro.data.update import Update, UpdateBatch
from repro.engine.evaluator import evaluate_query_naive


class NaiveRecomputeEngine(BaselineEngine):
    """Recompute-from-scratch evaluation (static and dynamic)."""

    name = "recompute"

    def _preprocess(self) -> None:
        self._result = evaluate_query_naive(self.query, self.database)

    def _apply_update(self, update: Update) -> None:
        self.database.relation(update.relation).apply_delta(
            update.tuple, update.multiplicity
        )
        self._result = evaluate_query_naive(self.query, self.database)

    def _apply_batch(self, batch: UpdateBatch) -> None:
        batch.apply_to(self.database)
        self._result = evaluate_query_naive(self.query, self.database)

    def enumerate(self) -> Iterator[Tuple[ValueTuple, int]]:
        self._require_loaded()
        return iter(self._result.items())
