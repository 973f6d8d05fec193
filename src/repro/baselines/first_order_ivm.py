"""Baseline: classical first-order incremental view maintenance.

Classical IVM ([16] in the paper) materializes the query result and, on a
single-tuple update ``δR``, computes the *delta query* — the original query
with the updated atom replaced by the single-tuple delta — against the
current database, then merges it into the materialized result.  There is no
view hierarchy and no skew awareness: the delta query can touch ``O(N^{δ})``
(or worse) intermediate tuples for non-q-hierarchical queries, which is
exactly the "at least linear-time updates" behaviour the paper contrasts
against (Section 1 and Figure 5).  Complexity vs. the main engine:
``O(N^{w})`` preprocessing (a full join), ``O(1)`` enumeration delay from
the materialized result, and updates that are at least linear for
non-q-hierarchical queries — IVM^ε instead guarantees ``O(N^{δε})``
amortized updates at the price of ``O(N^{1−ε})`` delay.

Batched ingestion evaluates one delta query per batch *relation group*
(the grouped delta joined with the other relations' current state), which
is the natural batching of classical IVM and what makes the comparison
with the engine's batch path apples-to-apples.

Usage::

    from repro.baselines import FirstOrderIVMEngine
    from repro.workloads import path_query_database

    engine = FirstOrderIVMEngine("Q(A, C) = R(A, B), S(B, C)")
    engine.load(path_query_database(100, seed=1))
    engine.update("R", (1, 2), +1)           # one delta query
    engine.apply_batch([...])                # one delta query per relation
"""

from __future__ import annotations

from typing import Dict, Iterator, Tuple

from repro.baselines.base import BaselineEngine
from repro.data.schema import ValueTuple
from repro.data.update import Update, UpdateBatch, validate_groups
from repro.engine.evaluator import evaluate_query_naive
from repro.engine.join import fold_join


class FirstOrderIVMEngine(BaselineEngine):
    """Materialized result maintained with first-order delta queries."""

    name = "first-order-ivm"

    def _preprocess(self) -> None:
        self._result = evaluate_query_naive(self.query, self.database)

    def _apply_update(self, update: Update) -> None:
        self._apply_relation_delta(
            update.relation, {update.tuple: update.multiplicity}
        )

    def _apply_batch(self, batch: UpdateBatch) -> None:
        # One delta query per relation group: processing groups sequentially
        # keeps the delta rule exact (each group joins against the state that
        # already includes every previously processed group), so the final
        # result matches the one-by-one replay.  Validating the whole batch
        # first keeps rejection atomic across relation groups.
        batch.validate_against(self.database)
        for relation in batch.relations():
            self._apply_relation_delta(relation, dict(batch.delta_for(relation)))

    def _apply_relation_delta(self, relation: str, group: Dict[ValueTuple, int]) -> None:
        atom = self.query.atom_for_relation(relation)
        if atom is None:
            raise KeyError(
                f"relation {relation!r} does not occur in {self.query}"
            )
        # Reject malformed tuples and over-deletes before any state is
        # touched: the delta query is merged into the materialized result
        # *before* the base relation absorbs the group, so a late rejection
        # would leave the two inconsistent.
        validate_groups({relation: group}, self.database)
        base = self.database.relation(relation)
        siblings = [
            (other.variables, self.database.relation(other.relation))
            for other in self.query.atoms
            if other is not atom
        ]
        delta = fold_join(atom.variables, group, siblings, tuple(self.query.head))
        # apply the delta to the materialized result, then to the base relation
        self._result.apply_deltas(delta.items())
        base.apply_deltas(group.items())

    def enumerate(self) -> Iterator[Tuple[ValueTuple, int]]:
        self._require_loaded()
        return iter(self._result.items())
