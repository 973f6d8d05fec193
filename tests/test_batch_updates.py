"""Batched update ingestion: consolidation, equivalence, and rebalancing."""

from __future__ import annotations

import pytest

from repro import Database, DynamicEngine, StaticEngine, Update, UpdateBatch, UpdateStream
from repro.data.update import as_batch, iter_batches
from repro.engine import evaluate_query_naive
from repro.exceptions import UnsupportedQueryError
from repro.query import parse_query
from repro.workloads import growth_stream, mixed_stream, skew_shift_stream

from tests.conftest import random_database, schemas_for

PATH = "Q(A, C) = R(A, B), S(B, C)"


# ----------------------------------------------------------------------
# (b) net-effect consolidation
# ----------------------------------------------------------------------
class TestUpdateBatchConsolidation:
    def test_insert_delete_pairs_cancel(self):
        batch = UpdateBatch(
            [Update("R", (1, 2), 1), Update("R", (1, 2), -1)]
        )
        assert batch.is_empty()
        assert len(batch) == 0
        assert batch.source_count == 2
        assert batch.relations() == ()

    def test_same_tuple_deltas_merge(self):
        batch = UpdateBatch(
            [
                Update("R", (1, 2), 1),
                Update("R", (1, 2), 3),
                Update("R", (7, 8), -2),
            ]
        )
        assert dict(batch.delta_for("R")) == {(1, 2): 4, (7, 8): -2}
        assert batch.source_count == 3
        assert len(batch) == 2

    def test_groups_by_relation(self):
        batch = UpdateBatch(
            [
                Update("R", (1, 2), 1),
                Update("S", (2, 3), 1),
                Update("R", (4, 5), -1),
            ]
        )
        assert set(batch.relations()) == {"R", "S"}
        assert dict(batch.delta_for("S")) == {(2, 3): 1}
        assert sorted(
            (u.relation, u.tuple, u.multiplicity) for u in batch.updates()
        ) == [("R", (1, 2), 1), ("R", (4, 5), -1), ("S", (2, 3), 1)]

    def test_apply_to_database(self):
        database = Database.from_dict({"R": (("A", "B"), [(1, 2)])})
        batch = UpdateBatch(
            [Update("R", (1, 2), -1), Update("R", (3, 4), 2)]
        )
        batch.apply_to(database)
        assert database.relation("R").as_dict() == {(3, 4): 2}

    def test_as_batch_coercion(self):
        stream = UpdateStream([Update("R", (1, 2), 1)])
        batch = as_batch(stream)
        assert isinstance(batch, UpdateBatch)
        assert as_batch(batch) is batch

    def test_stream_batches_chunking(self):
        stream = UpdateStream(
            [Update("R", (i, i), 1) for i in range(10)]
        )
        batches = list(stream.batches(4))
        assert [b.source_count for b in batches] == [4, 4, 2]
        assert sum(len(b) for b in batches) == 10
        assert stream.consolidated().source_count == 10
        with pytest.raises(ValueError):
            list(iter_batches(stream, 0))


# ----------------------------------------------------------------------
# (a) batch ≡ sequential on randomized hierarchical workloads
# ----------------------------------------------------------------------
EQUIVALENCE_QUERIES = [
    "Q(A, C) = R(A, B), S(B, C)",
    "Q(A) = R(A, B), S(B)",
    "Q(Y0, Y1, Y2) = R0(X, Y0), R1(X, Y1), R2(X, Y2)",
    "Q(A, D, E) = R(A, B, C), S(A, B, D), T(A, E)",
]


class TestBatchSequentialEquivalence:
    @pytest.mark.parametrize("query_text", EQUIVALENCE_QUERIES)
    @pytest.mark.parametrize("batch_size", [1, 7, 64, 10_000])
    def test_matches_sequential_and_ground_truth(self, query_text, batch_size):
        database = random_database(
            schemas_for(query_text), tuples_per_relation=60, domain=12, seed=5
        )
        stream = mixed_stream(database, 150, seed=6, domain=12)

        sequential = DynamicEngine(query_text, epsilon=0.5).load(database)
        sequential.apply_stream(stream)

        batched = DynamicEngine(query_text, epsilon=0.5).load(database)
        for batch in stream.batches(batch_size):
            batched.apply_batch(batch)

        shadow = database.copy()
        stream.apply_to(shadow)
        truth = evaluate_query_naive(parse_query(query_text), shadow).as_dict()

        assert batched.result() == sequential.result() == truth
        # the deferred rebalance check restored every partition invariant
        batched._driver.check_partitions()
        for triple in batched._skew_plan.indicator_triples:
            assert triple.check_support()

    def test_apply_stream_batch_size_argument(self):
        database = random_database(schemas_for(PATH), seed=9)
        stream = mixed_stream(database, 80, seed=10, domain=8)
        chunked = DynamicEngine(PATH, epsilon=0.5).load(database)
        chunked.apply_stream(stream, batch_size=16)
        sequential = DynamicEngine(PATH, epsilon=0.5).load(database)
        sequential.apply_stream(stream)
        assert chunked.result() == sequential.result()
        assert chunked.rebalance_stats.batches == 5
        assert chunked.rebalance_stats.updates == 80

    def test_empty_and_cancelled_batches_are_noops(self):
        database = random_database(schemas_for(PATH), seed=11)
        engine = DynamicEngine(PATH, epsilon=0.5).load(database)
        before = engine.result()
        engine.apply_batch([])
        engine.apply_batch(
            [Update("R", (100, 100), 1), Update("R", (100, 100), -1)]
        )
        assert engine.result() == before
        assert engine.rebalance_stats.batches == 2
        assert engine.rebalance_stats.updates == 2

    def test_rejected_batch_is_all_or_nothing(self):
        from repro.exceptions import RejectedUpdateError

        database = Database.from_dict(
            {
                "R": (("A", "B"), [(1, 10), (2, 20)]),
                "S": (("B", "C"), [(10, 5), (20, 6)]),
            }
        )
        engine = DynamicEngine(PATH, epsilon=0.5).load(database)
        before_result = engine.result()
        before_r = engine.database.relation("R").as_dict()
        with pytest.raises(RejectedUpdateError):
            engine.apply_batch(
                [
                    Update("R", (3, 10), 1),      # valid insert...
                    Update("R", (9, 9), -1),      # ...but this over-deletes
                    Update("S", (10, 7), 1),
                ]
            )
        # the up-front validation rejected the batch before any mutation
        assert engine.database.relation("R").as_dict() == before_r
        assert engine.result() == before_result

    def test_apply_batch_requires_dynamic_mode(self):
        database = random_database(schemas_for(PATH), seed=12)
        engine = StaticEngine(PATH, epsilon=0.5)
        engine.load(database)
        with pytest.raises(UnsupportedQueryError):
            engine.apply_batch([Update("R", (1, 2), 1)])

    @pytest.mark.parametrize("query_text", EQUIVALENCE_QUERIES[:2])
    def test_baselines_batched_match_ground_truth(self, query_text):
        from repro.baselines import (
            FirstOrderIVMEngine,
            NaiveRecomputeEngine,
        )

        database = random_database(
            schemas_for(query_text), tuples_per_relation=40, domain=10, seed=13
        )
        stream = mixed_stream(database, 90, seed=14, domain=10)
        shadow = database.copy()
        stream.apply_to(shadow)
        truth = evaluate_query_naive(parse_query(query_text), shadow).as_dict()
        for factory in (FirstOrderIVMEngine, NaiveRecomputeEngine):
            engine = factory(query_text)
            engine.load(database)
            engine.apply_stream(stream, batch_size=25)
            assert engine.result() == truth, factory.name

    def test_free_connex_baseline_batched(self):
        from repro.baselines import FreeConnexEngine

        query_text = "Q(A, B) = R(A, B), S(B, C)"
        database = random_database(
            schemas_for(query_text), tuples_per_relation=40, domain=10, seed=15
        )
        stream = mixed_stream(database, 90, seed=16, domain=10)
        shadow = database.copy()
        stream.apply_to(shadow)
        truth = evaluate_query_naive(parse_query(query_text), shadow).as_dict()
        engine = FreeConnexEngine(query_text)
        engine.load(database)
        engine.apply_stream(stream, batch_size=30)
        assert engine.result() == truth


# ----------------------------------------------------------------------
# (c) deferred rebalancing across batch boundaries
# ----------------------------------------------------------------------
class TestBatchRebalancing:
    def _skewed_engine(self):
        database = Database.from_dict(
            {
                "R": (("A", "B"), [(i, i % 4) for i in range(24)]),
                "S": (("B", "C"), [(i % 4, i) for i in range(24)]),
            }
        )
        return DynamicEngine(PATH, epsilon=0.5).load(database)

    def test_minor_rebalance_fires_when_batch_crosses_threshold(self):
        engine = self._skewed_engine()
        # pile one join key far past the heavy threshold inside single batches
        stream = skew_shift_stream("R", 2, 160, hot_key=3, seed=17)
        for batch in stream.batches(40):
            engine.apply_batch(batch)
        stats = engine.rebalance_stats
        assert stats.minor_rebalances > 0
        assert stats.moved_to_heavy > 0
        # the key came back below the threshold at the end of the stream
        assert stats.moved_to_light > 0
        engine._driver.check_partitions()

    def test_major_rebalance_fires_when_batch_outgrows_threshold_base(self):
        engine = self._skewed_engine()
        driver = engine._driver
        base_before = driver.threshold_base
        # one batch that more than doubles the database blows the size
        # invariant ⌊M/4⌋ ≤ N < M; the deferred check must double M (possibly
        # several times) and run exactly one major rebalance for the batch.
        stream = growth_stream("R", 2, 4 * base_before, domain=10_000, seed=18)
        engine.apply_batch(stream)
        stats = engine.rebalance_stats
        assert stats.major_rebalances == 1
        assert stats.batches == 1
        assert driver.threshold_base > 2 * base_before
        assert driver._size_invariant_holds()
        engine._driver.check_partitions()
        # result still matches ground truth after the rebuild
        shadow = engine.database.copy()
        truth = evaluate_query_naive(parse_query(PATH), shadow).as_dict()
        assert engine.result() == truth

    def test_shrinking_batch_halves_threshold_base(self):
        database = Database.from_dict(
            {
                "R": (("A", "B"), [(i, i) for i in range(64)]),
                "S": (("B", "C"), [(i, i) for i in range(64)]),
            }
        )
        engine = DynamicEngine(PATH, epsilon=0.5).load(database)
        driver = engine._driver
        base_before = driver.threshold_base
        deletes = [Update("R", (i, i), -1) for i in range(64)]
        deletes += [Update("S", (i, i), -1) for i in range(60)]
        engine.apply_batch(deletes)
        assert driver.threshold_base < base_before
        assert driver._size_invariant_holds()
        assert engine.rebalance_stats.major_rebalances == 1
        assert engine.result() == {}
