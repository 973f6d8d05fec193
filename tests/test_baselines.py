"""Tests for the baseline engines (recompute, first-order IVM, full
materialization, free-connex views)."""

import pytest

from repro import Database, HierarchicalEngine
from repro.baselines import (
    FirstOrderIVMEngine,
    FreeConnexEngine,
    FullMaterializationEngine,
    NaiveRecomputeEngine,
)
from repro.engine import evaluate_query_naive
from repro.exceptions import ReproError, UnsupportedQueryError
from repro.query import parse_query
from repro.workloads import mixed_stream
from tests.conftest import random_database, schemas_for

PATH = "Q(A, C) = R(A, B), S(B, C)"
SEMIJOIN = "Q(A) = R(A, B), S(B)"
ALL_BASELINES = [NaiveRecomputeEngine, FirstOrderIVMEngine, FullMaterializationEngine]


def make_workload(text, seed=1):
    database = random_database(schemas_for(text), tuples_per_relation=25, seed=seed)
    stream = mixed_stream(database, 40, delete_fraction=0.3, domain=6, seed=seed + 1)
    return database, stream


class TestBaselineCorrectness:
    @pytest.mark.parametrize("engine_cls", ALL_BASELINES)
    @pytest.mark.parametrize("text", [PATH, SEMIJOIN])
    def test_static_result_matches_naive(self, engine_cls, text):
        database, _ = make_workload(text)
        truth = evaluate_query_naive(parse_query(text), database).as_dict()
        engine = engine_cls(text).load(database)
        assert engine.result() == truth

    @pytest.mark.parametrize("engine_cls", ALL_BASELINES)
    @pytest.mark.parametrize("text", [PATH, SEMIJOIN])
    def test_dynamic_result_matches_naive(self, engine_cls, text):
        database, stream = make_workload(text)
        engine = engine_cls(text).load(database)
        shadow = database.copy()
        for update in stream:
            engine.apply(update)
            shadow.relation(update.relation).apply_delta(update.tuple, update.multiplicity)
        truth = evaluate_query_naive(parse_query(text), shadow).as_dict()
        assert engine.result() == truth

    @pytest.mark.parametrize("engine_cls", ALL_BASELINES)
    def test_baselines_match_ivm_epsilon_engine(self, engine_cls):
        """All engines — ours and the baselines — agree on the same stream."""
        database, stream = make_workload(PATH, seed=4)
        baseline = engine_cls(PATH).load(database)
        ours = HierarchicalEngine(PATH, epsilon=0.5).load(database)
        for update in stream:
            baseline.apply(update)
            ours.apply(update)
        assert baseline.result() == ours.result()

    def test_update_before_load_raises(self):
        engine = NaiveRecomputeEngine(PATH)
        with pytest.raises(ReproError):
            engine.update("R", (1, 2), 1)

    @pytest.mark.parametrize("engine_cls", ALL_BASELINES)
    def test_baselines_refuse_retune(self, engine_cls):
        database, stream = make_workload(PATH)
        engine = engine_cls(PATH).load(database)
        before = engine.result()
        with pytest.raises(UnsupportedQueryError):
            engine.retune(0.25)
        assert engine.result() == before
        engine.apply_stream(stream, batch_size=7)  # still serves updates

    def test_preprocessing_time_recorded(self):
        database, _ = make_workload(PATH)
        engine = FirstOrderIVMEngine(PATH).load(database)
        assert engine.preprocessing_seconds is not None
        assert engine.preprocessing_seconds >= 0.0

    def test_first_order_ivm_unknown_relation(self):
        database, _ = make_workload(PATH)
        engine = FirstOrderIVMEngine(PATH).load(database)
        with pytest.raises(KeyError):
            engine.update("Z", (1, 2), 1)

    def test_full_materialization_reports_size(self):
        database, _ = make_workload(PATH)
        engine = FullMaterializationEngine(PATH).load(database)
        assert engine.materialized_size() == len(engine.result())

    def test_count_distinct_and_iteration(self):
        database, _ = make_workload(PATH)
        engine = NaiveRecomputeEngine(PATH).load(database)
        assert engine.count_distinct() == len(dict(iter(engine)))


class TestFreeConnexBaseline:
    def test_rejects_non_free_connex_queries(self):
        with pytest.raises(UnsupportedQueryError):
            FreeConnexEngine(PATH)

    def test_free_connex_query_accepted_and_correct(self):
        database, stream = make_workload(SEMIJOIN, seed=6)
        engine = FreeConnexEngine(SEMIJOIN).load(database)
        shadow = database.copy()
        for update in stream:
            engine.apply(update)
            shadow.relation(update.relation).apply_delta(update.tuple, update.multiplicity)
        truth = evaluate_query_naive(parse_query(SEMIJOIN), shadow).as_dict()
        assert engine.result() == truth

    def test_constant_update_flag_follows_q_hierarchy(self):
        assert not FreeConnexEngine(SEMIJOIN).supports_constant_updates
        assert FreeConnexEngine("Q(A, B) = R(A, B), S(A)").supports_constant_updates

    def test_static_variant(self):
        database, _ = make_workload(SEMIJOIN, seed=8)
        engine = FreeConnexEngine(SEMIJOIN, dynamic=False).load(database)
        truth = evaluate_query_naive(parse_query(SEMIJOIN), database).as_dict()
        assert engine.result() == truth
