"""Integration tests: dynamic maintenance equivalence with naive evaluation.

Theorem 4's algorithmic content is that the view trees stay equivalent to the
query result under arbitrary sequences of single-tuple updates; these tests
replay insert/delete streams against the engine and a shadow database and
compare after every few updates, across queries, ε values, and skew patterns,
including the rebalancing corner cases.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, DynamicEngine, HierarchicalEngine, Update, UpdateStream
from repro.engine import evaluate_query_naive
from repro.exceptions import RejectedUpdateError, ReproError
from repro.query import parse_query
from repro.workloads import (
    growth_stream,
    insert_stream_from_database,
    mixed_stream,
    skew_shift_stream,
)
from tests.conftest import PAPER_QUERIES, random_database, schemas_for

EPSILONS = [0.0, 0.5, 1.0]


def replay_and_check(text, database, stream, epsilon, check_every=7, **engine_kwargs):
    """Replay a stream on the engine and a shadow copy, comparing periodically."""
    query = parse_query(text)
    engine = HierarchicalEngine(text, epsilon=epsilon, mode="dynamic", **engine_kwargs)
    engine.load(database)
    shadow = database.copy()
    for index, update in enumerate(stream):
        engine.apply(update)
        shadow.relation(update.relation).apply_delta(update.tuple, update.multiplicity)
        if index % check_every == 0:
            assert engine.result() == evaluate_query_naive(query, shadow).as_dict(), (
                f"divergence at update {index} for ε={epsilon}"
            )
    assert engine.result() == evaluate_query_naive(query, shadow).as_dict()
    return engine


class TestDynamicEquivalence:
    @pytest.mark.parametrize(
        "name", ["path", "semijoin", "example18", "star2", "boolean", "qhier"]
    )
    @pytest.mark.parametrize("epsilon", EPSILONS)
    def test_mixed_streams_match_naive(self, name, epsilon):
        text = PAPER_QUERIES[name]
        database = random_database(schemas_for(text), tuples_per_relation=20, seed=3)
        stream = mixed_stream(database, 60, delete_fraction=0.3, domain=6, seed=11)
        replay_and_check(text, database, stream, epsilon)

    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0])
    def test_example19_under_updates(self, epsilon):
        text = PAPER_QUERIES["example19"]
        database = random_database(schemas_for(text), tuples_per_relation=15, seed=5)
        stream = mixed_stream(database, 40, delete_fraction=0.25, domain=5, seed=13)
        replay_and_check(text, database, stream, epsilon, check_every=5)

    def test_preprocessing_from_empty_database_by_inserts(self):
        """The paper notes preprocessing ≡ N single-tuple inserts into ∅."""
        text = PAPER_QUERIES["path"]
        full = random_database(schemas_for(text), tuples_per_relation=40, seed=7)
        empty = Database.from_dict({name: (cols, []) for name, cols in schemas_for(text).items()})
        engine = DynamicEngine(text, epsilon=0.5).load(empty)
        engine.apply_stream(insert_stream_from_database(full, seed=1))
        truth = evaluate_query_naive(parse_query(text), full).as_dict()
        assert engine.result() == truth

    def test_insert_then_delete_everything(self):
        text = PAPER_QUERIES["path"]
        database = random_database(schemas_for(text), tuples_per_relation=25, seed=9)
        engine = DynamicEngine(text, epsilon=0.5).load(database)
        for relation in database:
            for tup, mult in list(relation.items()):
                engine.update(relation.name, tup, -mult)
        assert engine.result() == {}
        assert engine.database.size == 0

    def test_duplicate_tuple_multiplicities(self):
        database = Database.from_dict(
            {"R": (("A", "B"), [(1, 10)]), "S": (("B", "C"), [(10, 5)])}
        )
        engine = DynamicEngine("Q(A, C) = R(A, B), S(B, C)", epsilon=0.5).load(database)
        engine.update("R", (1, 10), 2)  # multiplicity becomes 3
        assert engine.result() == {(1, 5): 3}
        engine.update("S", (10, 5), 4)  # multiplicity becomes 5
        assert engine.result() == {(1, 5): 15}

    def test_rejected_delete_raises_and_preserves_state(self):
        database = Database.from_dict(
            {"R": (("A", "B"), [(1, 10)]), "S": (("B", "C"), [(10, 5)])}
        )
        engine = DynamicEngine("Q(A, C) = R(A, B), S(B, C)").load(database)
        with pytest.raises(RejectedUpdateError):
            engine.update("R", (1, 10), -2)
        assert engine.result() == {(1, 5): 1}

    def test_update_before_load_raises(self):
        engine = DynamicEngine("Q(A, C) = R(A, B), S(B, C)")
        with pytest.raises(ReproError):
            engine.update("R", (1, 2), 1)

    def test_update_to_unknown_relation_raises(self):
        database = Database.from_dict(
            {"R": (("A", "B"), [(1, 10)]), "S": (("B", "C"), [(10, 5)])}
        )
        engine = DynamicEngine("Q(A, C) = R(A, B), S(B, C)").load(database)
        with pytest.raises(Exception):
            engine.update("Z", (1, 2), 1)

    def test_heavy_key_lifecycle(self):
        """Drive one join key light → heavy → light and stay correct throughout."""
        text = PAPER_QUERIES["path"]
        base = Database.from_dict(
            {
                "R": (("A", "B"), [(a, a % 3 + 10) for a in range(12)]),
                "S": (("B", "C"), [(b + 10, b) for b in range(3)]),
            }
        )
        stream = skew_shift_stream("R", 2, 40, hot_key=10, key_position=1, seed=3)
        engine = replay_and_check(text, base, stream, epsilon=0.5, check_every=4)
        stats = engine.rebalance_stats.as_dict()
        assert stats["updates"] == len(stream)

    def test_insert_and_delete_same_tuple_many_times(self):
        database = Database.from_dict(
            {"R": (("A", "B"), []), "S": (("B", "C"), [(0, 1)])}
        )
        engine = DynamicEngine("Q(A, C) = R(A, B), S(B, C)", epsilon=0.5).load(database)
        for _ in range(10):
            engine.update("R", (5, 0), 1)
            assert engine.result() == {(5, 1): 1}
            engine.update("R", (5, 0), -1)
            assert engine.result() == {}

    @pytest.mark.parametrize("enable_rebalancing", [True, False])
    def test_rebalancing_toggle_does_not_change_results(self, enable_rebalancing):
        text = PAPER_QUERIES["path"]
        database = random_database(schemas_for(text), tuples_per_relation=20, seed=21)
        stream = mixed_stream(database, 50, seed=22, domain=5)
        replay_and_check(
            text, database, stream, 0.5, enable_rebalancing=enable_rebalancing
        )

    def test_delta0_query_has_no_partitions(self):
        """q-hierarchical queries never partition (constant-time updates)."""
        text = PAPER_QUERIES["qhier"]
        database = random_database(schemas_for(text), tuples_per_relation=20, seed=2)
        engine = DynamicEngine(text).load(database)
        assert len(engine._skew_plan.partitions) == 0
        engine.update("R", (9, 9), 1)
        engine.update("S", (9,), 1)
        assert engine.result()[(9, 9)] == 1


class TestDynamicPropertyEquivalence:
    @given(
        initial=st.lists(
            st.tuples(st.sampled_from(["R", "S"]), st.integers(0, 3), st.integers(0, 3)),
            max_size=15,
        ),
        operations=st.lists(
            st.tuples(
                st.sampled_from(["R", "S"]),
                st.integers(0, 3),
                st.integers(0, 3),
                st.integers(-1, 2).filter(lambda m: m != 0),
            ),
            max_size=25,
        ),
        epsilon=st.sampled_from(EPSILONS),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_update_sequences_on_path_query(self, initial, operations, epsilon):
        """After any applicable update sequence, the engine equals naive evaluation."""
        text = "Q(A, C) = R(A, B), S(B, C)"
        database = Database.from_dict(
            {
                "R": (("A", "B"), [(a, b) for (n, a, b) in initial if n == "R"]),
                "S": (("B", "C"), [(a, b) for (n, a, b) in initial if n == "S"]),
            }
        )
        query = parse_query(text)
        engine = HierarchicalEngine(text, epsilon=epsilon, mode="dynamic").load(database)
        shadow = database.copy()
        for name, x, y, mult in operations:
            if shadow.relation(name).multiplicity((x, y)) + mult < 0:
                continue  # skip updates the engine would reject
            engine.update(name, (x, y), mult)
            shadow.relation(name).apply_delta((x, y), mult)
        assert engine.result() == evaluate_query_naive(query, shadow).as_dict()


class TestNoTreeWalksPerUpdate:
    """Which trees reference a relation is structure, fixed for a plan's
    lifetime: single-tuple updates must not walk the trees to find out
    again (counted, not timed)."""

    def test_single_updates_stop_walking_the_trees(self, monkeypatch):
        from repro.views.view import ViewTreeNode

        text = "Q(A, C) = R(A, B), S(B, C)"
        heavy = [(a, 0) for a in range(30)] + [(a, 1 + a % 3) for a in range(9)]
        database = Database.from_dict(
            {"R": (("A", "B"), heavy), "S": (("B", "C"), [(b, a) for a, b in heavy])}
        )
        engine = HierarchicalEngine(text, epsilon=0.5, enable_rebalancing=False)
        engine.load(database)
        assert engine._skew_plan.indicator_triples  # the plan has all three lookups

        walks = {"leaves": 0, "source_names": 0}
        for name in walks:
            original = getattr(ViewTreeNode, name)

            def counting(self, *args, _name=name, _original=original):
                walks[_name] += 1
                return _original(self, *args)

            monkeypatch.setattr(ViewTreeNode, name, counting)

        # heavy key, light keys and fresh keys, in and out again
        touched = [("R", (100 + i, i % 5)) for i in range(20)]
        touched += [("S", (i % 5, 200 + i)) for i in range(20)]
        touched += [("R", (300, 77)), ("S", (77, 300))]
        round_trip = [Update(n, t, 1) for n, t in touched]
        round_trip += [Update(n, t, -1) for n, t in reversed(touched)]
        for update in round_trip:
            engine.apply(update)
        assert walks["source_names"] > 0  # the first lookups did walk
        after_first_round = dict(walks)
        for _ in range(3):
            for update in round_trip:
                engine.apply(update)
        assert walks == after_first_round
        query = parse_query(text)
        assert engine.result() == evaluate_query_naive(query, database).as_dict()
