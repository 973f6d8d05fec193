"""Tests for the Union and Product algorithms and the result enumerator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, HierarchicalEngine
from repro.bench.timing import measure_enumeration_delay
from repro.engine import evaluate_query_naive
from repro.enumeration.union import CallbackSource, UnionIterator
from repro.query import parse_query
from tests.conftest import random_database, schemas_for


class _ListSource:
    """A deterministic union source backed by a dict of key → multiplicity."""

    def __init__(self, contents):
        self.contents = dict(contents)
        self._iter = iter(list(self.contents.items()))
        self.next_calls = 0

    def next(self):
        self.next_calls += 1
        return next(self._iter, None)

    def lookup(self, key):
        return self.contents.get(key, 0)


class TestUnionIterator:
    def drain(self, union):
        out = []
        while True:
            item = union.next()
            if item is None:
                return out
            out.append(item)

    def test_disjoint_sources(self):
        union = UnionIterator([_ListSource({(1,): 1}), _ListSource({(2,): 3})])
        assert dict(self.drain(union)) == {(1,): 1, (2,): 3}

    def test_overlapping_sources_sum_multiplicities(self):
        union = UnionIterator(
            [_ListSource({(1,): 1, (2,): 2}), _ListSource({(2,): 5, (3,): 1})]
        )
        result = dict(self.drain(union))
        assert result == {(1,): 1, (2,): 7, (3,): 1}

    def test_distinctness_with_three_sources(self):
        sources = [
            _ListSource({(1,): 1, (2,): 1}),
            _ListSource({(2,): 1, (3,): 1}),
            _ListSource({(1,): 1, (3,): 1, (4,): 1}),
        ]
        produced = self.drain(UnionIterator(sources))
        keys = [key for key, _ in produced]
        assert len(keys) == len(set(keys))
        assert dict(produced) == {(1,): 2, (2,): 2, (3,): 2, (4,): 1}

    def test_single_source_passthrough(self):
        union = UnionIterator([_ListSource({(5,): 2})])
        assert self.drain(union) == [((5,), 2)]

    def test_subset_source(self):
        """Second source contained in the first still enumerates everything once."""
        union = UnionIterator(
            [_ListSource({(1,): 1, (2,): 1, (3,): 1}), _ListSource({(2,): 1})]
        )
        assert dict(self.drain(union)) == {(1,): 1, (2,): 2, (3,): 1}

    def test_empty_sources(self):
        union = UnionIterator([_ListSource({}), _ListSource({})])
        assert self.drain(union) == []

    def test_lookup_sums_all_sources(self):
        union = UnionIterator([_ListSource({(1,): 1}), _ListSource({(1,): 4})])
        assert union.lookup((1,)) == 5
        assert union.lookup((9,)) == 0

    def test_requires_at_least_one_source(self):
        with pytest.raises(ValueError):
            UnionIterator([])

    def test_callback_source_adapter(self):
        items = iter([((1,), 1)])
        source = CallbackSource(lambda: next(items, None), lambda key: 1 if key == (1,) else 0)
        union = UnionIterator([source])
        assert self.drain(union) == [((1,), 1)]

    @given(
        contents=st.lists(
            st.dictionaries(
                st.tuples(st.integers(0, 6)), st.integers(1, 3), max_size=8
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_union_property(self, contents):
        """Union enumerates each key exactly once with the summed multiplicity."""
        union = UnionIterator([_ListSource(c) for c in contents])
        produced = self.drain(union)
        keys = [key for key, _ in produced]
        assert len(keys) == len(set(keys))
        expected = {}
        for c in contents:
            for key, mult in c.items():
                expected[key] = expected.get(key, 0) + mult
        assert dict(produced) == expected


class TestResultEnumerator:
    def make_engine(self, text, seed=1, size=30, epsilon=0.5, mode="dynamic"):
        database = random_database(schemas_for(text), tuples_per_relation=size, seed=seed)
        engine = HierarchicalEngine(text, epsilon=epsilon, mode=mode)
        engine.load(database)
        return engine, database

    def test_tuples_are_distinct(self):
        engine, _ = self.make_engine("Q(A, C) = R(A, B), S(B, C)")
        tuples = [tup for tup, _ in engine.enumerate()]
        assert len(tuples) == len(set(tuples))

    def test_tuples_follow_head_order(self):
        database = Database.from_dict(
            {"R": (("A", "B"), [(1, 10)]), "S": (("B", "C"), [(10, 7)])}
        )
        engine = HierarchicalEngine("Q(C, A) = R(A, B), S(B, C)", epsilon=0.5)
        engine.load(database)
        assert engine.result() == {(7, 1): 1}

    def test_multiplicities_match_naive(self):
        text = "Q(A) = R(A, B), S(B)"
        engine, database = self.make_engine(text, size=40)
        naive = evaluate_query_naive(parse_query(text), database).as_dict()
        assert engine.result() == naive

    def test_empty_result(self):
        database = Database.from_dict(
            {"R": (("A", "B"), [(1, 10)]), "S": (("B", "C"), [(99, 7)])}
        )
        engine = HierarchicalEngine("Q(A, C) = R(A, B), S(B, C)").load(database)
        assert engine.result() == {}
        assert engine.count_distinct() == 0

    def test_boolean_query_yields_single_tuple_with_count(self):
        database = Database.from_dict(
            {"R": (("A", "B"), [(1, 10), (2, 10)]), "S": (("B",), [(10,)])}
        )
        engine = HierarchicalEngine("Q() = R(A, B), S(B)").load(database)
        assert engine.result() == {(): 2}

    def test_cartesian_product_components(self):
        database = Database.from_dict(
            {"R": (("A", "B"), [(1, 10), (2, 11)]), "S": (("C", "D"), [(7, 0)])}
        )
        engine = HierarchicalEngine("Q(A, C) = R(A, B), S(C, D)").load(database)
        assert engine.result() == {(1, 7): 1, (2, 7): 1}

    def test_recorded_delays_are_collected(self):
        """Delays are timed in one place, from outside: one sample per
        ``next``, the exhausting one included."""
        engine, _ = self.make_engine("Q(A, C) = R(A, B), S(B, C)")
        delay, produced = measure_enumeration_delay(engine)
        assert produced == engine.count_distinct() >= 1
        assert delay.count == produced + 1
        assert not hasattr(engine.enumerate(), "recorded_delays")

    def test_enumeration_is_repeatable(self):
        engine, _ = self.make_engine("Q(A, C) = R(A, B), S(B, C)")
        assert engine.result() == engine.result()

    @pytest.mark.parametrize("epsilon", [0.0, 0.25, 0.5, 0.75, 1.0])
    def test_epsilon_does_not_change_the_result(self, epsilon):
        text = "Q(A, C) = R(A, B), S(B, C)"
        database = random_database(schemas_for(text), tuples_per_relation=40, seed=2)
        naive = evaluate_query_naive(parse_query(text), database).as_dict()
        engine = HierarchicalEngine(text, epsilon=epsilon).load(database)
        assert engine.result() == naive

    def test_iterating_engine_directly(self):
        engine, _ = self.make_engine("Q(A) = R(A, B), S(B)")
        assert dict(iter(engine)) == engine.result()
