"""Tests for minor/major rebalancing and the size-invariant bookkeeping."""

import pytest

from repro import Database, DynamicEngine, Update
from repro.engine import evaluate_query_naive
from repro.query import parse_query
from repro.workloads import growth_stream, insert_stream_from_database, skew_shift_stream
from tests.conftest import random_database, schemas_for

PATH = "Q(A, C) = R(A, B), S(B, C)"


def empty_path_database():
    return Database.from_dict({"R": (("A", "B"), []), "S": (("B", "C"), [])})


class TestMajorRebalancing:
    def test_growth_triggers_major_rebalancing(self):
        """Starting from an empty database, M = 1, so inserts must double M."""
        engine = DynamicEngine(PATH, epsilon=0.5).load(empty_path_database())
        stream = growth_stream("R", 2, 80, domain=40, seed=1)
        engine.apply_stream(stream)
        stats = engine.rebalance_stats
        assert stats.major_rebalances >= 3
        # size invariant ⌊M/4⌋ ≤ N < M holds after the stream
        size = engine.database.size
        base = engine._driver.threshold_base
        assert base // 4 <= size < base

    def test_shrink_triggers_major_rebalancing(self):
        database = random_database(schemas_for(PATH), tuples_per_relation=60, seed=5, domain=50)
        engine = DynamicEngine(PATH, epsilon=0.5).load(database)
        # delete almost everything: the database must fall below ⌊M/4⌋
        deletions = [
            Update(name, tup, -mult)
            for name in ("R", "S")
            for tup, mult in list(database.relation(name).items())
        ]
        for update in deletions[: len(deletions) - 2]:
            engine.apply(update)
        assert engine.rebalance_stats.major_rebalances >= 1
        size = engine.database.size
        base = engine._driver.threshold_base
        assert base // 4 <= size < base

    def test_results_stay_correct_across_major_rebalances(self):
        query = parse_query(PATH)
        engine = DynamicEngine(PATH, epsilon=0.5).load(empty_path_database())
        shadow = empty_path_database()
        stream = growth_stream("R", 2, 50, domain=6, seed=2)
        extra = growth_stream("S", 2, 50, domain=6, seed=3)
        for r_update, s_update in zip(stream, extra):
            for update in (r_update, s_update):
                engine.apply(update)
                shadow.relation(update.relation).apply_delta(update.tuple, update.multiplicity)
        assert engine.rebalance_stats.major_rebalances >= 3
        assert engine.result() == evaluate_query_naive(query, shadow).as_dict()

    def test_partitions_strict_after_major_rebalance(self):
        engine = DynamicEngine(PATH, epsilon=0.5).load(empty_path_database())
        engine.apply_stream(growth_stream("R", 2, 64, domain=8, seed=4))
        # right after the last major rebalancing the loose invariant must hold
        engine.check_invariants()


class TestMinorRebalancing:
    def test_hot_key_moves_to_heavy_and_back(self):
        database = Database.from_dict(
            {
                "R": (("A", "B"), [(a, a) for a in range(30)]),
                "S": (("B", "C"), [(b, b) for b in range(30)]),
            }
        )
        engine = DynamicEngine(PATH, epsilon=0.5).load(database)
        stream = skew_shift_stream("R", 2, 60, hot_key=0, key_position=1, seed=6)
        query = parse_query(PATH)
        shadow = database.copy()
        for update in stream:
            engine.apply(update)
            shadow.relation(update.relation).apply_delta(update.tuple, update.multiplicity)
        stats = engine.rebalance_stats
        assert stats.moved_to_heavy > 0
        assert stats.moved_to_light > 0
        assert engine.result() == evaluate_query_naive(query, shadow).as_dict()
        engine.check_invariants()

    def test_indicator_supports_stay_consistent(self):
        database = Database.from_dict(
            {
                "R": (("A", "B"), [(a, a % 4) for a in range(40)]),
                "S": (("B", "C"), [(b % 4, b) for b in range(40)]),
            }
        )
        engine = DynamicEngine(PATH, epsilon=0.5).load(database)
        stream = skew_shift_stream("R", 2, 40, hot_key=1, key_position=1, seed=8)
        for update in stream:
            engine.apply(update)
            for triple in engine._skew_plan.indicator_triples:
                assert triple.check_support()

    def test_rebalancing_disabled_skips_all_rebalances(self):
        engine = DynamicEngine(PATH, epsilon=0.5, enable_rebalancing=False).load(
            empty_path_database()
        )
        engine.apply_stream(growth_stream("R", 2, 60, domain=6, seed=9))
        stats = engine.rebalance_stats
        assert stats.major_rebalances == 0
        assert stats.minor_rebalances == 0

    def test_epsilon_zero_has_threshold_one(self):
        """With ε = 0 the threshold is 1: every existing key is heavy."""
        database = random_database(schemas_for(PATH), tuples_per_relation=20, seed=3)
        engine = DynamicEngine(PATH, epsilon=0.0).load(database)
        assert engine.threshold == pytest.approx(1.0)
        for partition in engine._skew_plan.partitions:
            assert len(partition.light) == 0

    def test_epsilon_one_keeps_everything_light_on_uniform_data(self):
        database = Database.from_dict(
            {
                "R": (("A", "B"), [(a, a) for a in range(20)]),
                "S": (("B", "C"), [(b, b) for b in range(20)]),
            }
        )
        engine = DynamicEngine(PATH, epsilon=1.0).load(database)
        for partition in engine._skew_plan.partitions:
            assert len(partition.light) == len(partition.base)


class TestRebalanceStats:
    def test_stats_dictionary_shape(self):
        engine = DynamicEngine(PATH, epsilon=0.5).load(empty_path_database())
        engine.update("R", (1, 2), 1)
        stats = engine.rebalance_stats.as_dict()
        assert set(stats) == {
            "updates",
            "batches",
            "minor_rebalances",
            "major_rebalances",
            "moved_to_light",
            "moved_to_heavy",
            "retunes",
        }
        assert stats["updates"] == 1


class TestThresholdSingleSourceOfTruth:
    """Satellite: core/api.py and ivm/rebalance.py must agree on θ, always."""

    def _live_size_threshold(self, engine):
        """The formula api.py used to recompute — kept here to prove it drifts."""
        return max(1.0, float(engine.database.size)) ** engine.epsilon

    def test_threshold_identical_across_a_doubling_boundary(self):
        """Insert past M: engine and driver report one θ at every point."""
        engine = DynamicEngine(PATH, epsilon=0.5).load(
            random_database(schemas_for(PATH), tuples_per_relation=8, seed=2)
        )
        driver = engine._driver
        base_before = driver.threshold_base
        drifted_somewhere = False
        for i in range(2 * base_before):
            engine.update("R", (1000 + i, i % 7), 1)
            # both public code paths and the Definition 51 derivation agree
            assert engine.threshold == driver.threshold
            assert engine.threshold == engine.threshold_base**engine.epsilon
            assert engine.threshold_base == driver.threshold_base
            # invariant probe consumes the same θ internally
            engine.check_invariants()
            if self._live_size_threshold(engine) != driver.threshold:
                drifted_somewhere = True
        assert driver.threshold_base > base_before  # the boundary was crossed
        assert engine.rebalance_stats.major_rebalances >= 1
        # the regression this guards against: a live-size recomputation
        # disagrees with the driver's M between rebalances, so any code
        # path using it would classify keys inconsistently
        assert drifted_somewhere

    def test_threshold_identical_across_retune(self):
        engine = DynamicEngine(PATH, epsilon=0.25).load(
            random_database(schemas_for(PATH), tuples_per_relation=30, seed=4)
        )
        engine.retune(0.75)
        assert engine.threshold == engine._driver.threshold
        assert engine.threshold_base == engine._driver.threshold_base

    def test_static_threshold_frozen_at_load(self):
        """Static mode pins θ at materialization time; later mutation of a
        shared database must not drift the reported threshold."""
        from repro import HierarchicalEngine

        database = random_database(schemas_for(PATH), tuples_per_relation=20, seed=6)
        engine = HierarchicalEngine(
            PATH, epsilon=0.5, mode="static", copy_database=False
        ).load(database)
        frozen = engine.threshold
        assert frozen == engine.threshold_base**0.5
        database.relation("R").insert((999, 999))
        assert engine.threshold == frozen


class TestEpsilonBoundaryClassification:
    """Satellite: θ ∈ {1, 2} — strict and loose classification must agree.

    With integer degrees the loose bounds θ/2 and 3θ/2 leave no room for
    oscillation: a key moves to heavy exactly when its light degree reaches
    ⌈3θ/2⌉, never moves back above θ/2, and a strict repartition is a fixed
    point of the minor-rebalance check.  These tests pin the audited
    boundary semantics at the two smallest thresholds, where an off-by-one
    between ``<`` and ``>=`` would make minor rebalancing oscillate.
    """

    def _engine_with_threshold(self, theta):
        import math

        database = Database.from_dict(
            {
                "R": (("A", "B"), [(i, 100 + i) for i in range(6)]),
                "S": (("B", "C"), [(100 + i, i) for i in range(6)]),
            }
        )
        size = database.size
        base = 2 * size + 1
        epsilon = 0.0 if theta == 1 else math.log(theta) / math.log(base)
        engine = DynamicEngine(PATH, epsilon=epsilon).load(database)
        assert engine.threshold == pytest.approx(theta)
        return engine

    def _r_partition(self, engine):
        return next(
            partition
            for partition in engine._skew_plan.partitions.partitions()
            if partition.base.name == "R"
        )

    @pytest.mark.parametrize("theta", [1, 2])
    def test_boundary_degrees_move_exactly_once(self, theta):
        """Degree 0→5→0: light at 1, heavy at ⌈3θ/2⌉, gone at 0 — no churn."""
        engine = self._engine_with_threshold(theta)
        partition = self._r_partition(engine)
        key = (55,)
        move_up = 2 if theta == 1 else 3  # smallest integer ≥ 3θ/2
        observed = []
        state = None
        for tup, mult in [((i, 55), 1) for i in range(5)] + [
            ((i, 55), -1) for i in reversed(range(5))
        ]:
            engine.update("R", tup, mult)
            engine.check_invariants()
            degree = partition.base_degree(key)
            now = partition.is_light_key(key) if degree else None
            if now != state:
                observed.append((degree, now))
                state = now
        assert observed == [(1, True), (move_up, False), (0, None)]

    @pytest.mark.parametrize("theta", [1, 2])
    def test_minor_check_is_idempotent_at_every_degree(self, theta):
        """Re-running the minor-rebalance check must never move a key again."""
        engine = self._engine_with_threshold(theta)
        driver = engine._driver
        partition = self._r_partition(engine)
        key = (55,)
        for tup, mult in [((i, 55), 1) for i in range(5)] + [
            ((i, 55), -1) for i in reversed(range(5))
        ]:
            engine.update("R", tup, mult)
            before = (partition.light_degree(key), partition.base_degree(key))
            driver._check_partition_key(
                partition, key, (0, 55), "R", driver.threshold
            )
            after = (partition.light_degree(key), partition.base_degree(key))
            assert before == after, (
                f"theta={theta}: minor check oscillated at degrees {before}"
            )

    @pytest.mark.parametrize("theta", [1, 2])
    def test_strict_partition_is_a_fixed_point_of_the_minor_check(self, theta):
        engine = self._engine_with_threshold(theta)
        for update in skew_shift_stream("R", 2, 30, hot_key=3, seed=1):
            engine.apply(update)
        driver = engine._driver
        driver._major_rebalance()  # strict repartition at the current θ
        snapshot = {
            partition.base.name: sorted(map(tuple, partition.light_keys()))
            for partition in engine._skew_plan.partitions.partitions()
        }
        for partition in engine._skew_plan.partitions.partitions():
            for key in list(partition.base.distinct_keys(partition.keys)):
                witness = next(iter(partition.base.slice(partition.keys, key)))
                driver._check_partition_key(
                    partition, key, witness, partition.base.name, driver.threshold
                )
        after = {
            partition.base.name: sorted(map(tuple, partition.light_keys()))
            for partition in engine._skew_plan.partitions.partitions()
        }
        assert snapshot == after

    def test_epsilon_boundaries_match_naive_under_churn(self):
        """End-to-end pin: ε ∈ {0, 1} engines track the oracle through churn."""
        from repro.baselines import NaiveRecomputeEngine

        database = random_database(schemas_for(PATH), tuples_per_relation=12, seed=8)
        stream = list(skew_shift_stream("R", 2, 60, hot_key=2, seed=2))
        for epsilon in (0.0, 1.0):
            engine = DynamicEngine(PATH, epsilon=epsilon).load(database)
            oracle = NaiveRecomputeEngine(PATH).load(database)
            for update in stream:
                engine.apply(update)
                oracle.apply(update)
                engine.check_invariants()
            assert dict(engine.result()) == dict(oracle.result())


class TestRebalanceStatsRoundTrip:
    """Satellite: every counter — retunes included — survives serialization."""

    def _full_stats(self):
        from repro.ivm.rebalance import RebalanceStats

        return RebalanceStats(
            updates=7,
            batches=3,
            minor_rebalances=5,
            major_rebalances=2,
            moved_to_light=11,
            moved_to_heavy=13,
            retunes=4,
        )

    def test_as_dict_from_dict_round_trip_with_all_fields_nonzero(self):
        from repro.ivm.rebalance import RebalanceStats

        stats = self._full_stats()
        raw = stats.as_dict()
        assert all(value != 0 for value in raw.values())
        assert RebalanceStats.from_dict(raw) == stats

    def test_add_and_merged_accumulate_retunes(self):
        from repro.ivm.rebalance import RebalanceStats

        total = RebalanceStats.merged([self._full_stats(), self._full_stats()])
        assert total.retunes == 8
        assert total.updates == 14
        accumulated = self._full_stats().add(self._full_stats())
        assert accumulated.retunes == 8

    def test_from_dict_tolerates_legacy_payloads_without_retunes(self):
        """Dicts recorded before the counter existed default to zero."""
        from repro.ivm.rebalance import RebalanceStats

        legacy = self._full_stats().as_dict()
        del legacy["retunes"]
        assert RebalanceStats.from_dict(legacy).retunes == 0

    def test_sharded_fold_up_keeps_retunes(self):
        from repro import ShardedEngine

        engine = ShardedEngine(PATH, shards=4, epsilon=0.5, executor="serial")
        engine.load(
            random_database(schemas_for(PATH), tuples_per_relation=25, seed=12)
        )
        engine.retune(0.0)
        engine.retune(1.0)
        assert engine.rebalance_stats.retunes == 8  # 2 retunes × 4 shards
        engine.close()
