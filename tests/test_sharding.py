"""Sharded maintenance engine: routing, Union reads, equivalence, determinism.

The contract under test is a single sentence: running any workload through
:class:`repro.sharding.ShardedEngine` at any shard count must be
indistinguishable from the single engine — same result dictionary, same
multiplicities, each tuple enumerated once, in a shard-major Union order
that is deterministic for the shard count and the same under every
executor — while minor/major rebalancing stays local to the shard that
triggered it.  The Hypothesis property drives the full engine over random
workloads; the deterministic tests pin the boundary cases (empty shards,
cancelled batches, forced rebalances, worker-process errors).
"""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import HealthCheck, Phase, given, settings
from hypothesis import strategies as st

from repro import (
    Database,
    HierarchicalEngine,
    ShardedEngine,
    StaticEngine,
    Update,
    UpdateBatch,
    UpdateStream,
)
from repro.conformance import ConformanceCase, run_case
from repro.core.planner import choose_shard_key, is_shardable
from repro.data.partition import shard_of, stable_hash
from repro.exceptions import (
    InvariantViolationError,
    RejectedUpdateError,
    ReproError,
    SchemaError,
    UnsupportedQueryError,
)
from repro.ivm.rebalance import RebalanceStats
from repro.sharding import ShardRouter
from repro.workloads import (
    HOT_SHARD_KEY_BASE,
    hot_shard_database,
    hot_shard_stream,
    skewed_shard_database,
    skewed_shard_stream,
)

PATH = "Q(A, C) = R(A, B), S(B, C)"
STAR = "Q(Y0, Y1, Y2) = R0(X, Y0), R1(X, Y1), R2(X, Y2)"
SEMIJOIN = "Q(A) = R(A, B), S(B)"
PRODUCT = "Q(A, C) = R(A, B), S(C, D)"  # disconnected: unshardable


def small_path_database(seed: int = 0, size: int = 40) -> Database:
    rng = random.Random(seed)
    r = [(rng.randrange(12), rng.randrange(8)) for _ in range(size)]
    s = [(rng.randrange(8), rng.randrange(12)) for _ in range(size)]
    return Database.from_dict({"R": (("A", "B"), r), "S": (("B", "C"), s)})


def mixed_path_stream(seed: int = 1, count: int = 60) -> UpdateStream:
    rng = random.Random(seed)
    updates, live = [], []
    for _ in range(count):
        if live and rng.random() < 0.4:
            updates.append(live.pop(rng.randrange(len(live))).inverted())
            continue
        if rng.random() < 0.5:
            update = Update("R", (rng.randrange(12), rng.randrange(8)), 1)
        else:
            update = Update("S", (rng.randrange(8), rng.randrange(12)), 1)
        updates.append(update)
        live.append(update)
    return UpdateStream(updates)


def assert_matches_single(
    query: str, database: Database, stream, shards: int, batched: bool, **kwargs
) -> ShardedEngine:
    """Run the workload sharded and unsharded; assert indistinguishable."""
    single = HierarchicalEngine(query, **kwargs).load(database)
    sharded = ShardedEngine(query, shards=shards, executor="serial", **kwargs)
    sharded.load(database)
    if batched:
        single.apply_batch(list(stream))
        sharded.apply_batch(list(stream))
    else:
        for update in stream:
            single.apply(update)
            sharded.apply(update)
    expected = single.result()
    merged = list(sharded.enumerate())
    assert dict(merged) == expected and len(merged) == len(expected)
    sharded.check_invariants()
    return sharded


# ----------------------------------------------------------------------
# the shard-aware planner gate
# ----------------------------------------------------------------------
class TestShardKeyGate:
    def test_path_query_shards_on_the_join_variable(self):
        assert choose_shard_key(PATH) == "B"
        # the property and the sharded engine's attribute mirror each other
        assert HierarchicalEngine(PATH).shard_key == "B"
        assert ShardedEngine(PATH, shards=2).shard_key == "B"

    def test_star_query_shards_on_the_center(self):
        assert choose_shard_key(STAR) == "X"

    def test_free_variable_preferred_over_sorted_order(self):
        # A and B both occur in every atom; A is bound, B is free.
        assert choose_shard_key("Q(B) = R(A, B), S(B, A)") == "B"

    def test_disconnected_query_rejected_but_single_engine_accepts(self):
        assert not is_shardable(PRODUCT)
        HierarchicalEngine(PRODUCT)  # single engine is fine with it
        with pytest.raises(UnsupportedQueryError, match="disconnected"):
            ShardedEngine(PRODUCT, shards=2)
        with pytest.raises(UnsupportedQueryError):
            HierarchicalEngine(PRODUCT).shard_key

    def test_constructor_validation(self):
        with pytest.raises(ValueError, match="shard count"):
            ShardedEngine(PATH, shards=0)
        with pytest.raises(ValueError, match="executor"):
            ShardedEngine(PATH, executor="gpu")

    def test_a_short_tuple_is_a_schema_error_with_nothing_applied(self):
        """``R``'s shard key ``B`` is column 1: a 1-tuple has none to route by."""
        short = Update("R", (5,), 1)
        for event in (
            short,
            [Update("R", (1, 2), 1), Update("S", (3, 4), 1), short],
            UpdateBatch([Update("R", (1, 2), 1), Update("S", (3, 4), 1), short]),
        ):
            engine = ShardedEngine(PATH, shards=2, executor="serial")
            engine.load(small_path_database())
            before = engine.result()
            with pytest.raises(SchemaError, match="arity 1"):
                engine.commit(event)
            assert engine.version == 0 and engine.result() == before

    def test_requires_load_first(self):
        engine = ShardedEngine(PATH, shards=2)
        with pytest.raises(ReproError, match="load"):
            engine.result()
        with pytest.raises(ReproError, match="load"):
            engine.apply(Update("R", (1, 2), 1))


# ----------------------------------------------------------------------
# stable routing
# ----------------------------------------------------------------------
class TestRouting:
    def test_stable_hash_is_process_independent(self):
        # pinned values: a changed hash would silently re-route every tuple
        assert stable_hash(0) == stable_hash(0)
        assert shard_of("key", 4) == shard_of("key", 4)
        assert shard_of(123, 1) == 0

    def test_python_equal_values_route_identically(self):
        # tuple equality treats 1 == 1.0 == True as one value; routing must
        # agree or a float-typed delete would miss the int-typed stored
        # tuple's shard
        for shards in (2, 4, 7):
            assert shard_of(1, shards) == shard_of(1.0, shards) == shard_of(True, shards)
            assert shard_of(7, shards) == shard_of(7.0, shards)

    def test_numeric_equivalent_update_reaches_the_stored_tuple(self):
        database = Database.from_dict(
            {"R": (("A", "B"), [(10, 1)]), "S": (("B", "C"), [(1, 20)])}
        )
        single = HierarchicalEngine(PATH).load(database)
        sharded = ShardedEngine(PATH, shards=4, executor="serial").load(database)
        update = Update("R", (10, 1.0), -1)  # float-typed view of (10, 1)
        single.apply(update)
        sharded.apply(update)
        assert sharded.result() == single.result() == {}
        sharded.check_invariants()
        sharded.close()

    def test_shard_of_range_and_validation(self):
        for value in range(200):
            assert 0 <= shard_of(value, 7) < 7
        with pytest.raises(ValueError):
            shard_of(1, 0)

    def test_router_columns(self):
        router = ShardRouter(HierarchicalEngine(PATH).query, 4)
        assert router.columns == {"R": 1, "S": 0}
        assert router.shard_key == "B"
        assert not router.key_is_free
        with pytest.raises(Exception):
            router.column_of("T")

    def test_split_database_partitions_every_tuple_exactly_once(self):
        database = small_path_database()
        router = ShardRouter(HierarchicalEngine(PATH).query, 4)
        parts = router.split_database(database)
        assert len(parts) == 4
        for index, part in enumerate(parts):
            assert part.names() == database.names()
            router.check_placement(part, index)
        for relation in database:
            for tup, mult in relation.items():
                owners = [
                    part.relation(relation.name).multiplicity(tup)
                    for part in parts
                ]
                assert sorted(owners) == [0, 0, 0, mult] if mult else True
                assert sum(1 for m in owners if m) == 1

    def test_relation_outside_the_query_is_parked_on_shard_zero(self):
        database = small_path_database()
        extra = database.create_relation("Audit", ("X",))
        extra.insert((1,))
        router = ShardRouter(HierarchicalEngine(PATH).query, 3)
        parts = router.split_database(database)
        assert len(parts[0].relation("Audit")) == 1
        assert len(parts[1].relation("Audit")) == 0
        for index, part in enumerate(parts):
            router.check_placement(part, index)  # ignores parked relations

    def test_misplaced_tuple_detected(self):
        database = small_path_database()
        router = ShardRouter(HierarchicalEngine(PATH).query, 4)
        parts = router.split_database(database)
        # plant one tuple on a wrong shard
        victim = next(iter(parts[0].relation("R").tuples()), None)
        if victim is None:
            victim = (99, 99)
        wrong = (router.shard_of_tuple("R", victim) + 1) % 4
        parts[wrong].relation("R").insert(victim)
        with pytest.raises(InvariantViolationError, match="hashes to shard"):
            router.check_placement(parts[wrong], wrong)

    def test_route_keeps_exact_source_counts_of_a_raw_list(self):
        router = ShardRouter(HierarchicalEngine(PATH).query, 4)
        stream = mixed_path_stream(seed=7, count=40)
        parts = router.route(list(stream))
        assert sum(part.source_count for part in parts.values()) == len(stream)
        # the oracle: how many source updates each shard owns
        owned = Counter(router.shard_of_update(update) for update in stream)
        assert set(parts) == set(owned)
        for shard, part in parts.items():
            assert part.source_count == owned[shard]


# ----------------------------------------------------------------------
# sharded == single, across shard counts and ingestion paths
# ----------------------------------------------------------------------
class TestShardedEquivalence:
    @pytest.mark.parametrize("shards", [1, 2, 4, 7])
    @pytest.mark.parametrize("batched", [False, True])
    def test_path_query(self, shards, batched):
        engine = assert_matches_single(
            PATH,
            small_path_database(seed=3),
            mixed_path_stream(seed=4),
            shards,
            batched,
            epsilon=0.5,
        )
        assert engine.shard_sizes() and sum(engine.shard_sizes()) > 0

    @pytest.mark.parametrize("shards", [2, 5])
    def test_star_query_sums_multiplicities_across_shards(self, shards):
        # the shard key X is bound, so several shards can produce the same
        # head tuple; the merge must sum their multiplicities
        rng = random.Random(11)
        contents = {
            name: (
                (("X", f"Y{i}")),
                [(rng.randrange(6), rng.randrange(3)) for _ in range(25)],
            )
            for i, name in enumerate(("R0", "R1", "R2"))
        }
        database = Database.from_dict(contents)
        stream = UpdateStream(
            [
                Update(rng.choice(("R0", "R1", "R2")), (rng.randrange(6), rng.randrange(3)), 1)
                for _ in range(25)
            ]
        )
        assert_matches_single(STAR, database, stream, shards, batched=True)

    def test_semijoin_query(self):
        rng = random.Random(5)
        database = Database.from_dict(
            {
                "R": (("A", "B"), [(rng.randrange(9), rng.randrange(5)) for _ in range(30)]),
                "S": (("B",), [(rng.randrange(5),) for _ in range(10)]),
            }
        )
        stream = UpdateStream(
            [Update("S", (rng.randrange(5),), 1) for _ in range(12)]
            + [Update("R", (rng.randrange(9), rng.randrange(5)), 1) for _ in range(12)]
        )
        assert_matches_single(SEMIJOIN, database, stream, shards=3, batched=False)

    def test_static_mode_enumerates_but_rejects_updates(self):
        database = small_path_database(seed=9)
        sharded = ShardedEngine(PATH, shards=3, mode="static", executor="serial")
        sharded.load(database)
        expected = StaticEngine(PATH).load(database).result()
        assert sharded.result() == expected
        with pytest.raises(UnsupportedQueryError):
            sharded.apply(Update("R", (1, 2), 1))
        sharded.close()

    def test_empty_database(self):
        database = Database.from_dict({"R": (("A", "B"), []), "S": (("B", "C"), [])})
        sharded = ShardedEngine(PATH, shards=4, executor="serial").load(database)
        assert sharded.result() == {}
        sharded.apply(Update("R", (1, 2), 1))
        sharded.apply(Update("S", (2, 3), 1))
        assert sharded.result() == {(1, 3): 1}
        sharded.check_invariants()

    def test_apply_stream_with_batch_size(self):
        database = small_path_database(seed=13)
        stream = mixed_path_stream(seed=14, count=50)
        single = HierarchicalEngine(PATH).load(database)
        single.apply_stream(stream, batch_size=7)
        sharded = ShardedEngine(PATH, shards=4, executor="serial").load(database)
        sharded.apply_stream(stream, batch_size=7)
        assert sharded.result() == single.result()
        # raw chunks are routed before consolidation, so fleet-wide source
        # accounting matches the unsharded driver exactly
        assert (
            sharded.rebalance_stats.updates == single.rebalance_stats.updates
        )
        with pytest.raises(ValueError, match="batch size"):
            sharded.apply_stream(stream, batch_size=0)
        with pytest.raises(ValueError, match="batch size"):
            sharded.apply_stream(stream, batch_size=True)

    def test_over_delete_raises(self):
        sharded = ShardedEngine(PATH, shards=2, executor="serial")
        sharded.load(small_path_database(seed=15))
        with pytest.raises(RejectedUpdateError):
            sharded.apply(Update("R", (987, 654), -1))

    @pytest.mark.parametrize("executor", ["serial", "thread"])
    def test_cross_shard_batch_is_all_or_nothing(self, executor):
        # a batch spanning several shards with an over-delete on one of
        # them must leave every shard untouched, exactly like the single
        # engine's validated batch path
        database = small_path_database(seed=16)
        sharded = ShardedEngine(PATH, shards=4, executor=executor)
        sharded.load(database)
        before = sharded.result()
        before_sizes = sharded.shard_sizes()
        router = sharded.router
        good = [
            Update("R", (500 + b, b), 1)
            for b in range(8)  # spreads over several shards
        ]
        assert len({router.shard_of_update(u) for u in good}) > 1
        bad = Update("R", (987, 654), -1)  # over-delete on its shard
        with pytest.raises(RejectedUpdateError):
            sharded.apply_batch(good + [bad])
        assert sharded.shard_sizes() == before_sizes
        assert sharded.result() == before
        sharded.check_invariants()
        sharded.close()


# ----------------------------------------------------------------------
# rebalancing stays shard-local
# ----------------------------------------------------------------------
class TestShardLocalRebalancing:
    def test_minor_rebalances_confined_to_the_hot_shard(self):
        database = small_path_database(seed=21, size=60)
        hot_key = 3
        burst = [Update("R", (1000 + i, hot_key), 1) for i in range(40)]
        stream = UpdateStream(burst + [u.inverted() for u in reversed(burst)])
        sharded = assert_matches_single(
            PATH, database, stream, shards=4, batched=False, epsilon=0.5
        )
        per_shard = sharded.rebalance_stats_per_shard()
        hot_shard = sharded.router.shard_of_value(hot_key)
        assert per_shard[hot_shard].minor_rebalances > 0
        merged = sharded.rebalance_stats
        assert merged.minor_rebalances == sum(
            s.minor_rebalances for s in per_shard if s is not None
        )
        assert merged.updates == len(stream)

    def test_major_rebalances_fire_per_shard_and_stay_correct(self):
        database = small_path_database(seed=22, size=20)
        growth = [
            Update("R", (5000 + i, i % 8), 1) for i in range(300)
        ]  # > 2N inserts: every shard's threshold base must double
        sharded = assert_matches_single(
            PATH, database, UpdateStream(growth), shards=4, batched=False
        )
        assert sharded.rebalance_stats.major_rebalances >= 4

    def test_merged_stats_helpers(self):
        a = RebalanceStats(updates=3, minor_rebalances=1)
        b = RebalanceStats(updates=4, major_rebalances=2)
        merged = RebalanceStats.merged([a, b])
        assert merged.updates == 7
        assert merged.minor_rebalances == 1
        assert merged.major_rebalances == 2
        assert RebalanceStats.from_dict(merged.as_dict()) == merged


# ----------------------------------------------------------------------
# Hypothesis: sharded enumeration == single engine, end to end
# ----------------------------------------------------------------------
@st.composite
def path_workload(draw):
    tuples = draw(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 4)), min_size=0, max_size=25
        )
    )
    # a hot join value so thresholds get crossed and minor rebalances fire
    hot = draw(st.integers(0, 4))
    bursts = draw(st.integers(0, 15))
    operations = draw(
        st.lists(
            st.tuples(
                st.sampled_from(("R", "S")),
                st.integers(0, 5),
                st.integers(0, 4),
                st.sampled_from((1, 1, -1)),
            ),
            max_size=30,
        )
    )
    shards = draw(st.sampled_from((1, 2, 4, 7)))
    epsilon = draw(st.sampled_from((0.0, 0.5, 1.0)))
    return tuples, hot, bursts, operations, shards, epsilon


# A failing differential run reports its first failing example as found:
# each shrink step would be a whole ``run_case``, and its mismatch list
# already names the engine, checkpoint and tuple.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


class TestShardMergeProperty:
    @given(path_workload())
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
        phases=NO_SHRINK,
    )
    def test_sharded_indistinguishable_from_single(self, workload):
        # the differential run drives fleets at every count of SHARD_COUNTS,
        # so the drawn count only seeds Hypothesis' search
        tuples, hot, bursts, operations, _shards, epsilon = workload
        database = Database.from_dict(
            {"R": (("A", "B"), tuples), "S": (("B", "C"), [(b, a) for a, b in tuples])}
        )
        shadow = database.copy()
        updates = []
        for i in range(bursts):
            updates.append(Update("R", (100 + i, hot), 1))
        for relation, a, b, sign in operations:
            tup = (a, b)
            if sign < 0 and shadow.relation(relation).multiplicity(tup) == 0:
                continue
            updates.append(Update(relation, tup, sign))
            shadow.relation(relation).apply_delta(tup, sign)
        for i in reversed(range(bursts)):
            updates.append(Update("R", (100 + i, hot), -1))
        report = run_case(ConformanceCase.build(PATH, database, updates, epsilons=(epsilon,)))
        assert report.ok, [str(m) for m in report.mismatches]


# ----------------------------------------------------------------------
# seeded determinism: byte-identical enumeration across runs and executors
# ----------------------------------------------------------------------
def _enumeration_bytes(executor: str, seed: int, shards: int = 4) -> bytes:
    database = skewed_shard_database(size=300, seed=seed)
    stream = skewed_shard_stream(120, seed=seed + 1)
    engine = ShardedEngine(PATH, shards=shards, executor=executor)
    engine.load(database)
    engine.apply_stream(stream, batch_size=20)
    payload = repr(list(engine.enumerate())).encode("utf-8")
    engine.close()
    return payload


class TestSeededDeterminism:
    def test_two_runs_byte_identical(self):
        assert _enumeration_bytes("serial", seed=42) == _enumeration_bytes(
            "serial", seed=42
        )

    def test_thread_scheduling_cannot_leak_into_results(self):
        # the thread executor dispatches shard batches concurrently; results
        # must still be byte-identical to the serial run and to a rerun
        first = _enumeration_bytes("thread", seed=43)
        second = _enumeration_bytes("thread", seed=43)
        assert first == second
        assert first == _enumeration_bytes("serial", seed=43)

    def test_different_seeds_differ(self):
        # guard against the determinism test passing vacuously
        assert _enumeration_bytes("serial", seed=44) != _enumeration_bytes(
            "serial", seed=45
        )


# ----------------------------------------------------------------------
# empty-net-effect batches at shard boundaries (regression)
# ----------------------------------------------------------------------
class TestEmptyNetEffectBatches:
    def test_batches_yield_cancelled_chunks_and_routing_dispatches_nothing(self):
        pairs = [Update("R", (7, 3), 1), Update("R", (7, 3), -1)] * 3
        stream = UpdateStream(pairs)
        chunks = list(stream.batches(2))
        # every chunk consolidates to an empty net effect but keeps counts
        assert len(chunks) == 3
        assert all(chunk.is_empty() and chunk.source_count == 2 for chunk in chunks)
        router = ShardRouter(HierarchicalEngine(PATH).query, 4)
        for chunk in chunks:
            assert router.route(chunk) == {}

    def test_consolidated_empty_batch_is_a_noop_on_every_shard(self):
        database = small_path_database(seed=31)
        sharded = ShardedEngine(PATH, shards=4, executor="serial").load(database)
        before_sizes = sharded.shard_sizes()
        before_result = sharded.result()
        batch = UpdateBatch([Update("R", (9, 1), 1), Update("R", (9, 1), -1)])
        assert batch.is_empty()
        sharded.apply_batch(batch)
        assert sharded.shard_sizes() == before_sizes
        assert sharded.result() == before_result
        sharded.check_invariants()

    def test_raw_cancelled_updates_still_counted_like_the_unsharded_driver(self):
        database = small_path_database(seed=32)
        single = HierarchicalEngine(PATH).load(database)
        sharded = ShardedEngine(PATH, shards=4, executor="serial").load(database)
        cancelled = [Update("R", (9, 1), 1), Update("R", (9, 1), -1)]
        single.apply_batch(cancelled)
        sharded.apply_batch(cancelled)
        # both paths route the raw pair, so both count its source updates
        assert single.rebalance_stats.updates == 2
        assert sharded.rebalance_stats.updates == 2
        assert sharded.result() == single.result()

    def test_consolidated_batch_telemetry_counts_sources_like_the_single_engine(self):
        database = small_path_database(seed=32)
        single = HierarchicalEngine(PATH).load(database)
        sharded = ShardedEngine(PATH, shards=2, executor="serial").load(database)
        batch = UpdateBatch(
            [Update("R", (9, 1), 1), Update("R", (9, 1), -1), Update("R", (8, 0), 1)]
        )
        single.apply_batch(batch)
        sharded.apply_batch(batch)
        assert single.telemetry.update_tuples == batch.source_count == 3
        assert sharded.telemetry.update_tuples == single.telemetry.update_tuples
        # the shard's own counter still sees one source per net entry
        assert sharded.rebalance_stats.updates == 1
        assert sharded.result() == single.result()

    def test_boundary_chunking_equals_whole_for_sharded_and_single(self):
        rng = random.Random(33)
        database = small_path_database(seed=33)
        updates = []
        for i in range(10):
            tup = (rng.randrange(12), rng.randrange(8))
            # insert/delete pairs straddling batch boundaries of size 3
            updates.append(Update("R", tup, 1))
            updates.append(Update("R", tup, -1))
        stream = UpdateStream(updates)
        single = HierarchicalEngine(PATH).load(database)
        single.apply_stream(stream)
        for batch_size in (1, 2, 3, 5, len(updates)):
            sharded = ShardedEngine(PATH, shards=3, executor="serial")
            sharded.load(database)
            for batch in stream.batches(batch_size):
                sharded.apply_batch(batch)
            assert sharded.result() == single.result(), batch_size
            sharded.check_invariants()
            sharded.close()

    def test_route_buckets_a_batchs_net_entries(self):
        router = ShardRouter(HierarchicalEngine(PATH).query, 4)
        batch = UpdateBatch(
            [
                Update("R", (1, 2), 2),
                Update("S", (3, 9), 1),
                Update("R", (3, 4), 1),
                Update("R", (3, 4), -1),
            ]
        )
        r_shard, s_shard = router.shard_of_tuple("R", (1, 2)), router.shard_of_tuple("S", (3, 9))
        assert r_shard != s_shard  # the key B is 2 and 3: two shards
        parts = router.route(batch)
        assert set(parts) == {r_shard, s_shard}
        assert dict(parts[r_shard].delta_for("R")) == {(1, 2): 2}
        assert dict(parts[s_shard].delta_for("S")) == {(3, 9): 1}
        assert not parts[r_shard].delta_for("S") and not parts[s_shard].delta_for("R")
        # one source per net entry: the cancelled pair counts nowhere
        assert parts[r_shard].source_count == 1
        assert parts[s_shard].source_count == 1
        wide = UpdateBatch([Update("R", (k, k), 1) for k in range(12)])
        owned = Counter(router.shard_of_tuple("R", (k, k)) for k in range(12))
        assert {shard: part.source_count for shard, part in router.route(wide).items()} == owned


# ----------------------------------------------------------------------
# executors
# ----------------------------------------------------------------------
class TestExecutors:
    def test_thread_executor_matches_serial(self):
        database = small_path_database(seed=51)
        stream = mixed_path_stream(seed=52, count=40)
        results = {}
        for executor in ("serial", "thread"):
            engine = ShardedEngine(PATH, shards=4, executor=executor)
            engine.load(database)
            engine.apply_batch(stream)
            results[executor] = list(engine.enumerate())
            engine.check_invariants()
            engine.close()
        assert results["serial"] == results["thread"]

    def test_process_executor_end_to_end(self):
        database = small_path_database(seed=53, size=25)
        stream = mixed_path_stream(seed=54, count=20)
        single = HierarchicalEngine(PATH).load(database)
        single.apply_batch(list(stream))
        with ShardedEngine(PATH, shards=2, executor="process") as engine:
            engine.load(database)
            engine.apply_batch(stream)
            assert engine.result() == single.result()
            engine.check_invariants()
            assert engine.rebalance_stats.updates == len(stream)

    def test_process_executor_propagates_typed_errors(self):
        database = small_path_database(seed=55, size=15)
        with ShardedEngine(PATH, shards=2, executor="process") as engine:
            engine.load(database)
            with pytest.raises(RejectedUpdateError):
                engine.apply(Update("R", (12345, 6789), -1))
            # the worker survives the error and keeps serving
            engine.apply(Update("R", (12345, 6789), 1))
            assert engine.shard_sizes()

    def test_process_executor_pipes_stay_level_after_mapped_error(self):
        # an error on one shard during a fan-out must not leave other
        # shards' replies queued (a desynced pipe corrupts every later
        # command); the engine must keep answering correctly afterwards
        database = small_path_database(seed=59)
        single = HierarchicalEngine(PATH).load(database)
        with ShardedEngine(PATH, shards=3, executor="process") as engine:
            engine.load(database)
            before = engine.result()
            assert before == single.result()
            good = [Update("R", (700 + b, b), 1) for b in range(8)]
            with pytest.raises(RejectedUpdateError):
                engine.apply_batch(good + [Update("R", (987, 654), -1)])
            # pipes drained and state untouched: results still coherent
            assert engine.result() == before
            engine.apply_batch(good)
            single.apply_batch(list(good))
            assert engine.result() == single.result()
            engine.check_invariants()

    def test_auto_resolution_prefers_in_process_for_small_n(self):
        engine = ShardedEngine(PATH, shards=4, executor="auto")
        engine.load(small_path_database(seed=56))
        # the plain loop: the thread pool measured no faster on any workload
        assert engine.executor_name == "serial"
        engine.close()

    def test_hot_shard_scenario_flips_keys_heavy(self):
        # the benchmark's premise, pinned as a fast test: hot keys are light
        # for the single engine but heavy for every shard of a 4-way split
        database = hot_shard_database(size=300, hot_keys=4, seed=57)
        single = HierarchicalEngine(PATH, epsilon=0.5).load(database)
        sharded = ShardedEngine(PATH, shards=4, epsilon=0.5, executor="serial")
        sharded.load(database)
        stream = hot_shard_stream(40, hot_keys=4, seed=58)
        for update in stream:
            single.apply(update)
            sharded.apply(update)
        assert sharded.result() == single.result()
        assert max(sharded.thresholds()) < single.threshold
        assert HOT_SHARD_KEY_BASE  # hot keys live in a reserved id range
        sharded.close()


def test_write_path_layering():
    """One commit per layer, standing: a shard commits through its engine's
    public ``apply``/``apply_batch`` (nobody outside ``core/api.py`` and the
    checkpoint serialiser reaches for the driver or the durability manager),
    the facade's ingestion counter is the facade's to tick, and every shard
    round of the facade runs through ``ShardedEngine._round``."""
    import ast
    from pathlib import Path

    import repro

    root = Path(repro.__file__).parent
    reach_ins, version_writes = [], []
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root).as_posix()
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                if any(
                    isinstance(target, ast.Attribute) and target.attr == "_version"
                    for target in targets
                ):
                    version_writes.append(where)
            if isinstance(node, ast.Attribute) and node.attr in ("_driver", "_durability"):
                reach_ins.append(where)
    allowed = {"core/api.py", "durability/checkpoint.py"}
    assert {
        where for where in reach_ins if not where.startswith("conformance/")
    } == allowed
    assert set(version_writes) == {"sharding/engine.py"}
    engine_module = ast.parse((root / "sharding" / "engine.py").read_text(encoding="utf-8"))
    rounds_elsewhere = [
        (function.name, node.func.attr)
        for function in ast.walk(engine_module)
        if isinstance(function, ast.FunctionDef) and function.name != "_round"
        for node in ast.walk(function)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr in ("map", "broadcast", "call", "stats")
    ]
    assert rounds_elsewhere == []


def test_epsilon_validated_at_construction():
    with pytest.raises(ValueError, match="epsilon"):
        ShardedEngine(PATH, shards=2, epsilon=1.5)
    with pytest.raises(ValueError, match="epsilon"):
        ShardedEngine(PATH, shards=2, epsilon=-0.1)
