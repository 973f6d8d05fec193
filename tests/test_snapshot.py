"""Versioned snapshots: isolation vs a replayed oracle, staleness, lifecycle."""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from repro import Database, HierarchicalEngine, StaticEngine, Update
from repro.baselines import NaiveRecomputeEngine
from repro.conformance import (
    ConformanceCase,
    DataProfile,
    random_database,
    random_labeled_query,
    random_update_stream,
    run_case,
)
from repro.core.serving import EngineServer
from repro.data.relation import COW_REPLAY_RATIO, Relation, cow_replay_weights
from repro.exceptions import ReproError, StaleStateError
from repro.sharding import ShardedEngine
from repro.snapshot import CowTracker
from repro.views.view import IndicatorLeaf, LeafNode, ViewNode
from repro.workloads import get_scenario
from tests.reference_enumeration import reference_enumerate

PATH_QUERY = "Q(A, C) = R(A, B), S(B, C)"


def path_db(seed: int = 5, size: int = 60, domain: int = 12) -> Database:
    rng = random.Random(seed)
    return Database.from_dict(
        {
            "R": (
                ("A", "B"),
                [(rng.randrange(domain * 3), rng.randrange(domain)) for _ in range(size)],
            ),
            "S": (
                ("B", "C"),
                [(rng.randrange(domain), rng.randrange(domain * 3)) for _ in range(size)],
            ),
        }
    )


def grid_db() -> Database:
    """Three B values of degree 110 on both sides: 12 100 result tuples."""
    return Database.from_dict(
        {
            "R": (("A", "B"), [(a, b) for a in range(110) for b in range(3)]),
            "S": (("B", "C"), [(b, c) for b in range(3) for c in range(110)]),
        }
    )


def random_updates(seed: int, count: int, domain: int = 12):
    rng = random.Random(seed)
    updates = []
    inserted = []
    for index in range(count):
        if inserted and index % 3 == 2:
            relation, tup = inserted.pop(rng.randrange(len(inserted)))
            updates.append(Update(relation, tup, -1))
        elif index % 2 == 0:
            tup = (rng.randrange(domain * 3), rng.randrange(domain))
            inserted.append(("R", tup))
            updates.append(Update("R", tup, 1))
        else:
            tup = (rng.randrange(domain), rng.randrange(domain * 3))
            inserted.append(("S", tup))
            updates.append(Update("S", tup, 1))
    return updates


class TestSnapshotBasics:
    @pytest.mark.parametrize("epsilon", [0.0, 0.5, 1.0])
    def test_snapshot_is_frozen_at_capture(self, epsilon):
        engine = HierarchicalEngine(PATH_QUERY, epsilon=epsilon)
        engine.load(path_db())
        oracle = NaiveRecomputeEngine(PATH_QUERY).load(path_db())
        captures = []
        for index, update in enumerate(random_updates(seed=6, count=40)):
            engine.apply(update)
            oracle.apply(update)
            if index % 10 == 0:
                captures.append(
                    (engine.snapshot(), dict(oracle.result()), list(engine.enumerate()))
                )
        for snapshot, truth, live_sequence in captures:
            assert dict(snapshot.result()) == truth
            assert list(snapshot.enumerate()) == live_sequence
            for tup, mult in list(truth.items())[:3]:
                assert snapshot.lookup(tup) == mult
            assert snapshot.lookup((object(), object())) == 0

    def test_version_counts_ingestion_events(self):
        engine = HierarchicalEngine(PATH_QUERY).load(path_db())
        assert engine.version == 0
        assert engine.snapshot().version == 0
        engine.update("R", (1, 2))
        assert engine.version == 1
        engine.apply_batch(random_updates(seed=1, count=6))
        assert engine.version == 2
        assert engine.snapshot().version == 2

    def test_lookup_rejects_wrong_arity(self):
        engine = HierarchicalEngine(PATH_QUERY).load(path_db())
        with pytest.raises(ValueError):
            engine.snapshot().lookup((1,))

    def test_snapshot_requires_load(self):
        engine = HierarchicalEngine(PATH_QUERY)
        with pytest.raises(ReproError):
            engine.snapshot()

    def test_static_engine_snapshot(self):
        engine = StaticEngine(PATH_QUERY).load(path_db())
        snapshot = engine.snapshot()
        assert snapshot.version == 0
        assert dict(snapshot.result()) == dict(engine.result())

    def test_closed_snapshot_stops_tracking(self):
        engine = HierarchicalEngine(PATH_QUERY).load(path_db())
        truth = dict(engine.result())
        snapshot = engine.snapshot()
        held = engine.snapshot()
        snapshot.close()
        for update in random_updates(seed=9, count=20):
            engine.apply(update)
        # the still-open capture is unaffected by its sibling's close()
        assert dict(held.result()) == truth

    def test_count_distinct_and_iter(self):
        engine = HierarchicalEngine(PATH_QUERY).load(path_db())
        snapshot = engine.snapshot()
        assert snapshot.count_distinct() == engine.count_distinct()
        assert dict(iter(snapshot)) == dict(engine.result())


class TestSnapshotAcrossRebalances:
    def test_major_rebalance_does_not_leak_into_snapshot(self):
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5)
        engine.load(path_db(size=30))
        truth = dict(engine.result())
        sequence = list(engine.enumerate())
        snapshot = engine.snapshot()
        rng = random.Random(3)
        # quadruple the database size: the threshold base must double at
        # least once, recomputing every view under the snapshot
        for _ in range(150):
            engine.update("R", (rng.randrange(200), rng.randrange(12)), 1)
        assert engine.rebalance_stats.major_rebalances >= 1
        assert dict(snapshot.result()) == truth
        assert list(snapshot.enumerate()) == sequence

    def test_minor_rebalance_does_not_leak_into_snapshot(self):
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5, enable_rebalancing=True)
        engine.load(path_db(size=60))
        snapshot = engine.snapshot()
        truth = dict(snapshot.result())
        # hammer one join key across the heavy/light border repeatedly:
        # threshold is M^0.5 = (2*120+1)^0.5 ~ 15.5, so degree 30 crosses
        # the loose 1.5*theta bound upward and degree ~5 the theta/2 bound
        # back down
        hot = 3
        for round_ in range(4):
            for i in range(28):
                engine.update("R", (1000 + i, hot), 1)
            for i in range(28):
                engine.update("R", (1000 + i, hot), -1)
        assert engine.rebalance_stats.minor_rebalances >= 1
        assert dict(snapshot.result()) == truth

    def test_snapshot_taken_after_updates_sees_them(self):
        engine = HierarchicalEngine(PATH_QUERY).load(path_db())
        engine.update("R", (999, 1), 1)
        engine.update("S", (1, 888), 1)
        snapshot = engine.snapshot()
        assert snapshot.lookup((999, 888)) >= 1


profiles = st.builds(
    DataProfile,
    tuples_per_relation=st.integers(min_value=4, max_value=16),
    domain=st.integers(min_value=3, max_value=8),
    skew=st.sampled_from((0.0, 0.8, 2.0)),
    heavy_fraction=st.sampled_from((0.0, 0.4)),
)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


# A failing differential run reports its first failing example as found:
# each shrink step would be a whole ``run_case``, and its mismatch list
# already names the engine, checkpoint and tuple.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


class TestSnapshotPropertyBased:
    @settings(max_examples=12, deadline=None, phases=NO_SHRINK)
    @given(seed=seeds, profile=profiles, epsilon=st.sampled_from((0.0, 0.5, 1.0)))
    def test_snapshot_equals_oracle_replayed_to_version(self, seed, profile, epsilon):
        """For random workloads, ``snapshot()`` at version v enumerates what a
        fresh naive oracle replayed-to-v produces — even after further
        interleaved batches (rebalances included) hit the live engine."""
        rng = random.Random(seed)
        labeled = random_labeled_query(rng)
        database = random_database(labeled.query, profile, seed=rng.randrange(1 << 30))
        stream = random_update_stream(
            database, 24, profile, delete_fraction=0.4, seed=rng.randrange(1 << 30)
        )
        case = ConformanceCase.build(
            str(labeled.query), database, stream, epsilons=(epsilon,), checkpoints=3
        )
        report = run_case(case)
        assert report.ok, [str(m) for m in report.mismatches]

    @settings(max_examples=8, deadline=None, phases=NO_SHRINK)
    @given(seed=seeds)
    def test_snapshot_survives_forced_growth(self, seed):
        """Interleaved insert-heavy batches that force doubling rebalances."""
        rng = random.Random(seed)
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5)
        engine.load(path_db(seed=seed % 100, size=20))
        oracle = NaiveRecomputeEngine(PATH_QUERY).load(path_db(seed=seed % 100, size=20))
        captures = []
        for round_ in range(4):
            batch = [
                Update("R", (rng.randrange(500), rng.randrange(10)), 1)
                for _ in range(30)
            ]
            engine.apply_batch(batch)
            oracle.apply_batch(batch)
            captures.append((engine.snapshot(), dict(oracle.result())))
        assert engine.rebalance_stats.major_rebalances >= 1
        for snapshot, truth in captures:
            assert dict(snapshot.result()) == truth


class TestStaleAfterLoad:
    """Regression: reads must raise instead of reflecting a replaced database."""

    def test_single_engine_snapshot_goes_stale(self):
        engine = HierarchicalEngine(PATH_QUERY).load(path_db(seed=1))
        snapshot = engine.snapshot()
        engine.load(path_db(seed=2))
        with pytest.raises(StaleStateError):
            snapshot.result()
        with pytest.raises(StaleStateError):
            snapshot.lookup((1, 2))
        with pytest.raises(StaleStateError):
            list(snapshot.enumerate())

    def test_single_engine_enumerator_goes_stale(self):
        engine = HierarchicalEngine(PATH_QUERY).load(path_db(seed=1))
        enumerator = engine.enumerate()
        engine.load(path_db(seed=2))
        with pytest.raises(StaleStateError):
            list(enumerator)

    def test_single_engine_enumerator_goes_stale_mid_iteration(self):
        engine = HierarchicalEngine(PATH_QUERY).load(path_db(seed=1))
        iterator = iter(engine.enumerate())
        next(iterator)
        engine.load(path_db(seed=2))
        with pytest.raises(StaleStateError):
            for _ in iterator:
                pass

    def test_stale_error_is_a_repro_error(self):
        assert issubclass(StaleStateError, ReproError)

    def test_fresh_reads_after_reload_work(self):
        engine = HierarchicalEngine(PATH_QUERY).load(path_db(seed=1))
        engine.load(path_db(seed=2))
        assert dict(engine.snapshot().result()) == dict(engine.result())

    def test_sharded_snapshot_goes_stale(self):
        engine = ShardedEngine(PATH_QUERY, shards=3, executor="serial")
        engine.load(path_db(seed=1))
        snapshot = engine.snapshot()
        engine.load(path_db(seed=2))
        with pytest.raises(StaleStateError):
            snapshot.result()
        with pytest.raises(StaleStateError):
            snapshot.lookup((1, 2))
        snapshot.close()  # idempotent even though the old executor is gone
        engine.close()

    def test_sharded_enumerator_goes_stale(self):
        engine = ShardedEngine(PATH_QUERY, shards=3, executor="serial")
        engine.load(path_db(seed=1))
        enumerator = engine.enumerate()
        engine.load(path_db(seed=2))
        with pytest.raises(StaleStateError):
            list(enumerator)
        engine.close()

    def test_sharded_closed_snapshot_rejects_reads(self):
        engine = ShardedEngine(PATH_QUERY, shards=2, executor="serial")
        engine.load(path_db(seed=1))
        snapshot = engine.snapshot()
        snapshot.close()
        with pytest.raises(StaleStateError):
            snapshot.result()
        engine.close()

    def test_closed_snapshot_rejects_reads(self):
        """The single-engine twin: a closed snapshot must not re-freeze the
        *live* relations and serve them under its old version stamp."""
        engine = HierarchicalEngine(PATH_QUERY).load(path_db(seed=1))
        snapshot = engine.snapshot()
        iterator = iter(snapshot.enumerate())
        next(iterator)
        snapshot.close()
        snapshot.close()  # idempotent
        for update in random_updates(seed=2, count=20):
            engine.apply(update)
        assert snapshot.version == 0
        with pytest.raises(StaleStateError):
            snapshot.result()
        with pytest.raises(StaleStateError):
            snapshot.count_distinct()
        with pytest.raises(StaleStateError):
            snapshot.lookup((1, 2))
        with pytest.raises(StaleStateError):
            next(iterator)


class TestShardedSnapshots:
    @pytest.mark.parametrize("executor", ["serial", "thread", "process"])
    def test_sharded_snapshot_matches_prefix(self, executor):
        engine = ShardedEngine(PATH_QUERY, shards=3, epsilon=0.5, executor=executor)
        engine.load(path_db(seed=4))
        single = HierarchicalEngine(PATH_QUERY, epsilon=0.5).load(path_db(seed=4))
        batches = [random_updates(seed=40 + i, count=10) for i in range(3)]
        captures = []
        for batch in batches:
            engine.apply_batch(batch)
            single.apply_batch(batch)
            captures.append((engine.snapshot(), list(engine.enumerate())))
        engine.apply_batch(random_updates(seed=99, count=10))
        for index, (snapshot, live_sequence) in enumerate(captures):
            assert list(snapshot.enumerate()) == live_sequence
            assert snapshot.version == index + 1
            assert len(snapshot.shard_versions) == 3
            snapshot.close()
        engine.close()

    def test_sharded_snapshot_lookup_sums_across_shards(self):
        engine = ShardedEngine(PATH_QUERY, shards=4, executor="serial")
        engine.load(path_db(seed=4))
        truth = dict(engine.result())
        snapshot = engine.snapshot()
        engine.apply_batch(random_updates(seed=41, count=12))
        for tup, mult in list(truth.items())[:4]:
            assert snapshot.lookup(tup) == mult
        assert snapshot.lookup((object(), object())) == 0
        snapshot.close()
        engine.close()


# ----------------------------------------------------------------------
# trailing replicas: frozen copies rolled forward from the redo log
# ----------------------------------------------------------------------
KEY_SCHEMAS = (("A",), ("B",), ("A", "B"))


def assert_same_frozen_content(frozen, expected):
    """``frozen`` is observationally the ``copy()`` taken at capture time.

    Entries and every index group are compared as sequences.  The
    order of ``keys()`` is the one thing a kept index (maintained through a
    replay, or inherited from the live relation) may not share with a fresh
    build, and nothing that reads a frozen copy iterates it — so the keys
    are compared as a duplicate-free set.
    """
    assert list(frozen.items()) == list(expected.items())
    for key_schema in KEY_SCHEMAS:
        got, want = frozen.ensure_index(key_schema), expected.ensure_index(key_schema)
        keys = list(got.keys())
        assert len(keys) == len(set(keys)) == got.num_keys()
        assert set(keys) == set(want.keys())
        for key in keys:
            assert list(got.group(key)) == list(want.group(key))
            assert list(got.group_items(key)) == list(want.group_items(key))
            assert got.group_size(key) == want.group_size(key)


class ReplicaHarness:
    """One relation under a bare tracker, with a ``copy()`` oracle per capture."""

    def __init__(self, prefill: int) -> None:
        self.relation = Relation("R", ("A", "B"))
        for i in range(prefill):
            self.relation.apply_delta((i, i % 7), 1)
        self.tracker = CowTracker()
        self.open = []  # (state, copy() taken at the capture point)

    def capture(self) -> None:
        state = self.tracker.capture([self.relation])
        self.open.append((state, self.relation.copy()))

    def read(self, index: int) -> None:
        state, expected = self.open[index % len(self.open)]
        frozen = self.tracker.freeze(state, self.relation)
        assert_same_frozen_content(frozen, expected)

    def close(self, index: int) -> None:
        state, _ = self.open.pop(index % len(self.open))
        self.tracker.release(state)

    def drop(self, index: int) -> None:
        # no close(): the tracker only holds the state weakly
        self.open.pop(index % len(self.open))

    def read_all(self) -> None:
        for index in range(len(self.open)):
            self.read(index)


small_tuples = st.tuples(
    st.integers(min_value=0, max_value=20), st.integers(min_value=0, max_value=6)
)
picks = st.integers(min_value=0, max_value=1 << 16)
mutations = st.lists(
    st.one_of(
        st.tuples(st.just("insert"), small_tuples),
        st.tuples(st.just("insert"), small_tuples),
        st.tuples(st.just("insert"), small_tuples),
        st.tuples(st.just("delete"), picks),
        st.tuples(st.just("delete"), picks),
        st.tuples(st.just("delete"), picks),
        st.tuples(st.just("clear"), picks),
    ),
    max_size=10,
)
# One round: how the round's snapshot is taken ("publish" is what
# EngineServer does per commit — retire the old version, capture the new),
# the writes that follow it, then reads/closes/drops of open snapshots.
replica_rounds = st.lists(
    st.tuples(
        st.sampled_from(("publish", "publish", "capture", "none")),
        mutations,
        st.lists(
            st.tuples(st.sampled_from(("read", "read", "close", "drop")), picks),
            max_size=3,
        ),
    ),
    max_size=12,
)


class TestTrailingReplica:
    @settings(max_examples=300, deadline=None)
    @given(
        prefill=st.sampled_from((0, 40, 600, 600)),
        rounds=replica_rounds,
    )
    # an index built on the replica, then a replayed delete of its first
    # group's first member: the replica keeps its indexes, so its B index
    # still lists the B = 0 group first where a fresh build lists it last —
    # the key sequences differ, every group sequence does not
    @example(
        prefill=600,
        rounds=[
            ("publish", [("insert", (5, 3))], [("read", 0)]),
            ("publish", [("delete", 0)], [("read", 0)]),
            ("publish", [("insert", (20, 0))], [("read", 0)]),
        ],
    )
    def test_frozen_content_equals_copy_at_capture(self, prefill, rounds):
        """Random insert/delete/re-insert streams with interleaved captures,
        reads, closes, drops and held-open snapshots: whichever branch
        (replay or copy) produced a frozen relation, it equals the
        ``copy()`` taken at the capture point — entries, index key sets and
        per-key group sequences."""
        harness = ReplicaHarness(prefill)
        relation = harness.relation
        for capture, writes, follow_ups in rounds:
            if capture == "publish":
                while harness.open:
                    harness.close(0)
            if capture != "none":
                harness.capture()
            for op, arg in writes:
                if op == "insert":
                    relation.apply_delta(arg, 1)
                elif op == "clear":
                    relation.clear()
                elif len(relation):
                    # oldest and newest tuples: deleting a group's first
                    # member or re-inserting a fresh one is what reorders
                    # index keys and free rows
                    live = list(relation.tuples())
                    pool = live[:24] + live[-24:]
                    relation.apply_delta(pool[arg % len(pool)], -1)
            for op, arg in follow_ups:
                if harness.open:
                    getattr(harness, op)(arg)
        harness.read_all()

    def test_replay_and_fallback_branches(self):
        """Deterministic walk through every branch of the replay-or-copy rule."""
        harness = ReplicaHarness(prefill=800)
        relation, tracker = harness.relation, harness.tracker

        def commit(base: int, count: int = 5) -> None:
            harness.capture()
            for i in range(count):
                relation.apply_delta((base + i, 3), 1)
            relation.apply_delta((base, 3), -1)  # delete ...
            relation.apply_delta((base, 3), 2)  # ... and re-insert at the end

        # published-then-closed snapshots, as EngineServer makes them: one
        # full copy to seed the replica, then only replays
        for round_ in range(10):
            commit(10_000 + 10 * round_)
            harness.read_all()
            while harness.open:
                harness.close(0)
        assert tracker.full_copies == 1
        assert tracker.replayed_entries == 9 * 7

        # a snapshot that resolved the replica and stays open pins it: the
        # writer falls back to one copy, then trails the new replica
        harness.capture()
        harness.read(0)
        held = harness.open[0]
        copies = tracker.full_copies
        for round_ in range(5):
            commit(20_000 + 10 * round_)
            harness.read_all()
            while len(harness.open) > 1:
                harness.close(1)
        assert harness.open == [held]
        assert tracker.full_copies == copies + 1
        harness.read(0)

        # a log longer than the rule's bound stops being kept (bounded
        # memory) and the next freeze copies; the batch grows the relation
        # and with it the bound, hence twice the bound it starts at
        copies = tracker.full_copies
        replay, copy = cow_replay_weights(relation)
        commit(30_000, count=2 * (len(relation) * copy // replay) + 50)
        assert relation._cow_log is None
        harness.capture()
        relation.apply_delta((40_000, 1), 1)
        assert tracker.full_copies == copies + 1
        # ... and a relation that just outran the bound is not logged for
        # the round that follows: one more copy, then replays resume
        assert relation._cow_log is None
        harness.capture()
        relation.apply_delta((40_001, 1), 1)
        assert tracker.full_copies == copies + 2
        assert relation._cow_log is not None
        harness.read_all()

        # clear() ticks without a log entry: the capture before it is still
        # reached by replay, the one after by a copy
        while len(harness.open) > 1:
            harness.close(1)
        copies = tracker.full_copies
        harness.capture()
        relation.clear()
        harness.capture()
        relation.apply_delta((50_000, 2), 1)
        assert tracker.full_copies == copies + 1
        harness.read_all()

    def test_tracker_refuses_to_freeze_for_a_released_state(self):
        """``close()`` racing a reader that already passed its validity
        check must not hand out (unprotected) live content."""
        harness = ReplicaHarness(prefill=10)
        harness.capture()
        state, _ = harness.open[0]
        harness.close(0)
        with pytest.raises(StaleStateError):
            harness.tracker.freeze(state, harness.relation)

    def test_replay_keeps_a_reader_index_across_a_long_stream(self):
        """1 600 deletes replayed in short rounds onto one replica: the index
        a reader built on it before the stream is maintained, never rebuilt."""
        harness = ReplicaHarness(prefill=2000)
        relation, tracker = harness.relation, harness.tracker
        victims = list(relation.tuples())[:1600]
        # a reader's index on the replica, built before the stream: every
        # replay below maintains it
        harness.capture()
        replica = tracker.freeze(harness.open[0][0], relation)
        index = replica.ensure_index(("B",))
        harness.close(0)
        # per-capture logs short enough to replay even at the final size
        replay, copy = cow_replay_weights(relation)
        chunk = (len(relation) - len(victims)) * copy // replay - 2
        for start in range(0, len(victims), chunk):
            harness.capture()
            for tup in victims[start : start + chunk]:
                relation.apply_delta(tup, -1)
            relation.apply_delta((9_000, start), 1)
            relation.apply_delta((9_000, start), -1)
            harness.read_all()
            harness.close(0)
        harness.capture()
        harness.read_all()
        assert tracker.full_copies == 1
        assert tracker.replayed_entries >= len(victims)
        assert tracker.freeze(harness.open[0][0], relation) is replica
        assert replica.ensure_index(("B",)) is index

    def test_an_indexed_relation_replays_logs_one_ratio_copied(self, monkeypatch):
        """R (330 tuples, one index on B) takes 20 changes per commit: over
        the old single bound (330 / 32 entries), under the index-aware one
        (330 * 6 / 64).  One seed copy, then only replays — and what each
        snapshot holds is the live engine's at its capture: R's content and
        group sequences, and the tree sequence."""
        # R as in grid_db(), S ten tuples per B value: 3 300 result tuples
        database = Database.from_dict(
            {
                "R": (("A", "B"), [(a, b) for a in range(110) for b in range(3)]),
                "S": (("B", "C"), [(b, c) for b in range(3) for c in range(10)]),
            }
        )
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5).load(database)
        relation = engine.database.relation("R")
        copied = []
        copy = Relation.copy_with_indexes
        monkeypatch.setattr(
            Relation,
            "copy_with_indexes",
            lambda self, keys: copied.append(self) or copy(self, keys),
        )
        for round_ in range(12):
            snapshot, live, content = engine.snapshot(), list(engine.enumerate()), relation.copy()
            if round_ % 3 == 0:
                # a reader freezes R first (the seed copy, and the index on B
                # it probes); otherwise the writer's guard freezes it
                assert list(snapshot.enumerate()) == live
            rows = [(5_000 + i, i % 3) for i in range(20)]
            engine.apply_batch([Update("R", row, 1 - 2 * (round_ % 2)) for row in rows])
            assert list(snapshot.enumerate()) == live == reference_sequence(snapshot)
            assert_same_frozen_content(snapshot._tracker.freeze(snapshot._state, relation), content)
            snapshot.close()
        assert len(relation) == 330 < 20 * COW_REPLAY_RATIO
        assert copied.count(relation) == 1
        assert engine.snapshot_stats["replayed_entries"] >= 20 * 10
        assert engine.rebalance_stats.major_rebalances == 0

    def test_dropped_snapshot_with_live_enumerator_keeps_its_content(self):
        """An enumerator outliving its (never closed) snapshot handle still
        walks capture-time content while commits roll the replicas on."""
        engine = HierarchicalEngine(PATH_QUERY).load(path_db(size=400, domain=8))
        for update in random_updates(seed=3, count=4, domain=8):
            engine.apply(update)
            engine.snapshot().count_distinct()  # seeds the replicas
        sequence = list(engine.enumerate())
        iterator = iter(engine.snapshot().enumerate())
        head = [next(iterator) for _ in range(5)]
        for update in random_updates(seed=4, count=30, domain=8):
            engine.apply(update)
            engine.snapshot().count_distinct()
        assert head + list(iterator) == sequence


class TestServedCommitCopies:
    """Count-based regression (no timing): served single-tuple commits do
    not deep-copy the big result view once per commit."""

    @staticmethod
    def served_engine():
        database = grid_db()
        # epsilon = 1: every key is light, the 12k-tuple result is a view
        engine = HierarchicalEngine(PATH_QUERY, epsilon=1.0).load(database)
        server = EngineServer(engine)
        server.on_commit(lambda version, delta: None)
        probe = engine.snapshot()
        relations = {
            id(relation): relation
            for specs in probe._component_specs
            for spec in specs
            for relation in spec.relations()
            if relation is not None
        }
        probe.close()
        largest = max(relations.values(), key=len)
        assert len(largest) >= 10_000
        copies = []
        plain_copy = largest.copy
        largest.copy = lambda name=None: copies.append(1) or plain_copy(name)
        return engine, server, copies, len(relations)

    @staticmethod
    def commits(server, base: int, count: int) -> None:
        # insert/delete pairs keep every degree and the database size where
        # they are, so no rebalance replaces the view under the test
        for i in range(count // 2):
            server.apply_update(Update("R", (base + i, i % 3), 1))
            server.apply_update(Update("R", (base + i, i % 3), -1))

    def test_commits_replay_instead_of_copying(self):
        engine, server, copies, relation_count = self.served_engine()
        truth = dict(engine.result())
        self.commits(server, 1_000, 200)
        assert engine.version == 200
        assert engine.rebalance_stats.major_rebalances == 0
        assert server.read().result() == truth
        assert len(copies) <= 2  # parent: one per commit
        # the counters /metrics exports tell the same story: the view's
        # ~110 changed tuples per commit are replayed; what is still copied
        # per commit is the 3-tuple indicator, where copying is cheaper
        stats = engine.snapshot_stats
        assert stats["replayed_entries"] >= 200 * 100
        assert stats["full_copies"] <= 200 + relation_count

    def test_held_snapshot_forces_exactly_one_fallback_copy(self):
        engine, server, copies, _ = self.served_engine()
        self.commits(server, 1_000, 20)
        pinned = server.pin()
        held = pinned.snapshot
        truth = held.result()
        sequence = list(held.enumerate())
        before = len(copies)
        self.commits(server, 2_000, 200)
        # the held snapshot pins the replica it resolved; the writer copies
        # once and trails the new replica from then on
        assert len(copies) == before + 1
        assert held.version == 20
        assert held.result() == truth
        assert list(held.enumerate()) == sequence
        pinned.close()
        self.commits(server, 3_000, 20)
        assert len(copies) == before + 1


class TestDeclaredReads:
    """A capture registers, and copy-on-write preserves, only the relations
    the compiled plans read (``EnumerationPlan.reads``)."""

    def test_relations_no_plan_reads_are_never_copied_or_replayed(self, monkeypatch):
        scenario = get_scenario("adversarial")
        database = scenario.make_database(7, 0.1)
        engine = HierarchicalEngine(scenario.query, epsilon=0.5).load(database)
        server = EngineServer(engine)
        frozen, copied = [], []
        freeze, copy = CowTracker._frozen_copy, Relation.copy_with_indexes
        monkeypatch.setattr(
            CowTracker,
            "_frozen_copy",
            lambda self, relation: frozen.append(relation.name) or freeze(self, relation),
        )
        monkeypatch.setattr(
            Relation,
            "copy_with_indexes",
            lambda self, keys: copied.append(len(self)) or copy(self, keys),
        )
        stream = list(scenario.make_stream(database, 600, 3))
        for start in range(0, len(stream), 20):  # a version published per commit
            server.apply_batch(stream[start : start + 20])
            if start % 60 == 0:
                server.read(limit=100)
        unread = {"R^{B}", "S^{B}", "V_B#0"}
        relations = {
            relation.name: relation
            for tree in engine._skew_plan.all_trees()
            for relation in tree.relations()
        }
        assert unread < set(relations) and set(frozen) == set(relations) - unread
        for name in unread:
            assert relations[name]._cow is None and relations[name]._cow_cache is None
        stats = engine.snapshot_stats
        assert stats["full_copies"] == len(copied)
        assert stats["copied_tuples"] == sum(copied)


def count_frozen_index_builds(monkeypatch):
    """Record ``(relation name, key schema)`` of every index ``ensure_index``
    builds from now on over a relation no tracker watches.  Called once the
    engine's first snapshot exists (from then on every live relation is
    watched), those are the builds on frozen copies."""
    builds = []
    ensure = Relation.ensure_index

    def counting(relation, key_schema):
        if relation._cow is None and not relation.has_index(key_schema):
            builds.append((relation.name, relation._normalise_key_schema(key_schema)))
        return ensure(relation, key_schema)

    monkeypatch.setattr(Relation, "ensure_index", counting)
    return builds


class TestFrozenIndexBuilds:
    """Count-based regression (no timing): a reader builds an index on
    frozen content once per (relation, key schema) its plan probes — not
    once per version, on the replay branch or on the fallback branch."""

    @staticmethod
    def served_engine():
        # epsilon = 0.5: all three B keys are heavy (degree 110 over a
        # threshold of ~26), so every first page probes R and S by B
        database = grid_db()
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5).load(database)
        return engine, EngineServer(engine)

    @staticmethod
    def singles(server, base: int, count: int):
        for i in range(count // 2):
            for sign in (1, -1):
                server.apply_update(Update("R", (base + i, i % 3), sign))
                assert len(server.read(limit=100).pairs) == 100

    def test_single_tuple_commits_build_each_probed_index_once(self, monkeypatch):
        engine, server = self.served_engine()
        builds = count_frozen_index_builds(monkeypatch)
        self.singles(server, 1_000, 10)
        warm = list(builds)
        assert warm and len(warm) == len(set(warm))
        self.singles(server, 2_000, 60)
        assert builds == warm  # parent: grows with every version read
        assert engine.snapshot_stats["replayed_entries"] >= 60
        assert engine.rebalance_stats.major_rebalances == 0

    def test_fallback_copies_inherit_and_replaced_replicas_are_not_garbage(
        self, monkeypatch
    ):
        engine, server = self.served_engine()
        builds = count_frozen_index_builds(monkeypatch)
        self.singles(server, 1_000, 10)
        warm = list(builds)
        # what readers probe, the live relations index too (the
        # partition key): every fallback copy below can inherit
        assert warm and all(
            engine.database.relation(name).has_index(key) for name, key in warm
        )
        gc.collect()
        gc.disable()
        try:
            # batches that outgrow the redo log of R (330 tuples with one
            # index to maintain or carry: 330 / 8 entries)
            before = dict(engine.snapshot_stats)
            for round_ in range(6):
                base = 2_000 + 100 * round_
                rows = [(base + i, i % 3) for i in range(100)]
                for sign in (1, -1):
                    server.apply_batch([Update("R", row, sign) for row in rows])
                    assert len(server.read(limit=100).pairs) == 100
            stats = engine.snapshot_stats
            assert stats["replayed_entries"] == before["replayed_entries"]
            assert stats["full_copies"] >= before["full_copies"] + 12
            assert stats["carried_indexes"] >= before["carried_indexes"] + 12
            assert builds == warm
            # a snapshot held open across 50 commits pins the replicas
            # it resolved: one fallback copy each, inheriting again
            pinned = server.pin()
            sequence = list(pinned.snapshot.enumerate())
            carried = stats["carried_indexes"]
            self.singles(server, 3_000, 50)
            assert engine.snapshot_stats["carried_indexes"] > carried
            assert builds == warm
            assert list(pinned.snapshot.enumerate()) == sequence
            pinned.close()
            self.singles(server, 4_000, 4)
            assert builds == warm
            assert engine.rebalance_stats.major_rebalances == 0
            # every replica that was replaced or released is freed by
            # refcount: nothing is left to the collector
            del pinned
            gc.set_debug(gc.DEBUG_SAVEALL)
            gc.collect()
            leaked = [o for o in gc.garbage if isinstance(o, Relation)]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            gc.enable()
        assert leaked == []


# ----------------------------------------------------------------------
# the order contract at the level where it is observable: a whole tree
# ----------------------------------------------------------------------
TREE_QUERIES = (PATH_QUERY, "Q(A, C, D) = R(A, B), S(B, C), T(B, D)")


def frozen_tree(shape, relations):
    """A view tree of ``shape`` over ``relations`` (an iterator, pre-order)."""
    kind, schema, child_shapes = shape
    relation = next(relations)
    if kind == "indicator":
        return IndicatorLeaf(schema, relation)
    if kind == "leaf":
        return LeafNode(relation.name, schema, relation)
    node = ViewNode(
        relation.name, schema, [frozen_tree(child, relations) for child in child_shapes]
    )
    node._relation = relation
    return node


class Unread:
    """Stands in for a relation the compiled plan does not read (the capture
    kept none): reading its content fails."""

    name = "unread"


def reference_sequence(snapshot):
    """What the interpreter enumerates over fresh ``copy()``s — no index
    older than this call — of the content ``snapshot`` froze.  Only the
    relations the plans declare are frozen; the interpreter must not need
    any other."""
    freeze, state = snapshot._tracker.freeze, snapshot._state
    trees = [
        [
            frozen_tree(
                spec.shape(),
                iter(
                    [
                        Unread() if relation is None else freeze(state, relation).copy()
                        for relation in spec.relations()
                    ]
                ),
            )
            for spec in specs
        ]
        for specs in snapshot._component_specs
    ]
    return list(reference_enumerate(trees, tuple(snapshot.query.head)))


# One step: a write, then what a reader does — read-and-close is what a
# served read is; "hold" keeps the snapshot open, so the next write to what
# it resolved takes the fallback branch.
tree_steps = st.lists(
    st.tuples(
        st.sampled_from(("insert", "insert", "delete", "delete", "batch", "none")),
        st.sampled_from(("read", "read", "read", "hold", "check", "close")),
        picks,
    ),
    min_size=4,
    max_size=12,
)


class TestTreeOrderAcrossBranches:
    @settings(max_examples=40, deadline=None)
    @given(
        query=st.sampled_from(TREE_QUERIES),
        epsilon=st.sampled_from((0.0, 0.5, 1.0)),
        seed=st.integers(min_value=0, max_value=1 << 16),
        steps=tree_steps,
    )
    def test_snapshot_enumerates_like_the_interpreter_over_fresh_copies(
        self, query, epsilon, seed, steps
    ):
        """Insert / delete streams with reads at random points, snapshots
        held open (the fallback branch) and batches that outgrow the redo
        log: whichever branch froze a relation and whichever index it kept,
        a snapshot enumerates the sequence the live engine did at capture,
        which is the interpreter's over index-free copies of that content."""
        rng = random.Random(seed)
        engine = HierarchicalEngine(query, epsilon=epsilon)
        names = [atom.relation for atom in engine.query.atoms]
        present = {name: {} for name in names}

        def fresh_row(name):
            # B is the join variable of every atom: a few hot values
            a, b = rng.randrange(40), min(rng.randrange(8), rng.randrange(8))
            return (a, b) if name == "R" else (b, a)

        def insert(name):
            row = fresh_row(name)
            present[name][row] = present[name].get(row, 0) + 1
            return Update(name, row, 1)

        def delete(name, pick):
            rows = list(present[name])
            row = rows[pick % len(rows)]
            present[name][row] -= 1
            if not present[name][row]:
                del present[name][row]
            return Update(name, row, -1)

        engine.load(
            Database.from_dict(
                {
                    name: (
                        ("A", "B") if name == "R" else ("B", name),
                        [insert(name).tuple for _ in range(70)],
                    )
                    for name in names
                }
            )
        )
        held = []  # (snapshot, list(engine.enumerate()) at its capture)

        def check(snapshot, live):
            got = list(snapshot.enumerate())
            assert got == live
            assert got == reference_sequence(snapshot)

        def capture():
            return engine.snapshot(), list(engine.enumerate())

        for write, read, pick in steps:
            name = names[pick % len(names)]
            if write == "insert":
                engine.apply(insert(name))
            elif write == "delete" and present[name]:
                engine.apply(delete(name, pick))
            elif write == "batch":
                # 12 changes against ~70 tuples: no log survives it
                engine.apply_batch([insert(name) for _ in range(12)])
            if read == "read":
                snapshot, live = capture()
                check(snapshot, live)
                snapshot.close()
            elif read == "hold":
                held.append(capture())
                check(*held[-1])
            elif held:
                snapshot, live = held[pick % len(held)]
                check(snapshot, live)
                if read == "close":
                    held.remove((snapshot, live))
                    snapshot.close()
        for snapshot, live in held + [capture()]:
            check(snapshot, live)
            snapshot.close()
