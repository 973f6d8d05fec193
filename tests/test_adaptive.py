"""Adaptive ε retuning: telemetry, controller policy, retune equivalence."""

from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st

from repro import (
    AdaptiveController,
    Database,
    HierarchicalEngine,
    StaticEngine,
    Update,
    WorkloadTelemetry,
)
from repro.adaptive import CostModel
from repro.baselines import NaiveRecomputeEngine
from repro.conformance import ConformanceCase, run_case
from repro.core.serving import EngineServer
from repro.exceptions import UnsupportedQueryError
from repro.sharding import ShardedEngine
from repro.workloads import (
    PHASE_SHIFT_QUERY,
    heavy_flipflop_stream,
    phase_shift_database,
    phase_shift_ops,
    phase_shift_write_stream,
    read_burst_ops,
)

PATH_QUERY = "Q(A, C) = R(A, B), S(B, C)"
STAR2_QUERY = "Q(A, C, D) = R(A, B), S(B, C), T(B, D)"


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


def churn_updates(seed: int, count: int, domain: int = 12):
    rng = random.Random(seed)
    updates, inserted = [], []
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


class TestWorkloadTelemetry:
    def test_counts_and_totals(self):
        telemetry = WorkloadTelemetry(alpha=0.5)
        telemetry.record_update(3, 0.25)
        telemetry.record_update(1, 0.75)
        telemetry.record_read(10, 0.5)
        assert telemetry.update_events == 2
        assert telemetry.update_tuples == 4
        assert telemetry.update_seconds == pytest.approx(1.0)
        assert telemetry.read_events == 1
        assert telemetry.read_tuples == 10
        assert telemetry.events == 3

    def test_read_fraction_tracks_the_mix(self):
        telemetry = WorkloadTelemetry(alpha=0.5)
        assert telemetry.read_fraction() == 0.5  # neutral prior
        telemetry.record_update(1, 0.001)
        assert telemetry.read_fraction() == 0.0  # first event seeds the EWMA
        telemetry.record_read(1, 0.001)
        assert telemetry.read_fraction() == pytest.approx(0.5)
        for _ in range(10):
            telemetry.record_read(1, 0.001)
        assert telemetry.read_fraction() > 0.95
        for _ in range(10):
            telemetry.record_update(1, 0.001)
        assert telemetry.read_fraction() < 0.05

    def test_ewma_smoothing_and_reset(self):
        telemetry = WorkloadTelemetry(alpha=0.5)
        telemetry.record_update(1, 1.0)
        telemetry.record_update(1, 0.0)
        assert telemetry.ewma_update_seconds == pytest.approx(0.5)
        telemetry.reset()
        assert telemetry.events == 0
        assert telemetry.ewma_update_seconds is None
        assert telemetry.read_fraction() == 0.5

    def test_alpha_validation(self):
        with pytest.raises(ValueError):
            WorkloadTelemetry(alpha=0.0)
        with pytest.raises(ValueError):
            WorkloadTelemetry(alpha=1.5)

    def test_engine_records_updates_and_reads(self):
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5).load(path_db())
        engine.update("R", (1, 2), 1)
        engine.apply_batch(churn_updates(1, 6))
        list(engine.enumerate())
        assert engine.telemetry.update_events == 2
        assert engine.telemetry.update_tuples == 7
        assert engine.telemetry.read_events == 1
        assert engine.telemetry.read_tuples == engine.count_distinct()
        assert engine.telemetry.update_seconds > 0.0
        assert engine.telemetry.read_seconds > 0.0

    def test_partial_reads_are_recorded(self):
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5).load(path_db())
        produced = 0
        for _pair in engine.enumerate():
            produced += 1
            if produced >= 3:
                break
        assert engine.telemetry.read_events == 1
        assert engine.telemetry.read_tuples == 3

    def test_sharded_facade_records_both_kinds(self):
        engine = ShardedEngine(PATH_QUERY, shards=2, executor="serial")
        engine.load(path_db())
        engine.update("R", (1, 2), 1)
        engine.apply_batch(churn_updates(2, 5))
        list(engine.enumerate())
        assert engine.telemetry.update_events == 2
        assert engine.telemetry.read_events == 1
        engine.close()

    def test_telemetry_false_opts_out(self):
        engine = HierarchicalEngine(PATH_QUERY, telemetry=False).load(path_db())
        engine.update("R", (1, 2), 1)
        list(engine.enumerate())
        assert engine.telemetry is None
        with pytest.raises(ValueError):
            AdaptiveController(engine)
        sharded = ShardedEngine(
            PATH_QUERY, shards=2, executor="serial", telemetry=False
        )
        sharded.load(path_db())
        sharded.update("R", (1, 2), 1)
        list(sharded.enumerate())
        assert sharded.telemetry is None
        sharded.close()

    def test_concurrent_reader_recording_loses_no_events(self):
        import threading

        telemetry = WorkloadTelemetry()
        per_thread = 500

        def feed_reads():
            for _ in range(per_thread):
                telemetry.record_read(1, 0.0)

        def feed_writes():
            for _ in range(per_thread):
                telemetry.record_update(1, 0.0)

        threads = [threading.Thread(target=feed_reads) for _ in range(3)]
        threads.append(threading.Thread(target=feed_writes))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert telemetry.read_events == 3 * per_thread
        assert telemetry.update_events == per_thread


class TestRetune:
    def test_retune_rebases_threshold_and_counts(self):
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.25).load(path_db())
        for update in churn_updates(3, 30):
            engine.apply(update)
        version_before = engine.version
        engine.retune(0.75)
        assert engine.epsilon == 0.75
        assert engine._driver.epsilon == 0.75
        assert engine.threshold_base == 2 * engine.database.size + 1
        assert engine.threshold == engine.threshold_base**0.75
        assert engine.version == version_before + 1
        assert engine.rebalance_stats.retunes == 1
        engine.check_invariants()

    def test_retune_preserves_the_result(self):
        database = path_db(seed=9)
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.0).load(database)
        oracle = NaiveRecomputeEngine(PATH_QUERY).load(database)
        updates = churn_updates(4, 40)
        for update in updates[:20]:
            engine.apply(update)
            oracle.apply(update)
        engine.retune(1.0)
        assert dict(engine.result()) == dict(oracle.result())
        for update in updates[20:]:
            engine.apply(update)
            oracle.apply(update)
        assert dict(engine.result()) == dict(oracle.result())

    def test_retune_equals_rebuild_order_included(self):
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5).load(path_db(seed=11))
        for update in churn_updates(5, 50):
            engine.apply(update)
        engine.retune(0.0)
        rebuilt = HierarchicalEngine(PATH_QUERY, epsilon=0.0).load(engine.database)
        assert list(engine.enumerate()) == list(rebuilt.enumerate())

    def test_snapshot_survives_retune(self):
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5).load(path_db(seed=7))
        before = dict(engine.result())
        snapshot = engine.snapshot()
        engine.retune(0.0)
        for update in churn_updates(6, 25):
            engine.apply(update)
        assert dict(snapshot.result()) == before
        snapshot.close()

    def test_retune_validation_and_static_rejection(self):
        engine = HierarchicalEngine(PATH_QUERY).load(path_db())
        with pytest.raises(ValueError):
            engine.retune(1.5)
        static = StaticEngine(PATH_QUERY).load(path_db())
        with pytest.raises(UnsupportedQueryError):
            static.retune(0.5)

    def test_retune_same_epsilon_is_a_full_rebase(self):
        """retune(current ε) still re-anchors M — uniform semantics."""
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5).load(path_db())
        for update in churn_updates(8, 60):
            engine.apply(update)
        engine.retune(0.5)
        assert engine.threshold_base == 2 * engine.database.size + 1
        assert engine.rebalance_stats.retunes == 1

    def test_sharded_retune_matches_fresh_deployment(self):
        database = path_db(seed=13)
        updates = churn_updates(7, 40)
        sharded = ShardedEngine(PATH_QUERY, shards=4, epsilon=0.0, executor="serial")
        sharded.load(database)
        for update in updates[:20]:
            sharded.apply(update)
        version_before = sharded.version
        sharded.retune(1.0)
        assert sharded.epsilon == 1.0
        assert sharded.version == version_before + 1
        fresh = ShardedEngine(PATH_QUERY, shards=4, epsilon=1.0, executor="serial")
        fresh.load(database)
        for update in updates[:20]:
            fresh.apply(update)
        for update in updates[20:]:
            sharded.apply(update)
            fresh.apply(update)
        # the same pairs; a retuned shard's tree order follows its history
        assert Counter(sharded.enumerate()) == Counter(fresh.enumerate())
        sharded.check_invariants()
        # per-shard retune counters fold up through the facade
        stats = sharded.rebalance_stats
        assert stats.retunes == 4
        per_shard = sharded.rebalance_stats_per_shard()
        assert all(entry.retunes == 1 for entry in per_shard)
        sharded.close()
        fresh.close()

    def test_sharded_retune_works_across_process_pipes(self):
        sharded = ShardedEngine(PATH_QUERY, shards=2, epsilon=0.5, executor="process")
        sharded.load(path_db(seed=17))
        expected = dict(sharded.result())
        sharded.retune(0.0)
        assert dict(sharded.result()) == expected
        assert sharded.rebalance_stats.retunes == 2
        sharded.close()


# A failing differential run reports its first failing example as found:
# each shrink step would be a whole ``run_case``, and its mismatch list
# already names the engine, checkpoint and tuple.
NO_SHRINK = tuple(phase for phase in Phase if phase is not Phase.shrink)


def assert_conformant(query, epsilons, database, updates):
    """One differential run over the ε grid ``epsilons``: every engine equals
    the oracle, and each engine retuned mid-case (to a target the case's
    digest picks) equals a fresh engine at that target over the same
    database, order included."""
    case = ConformanceCase.build(query, database, updates, epsilons=epsilons, checkpoints=3)
    report = run_case(case)
    assert report.ok, [str(m) for m in report.mismatches]


class TestRetuneEquivalenceProperty:
    """Satellite: Hypothesis property — retune(ε₂) ≡ fresh engine at ε₂."""

    @settings(max_examples=10, deadline=None, phases=NO_SHRINK)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        eps_before=st.sampled_from((0.0, 0.25, 0.5, 1.0)),
        eps_after=st.sampled_from((0.0, 0.5, 0.75, 1.0)),
    )
    def test_retune_equivalence_random_churn(self, seed, eps_before, eps_after):
        database = path_db(seed=seed, size=40)
        updates = churn_updates(seed + 1, 36)
        assert_conformant(PATH_QUERY, (eps_before, eps_after), database, updates)

    @settings(max_examples=4, deadline=None, phases=NO_SHRINK)
    @given(seed=st.integers(min_value=0, max_value=1_000))
    def test_retune_equivalence_under_forced_major_rebalances(self, seed):
        """The growth stream doubles the database: majors fire on both sides."""
        database = path_db(seed=seed, size=15, domain=6)
        rng = random.Random(seed)
        updates = [
            Update("R", (rng.randrange(50), rng.randrange(6)), 1)
            for _ in range(3 * database.size)
        ]
        assert_conformant(PATH_QUERY, (0.5, 1.0), database, updates)

    @settings(max_examples=4, deadline=None, phases=NO_SHRINK)
    @given(seed=st.integers(min_value=0, max_value=1_000))
    def test_retune_equivalence_under_forced_minor_rebalances(self, seed):
        """The flip-flop stream drags one key across the threshold repeatedly."""
        database = path_db(seed=seed, size=50, domain=10)
        updates = list(heavy_flipflop_stream(cycles=2, burst=20, hot_key=3, seed=seed))
        assert_conformant(PATH_QUERY, (0.5, 0.25), database, updates)

    def test_star_query_retune_equivalence(self):
        rng = random.Random(0)
        database = Database.from_dict(
            {
                "R": (("A", "B"), [(rng.randrange(20), rng.randrange(6)) for _ in range(30)]),
                "S": (("B", "C"), [(rng.randrange(6), rng.randrange(20)) for _ in range(30)]),
                "T": (("B", "D"), [(rng.randrange(6), rng.randrange(20)) for _ in range(30)]),
            }
        )
        updates = [
            Update("T", (rng.randrange(6), rng.randrange(20)), 1) for _ in range(24)
        ]
        assert_conformant(STAR2_QUERY, (0.0, 1.0), database, updates)


class TestCostModel:
    def test_write_heavy_mix_prefers_small_epsilon(self):
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5).load(path_db())
        telemetry = WorkloadTelemetry(alpha=0.5)
        for _ in range(20):
            telemetry.record_update(1, 0.001)
        model = CostModel(engine.plan)
        size = engine.database.size
        costs = {
            eps: model.predict(eps, 0.5, size, telemetry) for eps in (0.0, 0.5, 1.0)
        }
        assert costs[0.0] < costs[0.5] < costs[1.0]

    def test_read_heavy_mix_prefers_large_epsilon(self):
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5).load(path_db())
        telemetry = WorkloadTelemetry(alpha=0.5)
        for _ in range(20):
            telemetry.record_read(10, 0.001)
        model = CostModel(engine.plan)
        size = engine.database.size
        costs = {
            eps: model.predict(eps, 0.5, size, telemetry) for eps in (0.0, 0.5, 1.0)
        }
        assert costs[1.0] < costs[0.5] < costs[0.0]


class TestAdaptiveController:
    def _controller(self, **kwargs):
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5).load(path_db())
        kwargs.setdefault("epsilons", (0.0, 0.5, 1.0))
        kwargs.setdefault("hysteresis", 1.1)
        kwargs.setdefault("cooldown", 4)
        return engine, AdaptiveController(engine, **kwargs)

    def test_cooldown_blocks_early_proposals(self):
        engine, controller = self._controller(cooldown=8)
        for _ in range(7):
            engine.telemetry.record_update(1, 0.001)
        assert controller.propose() is None

    def test_write_burst_drives_epsilon_down(self):
        engine, controller = self._controller()
        for _ in range(10):
            engine.telemetry.record_update(1, 0.001)
        assert controller.propose() == 0.0
        assert controller.maybe_retune() == 0.0
        assert engine.epsilon == 0.0
        assert controller.retunes_applied == 1

    def test_read_burst_drives_epsilon_up(self):
        engine, controller = self._controller()
        for _ in range(10):
            engine.telemetry.record_read(5, 0.001)
        proposal = controller.propose()
        assert proposal is not None and proposal > 0.5

    def test_hysteresis_blocks_marginal_wins(self):
        engine, controller = self._controller(hysteresis=1e9)
        for _ in range(10):
            engine.telemetry.record_update(1, 0.001)
        assert controller.propose() is None

    def test_cooldown_applies_between_retunes(self):
        engine, controller = self._controller(cooldown=4)
        for _ in range(6):
            engine.telemetry.record_update(1, 0.001)
        assert controller.maybe_retune() == 0.0
        engine.telemetry.record_update(1, 0.001)
        assert controller.maybe_retune() is None  # within cooldown again

    def test_validation(self):
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5).load(path_db())
        with pytest.raises(ValueError):
            AdaptiveController(engine, epsilons=())
        with pytest.raises(ValueError):
            AdaptiveController(engine, epsilons=(0.5, 1.2))
        with pytest.raises(ValueError):
            AdaptiveController(engine, hysteresis=0.5)
        with pytest.raises(ValueError):
            AdaptiveController(engine, cooldown=0)

    def test_controller_drives_sharded_engine(self):
        engine = ShardedEngine(PATH_QUERY, shards=2, epsilon=0.5, executor="serial")
        engine.load(path_db())
        controller = AdaptiveController(
            engine, epsilons=(0.0, 0.5, 1.0), hysteresis=1.1, cooldown=4
        )
        for _ in range(10):
            engine.telemetry.record_update(1, 0.001)
        assert controller.maybe_retune() == 0.0
        assert engine.epsilon == 0.0
        assert engine.rebalance_stats.retunes == 2
        engine.close()


class TestAdaptiveWorkloads:
    def test_phase_shift_ops_shape(self):
        database = phase_shift_database(size=120, seed=1)
        ops = phase_shift_ops(
            database, phases=4, writes_per_phase=50, reads_per_phase=10, seed=2
        )
        kinds = [kind for kind, _payload in ops]
        assert kinds.count("read") == 20  # two read phases
        assert kinds[:50] == ["write"] * 50  # phase 0 is a pure write burst

    def test_phase_shift_ops_replay_cleanly(self):
        """Interleaving must never reorder a delete before its insert."""
        database = phase_shift_database(size=120, seed=3)
        engine = HierarchicalEngine(PHASE_SHIFT_QUERY, epsilon=0.5).load(database)
        ops = phase_shift_ops(
            database, phases=4, writes_per_phase=60, reads_per_phase=8, seed=4
        )
        for kind, payload in ops:
            if kind == "write":
                engine.apply(payload)
        engine.check_invariants()

    def test_read_burst_ops_shape(self):
        database = phase_shift_database(size=120, seed=5)
        ops = read_burst_ops(database, writes=40, reads=15, seed=6)
        assert [kind for kind, _payload in ops] == ["write"] * 40 + ["read"] * 15

    def test_write_stream_is_valid_against_database(self):
        database = phase_shift_database(size=150, seed=7)
        engine = HierarchicalEngine(PHASE_SHIFT_QUERY, epsilon=0.5).load(database)
        engine.apply_batch(list(phase_shift_write_stream(80, seed=8)))
        engine.check_invariants()

    def test_adaptive_loop_converges_per_phase(self):
        """On a miniature phase shift the controller lands on sane endpoints."""
        database = phase_shift_database(size=200, seed=9)
        engine = HierarchicalEngine(PHASE_SHIFT_QUERY, epsilon=0.5).load(database)
        controller = AdaptiveController(
            engine, epsilons=(0.0, 0.5, 1.0), hysteresis=1.5, cooldown=8
        )
        oracle = NaiveRecomputeEngine(PHASE_SHIFT_QUERY).load(database)
        ops = phase_shift_ops(
            database, phases=2, writes_per_phase=120, reads_per_phase=20, seed=10
        )
        epsilon_after_writes = None
        for index, (kind, payload) in enumerate(ops):
            if kind == "write":
                engine.apply(payload)
                oracle.apply(payload)
            else:
                for _pair in engine.enumerate():
                    pass
            controller.maybe_retune()
            if index == 119:
                epsilon_after_writes = engine.epsilon
        assert epsilon_after_writes == 0.0  # the write burst pulled ε down
        assert engine.epsilon >= 0.5  # the read phase pushed it back up
        assert controller.retunes_applied >= 2
        assert dict(engine.result()) == dict(oracle.result())


class TestServerAutoRetune:
    def test_server_retunes_between_commits(self):
        database = phase_shift_database(size=200, seed=21)
        engine = HierarchicalEngine(PHASE_SHIFT_QUERY, epsilon=1.0).load(database)
        controller = AdaptiveController(
            engine, epsilons=(0.0, 1.0), hysteresis=1.1, cooldown=2
        )
        server = EngineServer(engine, controller=controller)
        oracle = NaiveRecomputeEngine(PHASE_SHIFT_QUERY).load(database)
        stream = list(phase_shift_write_stream(60, seed=22))
        for start in range(0, len(stream), 10):
            chunk = stream[start : start + 10]
            server.apply_batch(chunk)
            oracle.apply_batch(chunk)
        assert server.stats.retunes_applied >= 1
        assert engine.epsilon == 0.0  # pure write traffic
        ticket = server.read()
        assert ticket.result() == dict(oracle.result())

    def test_server_reads_feed_telemetry(self):
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5).load(path_db())
        server = EngineServer(engine)
        server.apply_batch(churn_updates(23, 10))
        server.read()
        server.read(limit=2)
        assert engine.telemetry.read_events == 2

    def test_server_without_controller_never_retunes(self):
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5).load(path_db())
        server = EngineServer(engine)
        server.apply_batch(churn_updates(24, 10))
        assert server.stats.retunes_applied == 0
        assert engine.rebalance_stats.retunes == 0
