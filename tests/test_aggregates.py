"""Engine-level maintained aggregates: every read path against the fold.

The contract under test: for any registered `AggregateSpec`, the engine's
maintained answer equals the one true fold (`fold_result`) over a naive
recompute oracle at every step of an update stream — through retraction
churn, retunes, reloads, snapshots, sharded merges, and online reshards —
and every read path (maintained, enumerate-and-fold, snapshot, sharded)
records its cost into the engine's workload telemetry.
"""

from __future__ import annotations

import random

import pytest

from repro import Database, HierarchicalEngine, ShardedEngine, Update
from repro.baselines.naive import NaiveRecomputeEngine
from repro.core.api import StaticEngine
from repro.exceptions import StaleStateError, UnsupportedQueryError
from repro.rings import AggregateSpec, answer_map, fold_result

QUERY = "Q(A, C) = R(A, B), S(B, C)"
HEAD = ("A", "C")
DOMAIN = 6

SPECS = (
    AggregateSpec("counting", None, ("A",)),
    AggregateSpec("sum", "C", ("A",)),
    AggregateSpec("max", "C"),
    AggregateSpec("min", "C", ("A",)),
)


def make_database(seed: int = 5, rows: int = 50) -> Database:
    rng = random.Random(seed)
    database = Database()
    database.create_relation("R", ("A", "B"))
    database.create_relation("S", ("B", "C"))
    for _ in range(rows):
        database.relation("R").apply_delta(
            (rng.randrange(DOMAIN), rng.randrange(DOMAIN)), 1
        )
        database.relation("S").apply_delta(
            (rng.randrange(DOMAIN), rng.randrange(DOMAIN)), 1
        )
    return database


def churn_batches(seed: int = 21, batches: int = 12, size: int = 8):
    """Mixed insert/delete batches, ~40% retractions of earlier inserts."""
    rng = random.Random(seed)
    inserted = []
    out = []
    for _ in range(batches):
        batch = []
        for _ in range(size):
            if inserted and rng.random() < 0.4:
                relation, tup = inserted.pop(rng.randrange(len(inserted)))
                batch.append(Update(relation, tup, -1))
            else:
                relation = rng.choice(("R", "S"))
                tup = (rng.randrange(DOMAIN), rng.randrange(DOMAIN))
                inserted.append((relation, tup))
                batch.append(Update(relation, tup, 1))
        out.append(batch)
    return out


def oracle_answers(oracle: NaiveRecomputeEngine, spec: AggregateSpec):
    pairs = list(dict(oracle.result()).items())
    return answer_map(spec, fold_result(spec, HEAD, pairs))


def test_maintained_matches_fold_through_retraction_churn():
    engine = HierarchicalEngine(QUERY, epsilon=0.5).load(make_database())
    oracle = NaiveRecomputeEngine(QUERY)
    oracle.load(make_database())
    for spec in SPECS:
        engine.register_aggregate(spec)
    for batch in churn_batches():
        engine.apply_batch(batch)
        for update in batch:
            oracle.update(update.relation, update.tuple, update.multiplicity)
        for spec in SPECS:
            expected = oracle_answers(oracle, spec)
            assert engine.aggregate(spec) == expected, spec.describe()
            assert engine.aggregate(spec, maintained=False) == expected
    engine.check_invariants()
    engine.close()


def test_registration_survives_retune_and_refolds_on_reload():
    engine = HierarchicalEngine(QUERY, epsilon=0.5).load(make_database())
    spec = AggregateSpec("sum", "C", ("A",))
    engine.register_aggregate(spec)
    before = engine.aggregate(spec)
    engine.retune(0.25)
    assert engine.aggregate(spec) == before
    assert [s.key() for s in engine.registered_aggregates] == [spec.key()]
    # the maintained state keeps tracking after the retune
    engine.apply_batch([Update("R", (0, 1), 1), Update("S", (1, 5), 1)])
    oracle = NaiveRecomputeEngine(QUERY)
    oracle.load(make_database())
    oracle.update("R", (0, 1), 1)
    oracle.update("S", (1, 5), 1)
    assert engine.aggregate(spec) == oracle_answers(oracle, spec)
    # a reload refolds the registered state from the new database
    fresh = make_database(seed=99, rows=30)
    engine.load(fresh)
    twin = NaiveRecomputeEngine(QUERY)
    twin.load(make_database(seed=99, rows=30))
    assert engine.aggregate(spec) == oracle_answers(twin, spec)
    engine.close()


def test_static_engine_folds_on_demand_and_rejects_registration():
    engine = StaticEngine(QUERY)
    engine.load(make_database())
    oracle = NaiveRecomputeEngine(QUERY)
    oracle.load(make_database())
    spec = AggregateSpec("max", "C", ("A",))
    assert engine.aggregate(spec) == oracle_answers(oracle, spec)
    with pytest.raises(UnsupportedQueryError):
        engine.register_aggregate(spec)


def test_aggregate_reads_record_into_workload_telemetry():
    """Regression: both aggregate read paths must count as workload reads.

    The adaptive controller sizes ε from the read/update mix; an
    aggregate-heavy workload that recorded no reads would look
    write-only and be tuned for the wrong regime.
    """
    engine = HierarchicalEngine(QUERY, epsilon=0.5).load(make_database())
    spec = AggregateSpec("counting", None, ("A",))
    base = engine.telemetry.as_dict()["read_events"]
    answers = engine.aggregate(spec)
    after_maintained = engine.telemetry.as_dict()
    assert after_maintained["read_events"] == base + 1
    assert after_maintained["read_tuples"] >= len(answers)
    engine.aggregate(spec, maintained=False)
    assert engine.telemetry.as_dict()["read_events"] == base + 2
    engine.close()

    sharded = ShardedEngine(QUERY, shards=2, epsilon=0.5, executor="serial")
    sharded.load(make_database())
    base = sharded.telemetry.as_dict()["read_events"]
    sharded.aggregate(spec)
    assert sharded.telemetry.as_dict()["read_events"] == base + 1
    sharded.close()


def test_snapshot_aggregate_is_frozen_then_goes_stale():
    engine = HierarchicalEngine(QUERY, epsilon=0.5).load(make_database())
    oracle = NaiveRecomputeEngine(QUERY)
    oracle.load(make_database())
    spec = AggregateSpec("sum", "C", ("A",))
    snapshot = engine.snapshot()
    frozen = oracle_answers(oracle, spec)
    assert snapshot.aggregate(spec) == frozen
    # the live engine moves on; the snapshot's answer does not
    engine.apply_batch([Update("R", (0, 0), 1), Update("S", (0, 0), 1)])
    assert snapshot.aggregate(spec) == frozen
    assert snapshot.aggregate("sum", "C", group_by=("A",)) == frozen
    # a reload invalidates the capture like any snapshot read
    engine.load(make_database(seed=7))
    with pytest.raises(StaleStateError):
        snapshot.aggregate(spec)
    engine.close()


def test_sharded_aggregate_merges_to_the_single_engine_answer():
    single = HierarchicalEngine(QUERY, epsilon=0.5).load(make_database())
    sharded = ShardedEngine(QUERY, shards=2, epsilon=0.5, executor="serial")
    sharded.load(make_database())
    for spec in SPECS:
        sharded.register_aggregate(spec)
        single.register_aggregate(spec)
    batches = churn_batches(seed=31)
    for number, batch in enumerate(batches):
        single.apply_batch(batch)
        sharded.apply_batch(batch)
        if number == len(batches) // 2:
            sharded.reshard(4)  # registry re-broadcast to the new fleet
        for spec in SPECS:
            assert sharded.aggregate(spec) == single.aggregate(spec), (
                spec.describe()
            )
            assert sharded.aggregate_elements(spec) == single.aggregate_elements(
                spec
            )
    assert {s.key() for s in sharded.registered_aggregates} == {
        s.key() for s in SPECS
    }
    sharded.check_invariants()
    # sharded snapshots answer at their pinned version
    snapshot_spec = SPECS[1]
    snapshot = sharded.snapshot()
    pinned = sharded.aggregate(snapshot_spec)
    sharded.apply_batch([Update("R", (1, 1), 1), Update("S", (1, 1), 1)])
    assert snapshot.aggregate(snapshot_spec) == pinned
    snapshot.close()
    sharded.close()
    single.close()


def test_sharded_facade_rejects_callable_specs_eagerly():
    sharded = ShardedEngine(QUERY, shards=2, epsilon=0.5, executor="serial")
    sharded.load(make_database())
    with pytest.raises(TypeError, match="cannot cross"):
        sharded.register_aggregate(AggregateSpec("sum", lambda tup: tup[0]))
    sharded.close()


def test_a_prebuilt_spec_excludes_value_and_group_by_on_every_surface():
    """One coercion (`AggregateSpec.coerce`): engines and snapshots, single
    and sharded, refuse a spec passed together with `value` / `group_by`."""
    spec = SPECS[1]
    assert AggregateSpec.coerce(spec) is spec
    assert AggregateSpec.coerce("sum", "C", ("A",)).key() == spec.key()
    single = HierarchicalEngine(QUERY, epsilon=0.5).load(make_database())
    sharded = ShardedEngine(QUERY, shards=2, epsilon=0.5, executor="serial")
    sharded.load(make_database())
    snapshots = [single.snapshot(), sharded.snapshot()]
    for surface in (single, sharded, *snapshots):
        with pytest.raises(ValueError, match="not both"):
            surface.aggregate(spec, value="A")
        with pytest.raises(ValueError, match="not both"):
            surface.aggregate(spec, group_by=("C",))
        assert surface.aggregate(spec) == surface.aggregate("sum", "C", ("A",))
    for snapshot in snapshots:
        snapshot.close()
    sharded.close()
    single.close()


@pytest.mark.parametrize("deployment", ["single", "durable", "sharded"])
def test_a_value_the_ring_cannot_lift_does_not_break_a_commit(deployment, tmp_path):
    """A string under a registered `sum`: the commit lands whole (result,
    invariants, WAL), reading the aggregate raises the ring's error on the
    maintained and the fold path alike, and deleting the value brings the
    maintained answer back (a recovered engine registers the spec anew, so
    its state is rebuilt with the value in it, then cancels it)."""
    spec = AggregateSpec("sum", "C", ("A",))
    if deployment == "sharded":
        engine = ShardedEngine(QUERY, shards=2, epsilon=0.5, executor="serial")
    else:
        durability = tmp_path if deployment == "durable" else None
        engine = HierarchicalEngine(QUERY, epsilon=0.5, durability=durability)
    engine.load(make_database())
    oracle = NaiveRecomputeEngine(QUERY)
    oracle.load(make_database())
    engine.register_aggregate(spec)
    bad = [Update("R", (0, 0), 1), Update("S", (0, "x"), 1)]
    engine.apply_batch(bad)
    for update in bad:
        oracle.update(update.relation, update.tuple, update.multiplicity)
    assert engine.result() == dict(oracle.result())
    engine.check_invariants()
    for maintained in (True, False):
        with pytest.raises(TypeError, match="numeric values, got str"):
            engine.aggregate(spec, maintained=maintained)
    if deployment == "durable":
        engine.close()
        engine, _report = HierarchicalEngine.recover(tmp_path)
        assert engine.result() == dict(oracle.result())
        engine.register_aggregate(spec)
    engine.apply(Update("S", (0, "x"), -1))
    oracle.update("S", (0, "x"), -1)
    assert engine.aggregate(spec) == oracle_answers(oracle, spec)
    assert engine.aggregate(spec, maintained=False) == oracle_answers(oracle, spec)
    engine.close()
