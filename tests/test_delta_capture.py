"""Result-delta capture: the per-commit net deltas that feed subscriptions.

``engine.set_delta_capture(True)`` makes the maintenance layer accumulate,
per commit, the net *result-level* delta of the ingested updates (the
first-order delta of each net relation group against its group-sequential
siblings); ``drain_result_delta()`` hands it over and resets.  The
networked serving layer replays these deltas on subscribers' mirrors, so
their one correctness contract is checked here directly: starting from
the result at capture time and applying every drained delta reproduces a
recompute oracle's result after every commit — through batches, single
updates, deletes, minor/major rebalances, and explicit retunes (which are
result-preserving and must drain empty), on both the single-process
engine and the sharded facade.
"""

from __future__ import annotations

import random

import pytest

from repro import Database, HierarchicalEngine, Update
from repro.baselines.naive import NaiveRecomputeEngine
from repro.core.serving import EngineServer
from repro.exceptions import RejectedUpdateError, UnsupportedQueryError
from repro.sharding import ShardedEngine

PATH_QUERY = "Q(A, C) = R(A, B), S(B, C)"
DOMAIN = 8


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


def mixed_batches(count: int, size: int, seed: int = 21):
    rng = random.Random(seed)
    inserted = []
    for _ in range(count):
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
        yield batch


def apply_delta(result, delta) -> None:
    for tup, mult in delta.items():
        updated = result.get(tup, 0) + mult
        if updated:
            result[tup] = updated
        else:
            result.pop(tup, None)


@pytest.mark.parametrize("make_engine", ["hierarchical", "sharded"])
def test_drained_deltas_reproduce_oracle(make_engine):
    """Replayed drained deltas track the oracle through every commit."""
    if make_engine == "hierarchical":
        engine = HierarchicalEngine(PATH_QUERY, epsilon=0.4)
    else:
        engine = ShardedEngine(PATH_QUERY, shards=3, executor="serial")
    engine.set_delta_capture(True)
    engine.load(make_database())
    oracle = NaiveRecomputeEngine(PATH_QUERY)
    oracle.load(make_database())
    mirror = engine.result()

    for index, batch in enumerate(mixed_batches(24, 6)):
        engine.apply_batch(batch)
        for update in batch:
            oracle.update(update.relation, update.tuple, update.multiplicity)
        apply_delta(mirror, engine.drain_result_delta())
        assert mirror == oracle.result(), f"diverged after batch {index}"
        if index == 11:
            # a retune (major rebalance) is result-preserving: the next
            # drain must contain nothing from it
            engine.retune(0.9)
            assert engine.drain_result_delta() == {}
            assert mirror == engine.result()

    engine.close()


def test_single_update_path_captures():
    """engine.apply / engine.update feed the same capture as batches."""
    engine = HierarchicalEngine(PATH_QUERY)
    engine.set_delta_capture(True)
    engine.load(make_database())
    oracle = NaiveRecomputeEngine(PATH_QUERY)
    oracle.load(make_database())
    mirror = engine.result()
    rng = random.Random(3)
    for _ in range(30):
        tup = (rng.randrange(DOMAIN), rng.randrange(DOMAIN))
        relation = rng.choice(("R", "S"))
        engine.update(relation, tup, 1)
        oracle.update(relation, tup, 1)
        apply_delta(mirror, engine.drain_result_delta())
        assert mirror == oracle.result()


def test_rejected_batch_leaves_capture_clean():
    """A rejected commit must contribute nothing to the next drain."""
    engine = HierarchicalEngine(PATH_QUERY)
    engine.set_delta_capture(True)
    database = Database()
    database.create_relation("R", ("A", "B"))
    database.create_relation("S", ("B", "C"))
    database.relation("R").apply_delta((1, 1), 1)
    database.relation("S").apply_delta((1, 1), 1)
    engine.load(database)
    engine.drain_result_delta()  # discard anything from the load

    with pytest.raises(RejectedUpdateError):
        engine.apply_batch([Update("R", (9, 9), -1)])  # nothing to delete
    assert engine.drain_result_delta() == {}

    engine.apply_batch([Update("R", (1, 2), 1), Update("S", (2, 3), 1)])
    assert engine.drain_result_delta() == {(1, 3): 1}


def test_capture_disabled_by_default_and_toggleable():
    engine = HierarchicalEngine(PATH_QUERY).load(make_database())
    engine.apply_batch([Update("R", (0, 0), 1)])
    assert engine.drain_result_delta() == {}  # capture off: nothing kept
    engine.set_delta_capture(True)
    engine.apply_batch([Update("S", (0, 0), 1)])
    first = engine.drain_result_delta()
    assert engine.drain_result_delta() == {}  # drain resets
    engine.set_delta_capture(False)
    engine.apply_batch([Update("S", (0, 1), 1)])
    assert engine.drain_result_delta() == {}
    assert isinstance(first, dict)


def test_capture_requires_dynamic_mode():
    from repro.core.api import StaticEngine

    static = StaticEngine(PATH_QUERY)
    with pytest.raises(UnsupportedQueryError):
        static.set_delta_capture(True)
    sharded = ShardedEngine(PATH_QUERY, mode="static", shards=2)
    with pytest.raises(UnsupportedQueryError):
        sharded.set_delta_capture(True)


def test_capture_enabled_before_load_survives_reload():
    """set_delta_capture(True) before load() applies to every later load."""
    engine = HierarchicalEngine(PATH_QUERY)
    engine.set_delta_capture(True)
    engine.load(make_database(seed=1))
    engine.apply_batch([Update("R", (0, 0), 1), Update("S", (0, 0), 1)])
    assert engine.drain_result_delta().get((0, 0), 0) >= 1
    engine.load(make_database(seed=2))  # wholesale replace
    engine.apply_batch([Update("R", (1, 1), 1), Update("S", (1, 1), 1)])
    drained = engine.drain_result_delta()
    assert drained.get((1, 1), 0) >= 1


def test_sharded_load_starts_capture_empty():
    """A re-load replaces the deployment: what the old one captured and
    nobody drained is not the new one's delta."""
    engine = ShardedEngine(PATH_QUERY, shards=2, executor="serial")
    engine.set_delta_capture(True)
    engine.load(make_database())
    engine.apply_batch([Update("R", (0, 0), 1), Update("S", (0, 0), 1)])
    engine.load(make_database())
    assert engine.drain_result_delta() == {}
    engine.close()


def test_served_sharded_commit_runs_no_drain_round():
    """Each shard's delta rides its commit reply, so a served commit runs
    the commit round and the publish's snapshot round, and no third round
    to collect the deltas."""
    engine = ShardedEngine(PATH_QUERY, shards=4, executor="serial")
    engine.load(make_database())
    server = EngineServer(engine)
    seen = []
    server.on_commit(lambda version, delta: seen.append(delta))
    rounds = []
    send = engine._executor.map

    def recorded(commands):
        rounds.append(sorted({command for command, _ in commands.values()}))
        return send(commands)

    engine._executor.map = recorded
    before = engine.result()
    rounds.clear()
    server.apply_update(Update("R", (0, 0), 1))
    assert rounds == [["commit"], ["snapshot"]]
    after = engine.result()
    apply_delta(before, seen[-1])
    assert before == after
    engine.close()
