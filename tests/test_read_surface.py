"""The read surface, written once: every engine-shaped class reads alike.

``result``, ``count_distinct``, iteration and ``aggregate`` are derived from
``enumerate()`` and ``aggregate_elements()`` in one base class
(:class:`repro.enumeration.result.ReadSurface`).  The contract test checks
each inheriting class — the single and sharded engines (static and dynamic),
their snapshots, every baseline and a supervised fleet — against the naive
oracle; the telemetry test pins the one read path a served aggregate takes;
the close-once test races the one pin count published versions and retired
fleets share.
"""

from __future__ import annotations

import threading

import pytest

from repro import HierarchicalEngine, StaticEngine, Update
from repro.baselines import (
    FirstOrderIVMEngine,
    FreeConnexEngine,
    FullMaterializationEngine,
    NaiveRecomputeEngine,
)
from repro.core.serving import EngineServer
from repro.durability.supervisor import ShardSupervisor
from repro.engine.evaluator import evaluate_query_naive
from repro.exceptions import StaleStateError
from repro.query import parse_query
from repro.rings.spec import AggregateSpec, answer_map, fold_result
from repro.sharding import ShardedEngine
from repro.snapshot.versioned import PinCount
from tests.conftest import random_database, schemas_for

QUERIES = ("Q(A, C) = R(A, B), S(B, C)", "Q(A, B, C) = R(A, B), S(B, C)")
UPDATES = [
    Update("R", (7, 1), 1),
    Update("S", (1, 9), 1),
    Update("S", (2, 8), 1),
    Update("R", (8, 2), 1),
]
# Committed to the live engine after a snapshot is captured: the snapshot
# must not see it.
LATER = Update("R", (9, 1), 1)


def fresh_database(query):
    return random_database(schemas_for(query), tuples_per_relation=20, seed=3)


def applied(database):
    for update in UPDATES:
        database.relation(update.relation).apply_delta(update.tuple, update.multiplicity)
    return database


def engine_case(make):
    def build(query, tmp_path):
        engine = make(query).load(fresh_database(query))
        engine.apply_batch(UPDATES)
        return engine, [engine]
    return build


def snapshot_case(make):
    def build(query, tmp_path):
        engine = make(query).load(fresh_database(query))
        engine.apply_batch(UPDATES)
        snapshot = engine.snapshot()
        engine.apply(LATER)
        return snapshot, [engine]
    return build


def static_case(query, tmp_path):
    engine = StaticEngine(query).load(applied(fresh_database(query)))
    return engine, [engine]


def supervised_case(query, tmp_path):
    engine = ShardedEngine(query, shards=2, executor="serial", durability=tmp_path / "wal")
    engine.load(fresh_database(query))
    supervisor = ShardSupervisor(engine)
    supervisor.apply_batch(UPDATES)
    return supervisor, [supervisor]


def sharded(query):
    return ShardedEngine(query, shards=2, executor="serial")


CASES = {
    "engine": engine_case(HierarchicalEngine),
    "static_engine": static_case,
    "sharded_engine": engine_case(sharded),
    "snapshot": snapshot_case(HierarchicalEngine),
    "sharded_snapshot": snapshot_case(sharded),
    "naive_baseline": engine_case(NaiveRecomputeEngine),
    "first_order_baseline": engine_case(FirstOrderIVMEngine),
    "full_materialization_baseline": engine_case(FullMaterializationEngine),
    "free_connex_baseline": engine_case(FreeConnexEngine),
    "supervised_fleet": supervised_case,
}
SPECS = (("counting", None, None), ("sum", "C", "A"))


@pytest.fixture(params=sorted(CASES))
def case(request):
    return request.param


@pytest.mark.parametrize("query", QUERIES)
def test_read_surface_contract(case, query, tmp_path):
    if case == "free_connex_baseline" and query == QUERIES[0]:
        pytest.skip("the free-connex baseline only covers free-connex queries")
    surface, owned = CASES[case](query, tmp_path)
    try:
        parsed = parse_query(query)
        pairs = evaluate_query_naive(parsed, applied(fresh_database(query))).as_dict()
        enumerated = list(surface.enumerate())
        assert dict(enumerated) == pairs
        assert surface.result() == dict(enumerated)
        assert surface.count_distinct() == len(enumerated)
        assert list(surface) == list(surface.enumerate())
        head = tuple(parsed.head)
        for ring, value, group_by in SPECS:
            spec = AggregateSpec.coerce(ring, value, group_by)
            expected = answer_map(spec, fold_result(spec, head, pairs.items()))
            for maintained in (True, False):
                assert surface.aggregate(
                    ring, value, group_by, maintained=maintained
                ) == expected
        if case.endswith("snapshot"):
            surface.close()
            for read in (
                surface.result,
                surface.count_distinct,
                lambda: list(surface),
                lambda: surface.aggregate("counting"),
            ):
                with pytest.raises(StaleStateError):
                    read()
    finally:
        for engine in owned:
            getattr(engine, "close", lambda: None)()


@pytest.mark.parametrize("maintained", [True, False])
@pytest.mark.parametrize("make", [HierarchicalEngine, sharded], ids=["engine", "sharded"])
def test_a_served_aggregate_records_one_read_like_a_direct_one(make, maintained):
    query = QUERIES[0]
    engine = make(query).load(fresh_database(query))
    try:
        serving = EngineServer(engine)
        spec = AggregateSpec.coerce("sum", "C", "A")
        telemetry = engine.telemetry
        before = telemetry.read_events
        serving.aggregate(spec, maintained=maintained)
        assert telemetry.read_events == before + 1
        engine.aggregate(spec, maintained=maintained)
        assert telemetry.read_events == before + 2
    finally:
        engine.close()


class _Resource:
    def __init__(self) -> None:
        self.closes = 0
        self._lock = threading.Lock()

    def close(self) -> None:
        with self._lock:
            self.closes += 1


@pytest.mark.parametrize("readers", [2, 8])
def test_pin_count_closes_once_when_unpins_race_retire(readers):
    for _ in range(50):
        resource = _Resource()
        pins = PinCount(resource)
        for _ in range(readers):
            pins.pin()
        barrier = threading.Barrier(readers + 1)

        def run(step) -> None:
            barrier.wait()
            step()

        threads = [threading.Thread(target=run, args=(pins.unpin,)) for _ in range(readers)]
        threads.append(threading.Thread(target=run, args=(pins.retire,)))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(5.0)
        assert not any(thread.is_alive() for thread in threads)
        assert resource.closes == 1 and pins.closed


def test_pin_count_force_close_is_final():
    resource = _Resource()
    pins = PinCount(resource)
    pins.pin()
    pins.pin()
    pins.force_close()
    assert resource.closes == 1 and pins.closed
    pins.unpin()
    pins.retire()
    pins.unpin()
    assert resource.closes == 1
