"""The differential runner: clean engines agree, injected bugs are caught."""

from __future__ import annotations

import random

import pytest

from repro.conformance import (
    ConformanceCase,
    DataProfile,
    case_failure,
    load_case,
    random_database,
    random_labeled_query,
    random_nonhierarchical_query,
    random_update_stream,
    run_case,
    shrink_case,
    write_repro,
)
from repro.exceptions import InvariantViolationError
from repro.core.api import HierarchicalEngine
from repro.data.update import Update
from repro.query.parser import parse_query
from repro.workloads import get_scenario, scenario_names

PATH_QUERY = "Q(A, C) = R(A, B), S(B, C)"


def _random_case(seed: int, hierarchical: bool = True) -> ConformanceCase:
    rng = random.Random(seed)
    labeled = (
        random_labeled_query(rng) if hierarchical else random_nonhierarchical_query(rng)
    )
    profile = DataProfile(
        tuples_per_relation=rng.randint(5, 18),
        domain=rng.randint(3, 7),
        skew=rng.choice((0.0, 1.5)),
        heavy_fraction=rng.choice((0.0, 0.3)),
    )
    database = random_database(labeled.query, profile, seed=seed)
    stream = random_update_stream(
        database, rng.randint(10, 30), profile, delete_fraction=0.4, seed=seed + 1
    )
    return ConformanceCase.build(str(labeled.query), database, stream, checkpoints=3)


@pytest.mark.parametrize("seed", range(6))
def test_differential_runs_clean_on_hierarchical_queries(seed):
    report = run_case(_random_case(seed, hierarchical=True))
    assert report.supported
    assert any(name.startswith("ivm(") for name in report.engines)
    assert report.ok, [str(m) for m in report.mismatches]


@pytest.mark.parametrize("seed", range(3))
def test_differential_runs_clean_on_nonhierarchical_queries(seed):
    report = run_case(_random_case(seed, hierarchical=False))
    assert not report.supported
    # the planner gate held and the baselines were still diffed among themselves
    assert all(not name.startswith("ivm(") for name in report.engines)
    assert "first-order" in report.engines
    assert report.ok, [str(m) for m in report.mismatches]


@pytest.mark.parametrize("name", scenario_names())
def test_differential_runs_clean_on_every_scenario(name):
    scenario = get_scenario(name)
    database = scenario.make_database(3, 0.05)
    stream = scenario.make_stream(database, 30, 4)
    case = ConformanceCase.build(
        scenario.query, database, stream, epsilons=(0.5,), checkpoints=2
    )
    report = run_case(case)
    assert report.ok, [str(m) for m in report.mismatches]


def test_case_json_round_trip():
    case = _random_case(11)
    clone = ConformanceCase.from_json(case.to_json())
    assert clone == case


def test_check_invariants_detects_corrupted_light_part():
    profile = DataProfile(tuples_per_relation=25, domain=6, skew=1.0)
    database = random_database(parse_query(PATH_QUERY), profile, seed=5)
    engine = HierarchicalEngine(PATH_QUERY, epsilon=0.5)
    engine.load(database)
    engine.check_invariants()
    partitions = engine._skew_plan.partitions.partitions()
    assert partitions
    # corrupt one light part behind the engine's back
    target = None
    for partition in partitions:
        if len(partition.light) > 0:
            target = partition
            break
    assert target is not None
    tup = next(iter(target.light.tuples()))
    light = target.light
    light._data[tup] += 7
    with pytest.raises(InvariantViolationError):
        engine.check_invariants()


def _delete_dropping_propagation(monkeypatch):
    """Inject the classic IVM bug: deletes silently dropped in propagation."""
    import repro.ivm.maintenance as maintenance
    from repro.ivm.delta import propagate_delta as real_propagate

    def buggy(tree, source_name, schema, delta):
        positive = {tup: mult for tup, mult in delta.items() if mult > 0}
        return real_propagate(tree, source_name, schema, positive)

    monkeypatch.setattr(maintenance, "propagate_delta", buggy)


def test_injected_delta_bug_is_caught_shrunk_and_reproducible(monkeypatch, tmp_path):
    """The acceptance-criteria mutation check, kept as a permanent test."""
    _delete_dropping_propagation(monkeypatch)

    query = parse_query(PATH_QUERY)
    profile = DataProfile(tuples_per_relation=15, domain=5)
    database = random_database(query, profile, seed=1)
    stream = random_update_stream(database, 25, profile, delete_fraction=0.5, seed=2)
    case = ConformanceCase.build(
        PATH_QUERY, database, stream, epsilons=(0.5,), checkpoints=2
    )

    mismatch = case_failure(case)
    assert mismatch is not None, "the differential runner missed an injected bug"
    assert mismatch.kind in ("result", "delta")

    def fails(candidate):
        found = case_failure(candidate)
        return found if found is not None and found.kind == mismatch.kind else None

    shrunk = shrink_case(case, fails, max_evaluations=150)
    assert len(shrunk.updates) <= 5
    total_rows = sum(len(rows) for _schema, rows in shrunk.relations.values())
    assert total_rows <= 8

    path = write_repro(shrunk, fails(shrunk), tmp_path / "repro.json")
    assert path.exists()
    replayed = load_case(path)
    assert case_failure(replayed) is not None, "the shrunk repro no longer fails"


def test_retune_that_skips_its_reanchor_is_caught(monkeypatch):
    """A retune that keeps the drifted threshold base instead of
    re-anchoring at M = 2N + 1 no longer equals a fresh engine at the
    target ε over the same database."""
    from repro.ivm.rebalance import MaintenanceDriver

    def retune_without_reanchor(self, epsilon):
        self.epsilon = epsilon
        self.stats.retunes += 1
        self.version += 1
        self.rematerialize()

    monkeypatch.setattr(MaintenanceDriver, "retune", retune_without_reanchor)
    # a growth stream that triples the database: majors double M before the
    # retune, so the drifted base and 2N + 1 differ
    rng = random.Random(0)
    database = random_database(
        parse_query(PATH_QUERY), DataProfile(tuples_per_relation=15, domain=6), seed=0
    )
    updates = [
        Update("R", (rng.randrange(50), rng.randrange(6)), 1) for _ in range(45)
    ]
    case = ConformanceCase.build(
        PATH_QUERY, database, updates, epsilons=(0.5, 1.0), checkpoints=3
    )
    report = run_case(case)
    assert not report.ok, "the differential runner missed a retune without re-anchor"
    assert {m.kind for m in report.mismatches} == {"retune"}


def test_injected_bug_repro_is_clean_without_the_bug(tmp_path):
    """A repro shrunk under a bug must pass once the bug is gone."""
    query = parse_query(PATH_QUERY)
    profile = DataProfile(tuples_per_relation=10, domain=4)
    database = random_database(query, profile, seed=3)
    stream = random_update_stream(database, 12, profile, delete_fraction=0.5, seed=4)
    case = ConformanceCase.build(PATH_QUERY, database, stream)
    assert case_failure(case) is None
