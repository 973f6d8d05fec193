"""Conformance coverage of ring aggregates: the checks check, bugs trip.

Three layers: the `check_aggregate_equivalence` metamorphic property runs
clean on a real workload (every engine variant, a mid-stream retune, the
dict-backend engine, sharded facades); case JSON stays digest-stable by
omitting empty aggregate triples while round-tripping non-empty ones; and
an injected maintenance bug — a maintained state that silently drops
deltas — is caught by the differential runner as an ``aggregate``
mismatch, proving the diff is live, not vacuously green.
"""

from __future__ import annotations

import random

from repro.conformance import (
    ConformanceCase,
    DataProfile,
    check_aggregate_equivalence,
    random_database,
    random_update_stream,
    run_case,
)
from repro.query.parser import parse_query
from repro.rings.spec import MaintainedAggregate
from repro.workloads import get_scenario

PATH_QUERY = "Q(A, C) = R(A, B), S(B, C)"


def _workload(seed: int = 2, count: int = 24):
    profile = DataProfile(tuples_per_relation=20, domain=5, skew=1.0)
    database = random_database(parse_query(PATH_QUERY), profile, seed=seed)
    stream = list(
        random_update_stream(
            database, count, profile, delete_fraction=0.4, seed=seed + 1
        )
    )
    return database, stream


def test_aggregate_equivalence_property_runs_clean():
    database, stream = _workload()
    check_aggregate_equivalence(
        PATH_QUERY,
        (0.25, 0.75),
        database,
        stream,
        shard_counts=(2,),
        extra_specs=(("min", "C", ("A",)),),
    )


def test_case_json_omits_empty_triples_and_round_trips_full_ones():
    database, stream = _workload(seed=9)
    plain = ConformanceCase.build(PATH_QUERY, database, stream)
    # digest stability: pre-existing repro files (and the checkpoint
    # choices derived from their digests) must not see a new key
    assert '"aggregates"' not in plain.to_json()
    annotated = ConformanceCase.build(
        PATH_QUERY,
        database,
        stream,
        aggregates=(("sum", "C", ("A",)), ("sum_product", ("A", "C"), ())),
    )
    clone = ConformanceCase.from_json(annotated.to_json())
    assert clone == annotated
    assert clone.aggregates == annotated.aggregates


def test_runner_diffs_scenario_aggregate_triples_clean():
    scenario = get_scenario("iot_rolling_sum")
    database = scenario.make_database(3, 0.05)
    stream = scenario.make_stream(database, 30, 4)
    case = ConformanceCase.build(
        scenario.query,
        database,
        stream,
        epsilons=(0.5,),
        checkpoints=2,
        aggregates=scenario.aggregates,
    )
    report = run_case(case)
    assert report.ok, [str(m) for m in report.mismatches]


def test_injected_maintenance_bug_trips_the_aggregate_diff(monkeypatch):
    """A maintained state whose elements drift must be caught.

    The bug corrupts only elements (supports stay right): the maintained
    answers silently diverge from the fold, which is exactly the failure
    mode only the runner's aggregate diff can see.
    """
    real = MaintainedAggregate.on_delta
    rng = random.Random(0)

    def drifting(self, delta):
        real(self, delta)
        if rng.random() < 0.7 and self.groups:
            group = next(iter(self.groups))
            support, element = self.groups[group]
            self.groups[group] = (support, self.spec.ring.add(element, element))

    monkeypatch.setattr(MaintainedAggregate, "on_delta", drifting)
    database, stream = _workload(seed=4, count=30)
    case = ConformanceCase.build(
        PATH_QUERY, database, stream, epsilons=(0.5,), checkpoints=3
    )
    report = run_case(case)
    assert not report.ok
    kinds = {m.kind for m in report.mismatches}
    assert kinds & {"aggregate", "aggregate-snapshot", "aggregate-isolation"}, (
        kinds
    )
