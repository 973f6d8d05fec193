"""Differential conformance harness: the baselines as a standing oracle.

The paper's central claim is behavioural: IVM^ε produces exactly the same
results as every baseline strategy at every point of an update stream, for
every ε.  This package turns that claim into an executable oracle:

* :mod:`repro.conformance.queries` generates random conjunctive queries with
  *known-by-construction* classification labels (hierarchical via a random
  variable-tree, non-hierarchical via a planted cross-branch atom) and
  checks that the classifier, the width measures, and the parser round-trip
  agree with the construction;
* :mod:`repro.conformance.datagen` materializes random databases and update
  streams for any generated query, driven by the same degree-distribution
  knobs as :mod:`repro.workloads.generators`;
* :mod:`repro.conformance.runner` executes one workload through
  :class:`~repro.core.api.HierarchicalEngine` across an ε grid — single-tuple
  and batched paths — plus all four baselines, and diffs full results, result
  deltas, enumeration invariants, internal structure invariants, and
  ring-aggregate answers (maintained, enumerate-and-fold, and snapshot
  paths against the fold over the oracle) at every checkpoint; its kill-mid-batch mode (:func:`run_crash_recovery_case`)
  crashes a *durable* engine at a case-deterministic fault-injection point
  (the checkpoint writer's included, stepped at a case-deterministic lag),
  recovers it from checkpoint + WAL, replays the rest of the workload, and
  diffs the outcome against the naive oracle and a never-crashed twin;
* :mod:`repro.conformance.metamorphic` states the metamorphic properties
  (insert-then-delete is a no-op, permuting a consolidated batch is
  result-invariant, a partitioned stream equals the whole, shard-merged
  execution is indistinguishable from a single engine, maintained
  aggregates equal the fold over the oracle) checked both by the
  Hypothesis test-suite and the fuzzer;
* :mod:`repro.conformance.shrink` reduces a failing case to a minimal repro
  and serializes it to a JSON file that ``tools/fuzz.py --repro`` replays.

The seeded, time-boxed entry point is ``tools/fuzz.py``; a deterministic
subset runs in tier-1 CI (``tests/test_conformance_*.py``).
"""

from repro.conformance.datagen import DataProfile, random_database, random_update_stream
from repro.conformance.metamorphic import (
    check_aggregate_equivalence,
    check_batch_permutation_invariance,
    check_insert_delete_noop,
    check_partition_union,
    check_reshard_equivalence,
    check_retune_equivalence,
    check_shard_merge,
    check_snapshot_isolation,
)
from repro.conformance.queries import (
    LabeledQuery,
    check_query_conformance,
    random_labeled_query,
    random_nonhierarchical_query,
)
from repro.conformance.runner import (
    ConformanceCase,
    ConformanceReport,
    Mismatch,
    aggregate_specs_for,
    case_failure,
    count_crash_sites,
    crash_recovery_failure,
    run_case,
    run_crash_recovery_case,
)
from repro.conformance.shrink import load_case, shrink_case, write_repro

__all__ = [
    "ConformanceCase",
    "ConformanceReport",
    "DataProfile",
    "LabeledQuery",
    "Mismatch",
    "aggregate_specs_for",
    "case_failure",
    "check_aggregate_equivalence",
    "check_batch_permutation_invariance",
    "check_insert_delete_noop",
    "check_partition_union",
    "check_query_conformance",
    "check_reshard_equivalence",
    "check_retune_equivalence",
    "check_shard_merge",
    "check_snapshot_isolation",
    "count_crash_sites",
    "crash_recovery_failure",
    "load_case",
    "run_crash_recovery_case",
    "random_database",
    "random_labeled_query",
    "random_nonhierarchical_query",
    "random_update_stream",
    "run_case",
    "shrink_case",
    "write_repro",
]
