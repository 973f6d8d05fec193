"""Seeded, time-boxed conformance fuzzer for the IVM^ε engine.

Drives the differential oracle and the metamorphic properties of
:mod:`repro.conformance` over randomly generated queries, databases, update
streams, and the registered scenario matrix::

    python tools/fuzz.py --seed 0 --budget 30          # the CI smoke budget
    python tools/fuzz.py --seed 7 --budget 600 -v      # a longer hunt
    python tools/fuzz.py --repro fuzz-failures/case-000042.json

Every case is derived deterministically from ``--seed`` and the case index,
so a failure reported for a seed reproduces with the same seed.  On the
first failure the case is shrunk to a minimal repro (delta-debugging over
updates, database tuples, and the ε grid, keeping the failure *kind*
stable) and written to ``--out`` as JSON; the process exits non-zero.

Case mix per index: ~45% differential runs on random hierarchical queries,
~15% on guaranteed non-hierarchical queries (baselines diffed against each
other, planner gate checked), ~18% metamorphic property checks, ~12%
differential runs on a scenario sampled from the workload matrix, and ~10%
kill-mid-batch crash-recovery runs: a durable engine is crashed at a
case-deterministic fault-injection point (WAL append, the torn half-write
window, the fsync gap, and — on the checkpoint writer, stepped at a
case-deterministic lag behind the commits — checkpoint write/fsync/rename
and cleanup), recovered from checkpoint + WAL, resumed from its durable
version, and diffed against the naive oracle and a never-crashed durable
twin: result, version, ε, threshold base, base relations in insertion
order, invariants, and — after normalising both — enumeration order.
``recovery*`` repro files replay the same crash point deterministically.

Every composition is checked in one place, the differential run
(:func:`repro.conformance.run_case`): it puts
:class:`repro.sharding.ShardedEngine` under test at shard counts
{1, 2, 4, 7} next to the single engines and the baselines, retunes every
IVM engine at one case-deterministic checkpoint (a retuned single engine
must equal a fresh engine at the new ε, order included), reshards every
fleet at a second one, captures an ``engine.snapshot()`` at every
checkpoint and holds it to the end of the case, and diffs maintained,
enumerate-and-fold and snapshot aggregate answers against the fold over
the oracle's result.  A shrunk repro JSON therefore replays all of it with
one ``--repro`` invocation.  The metamorphic properties are the three pure
identities that need no oracle; a repro file naming a property that
has since left the mix (``metamorphic:shard-merge`` and the like) replays
as a differential run.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.conformance import (  # noqa: E402 - sys.path bootstrap above
    ConformanceCase,
    DataProfile,
    Mismatch,
    case_failure,
    crash_recovery_failure,
    check_batch_permutation_invariance,
    check_insert_delete_noop,
    check_partition_union,
    check_query_conformance,
    load_case,
    random_database,
    random_labeled_query,
    random_nonhierarchical_query,
    random_update_stream,
    shrink_case,
    write_repro,
)
from repro.core.api import HierarchicalEngine  # noqa: E402
from repro.workloads import get_scenario, scenario_names  # noqa: E402

EPSILON_GRIDS = ((0.0, 0.5, 1.0), (0.25, 0.75), (0.5,), (0.0, 1.0))
METAMORPHIC_PROPERTIES = (
    "insert-delete-noop",
    "batch-permutation",
    "partition-union",
)


def _random_profile(rng: random.Random) -> DataProfile:
    return DataProfile(
        tuples_per_relation=rng.randint(5, 30),
        domain=rng.randint(3, 10),
        skew=rng.choice((0.0, 0.8, 1.5, 2.5)),
        heavy_fraction=rng.choice((0.0, 0.0, 0.2, 0.5)),
    )


def _differential_case(rng: random.Random, hierarchical: bool) -> ConformanceCase:
    labeled = (
        random_labeled_query(rng) if hierarchical else random_nonhierarchical_query(rng)
    )
    check_query_conformance(labeled)  # query-layer round-trip is part of the fuzz
    profile = _random_profile(rng)
    database = random_database(labeled.query, profile, seed=rng.randrange(1 << 30))
    stream = random_update_stream(
        database,
        rng.randint(10, 60),
        profile,
        delete_fraction=rng.choice((0.0, 0.3, 0.5)),
        seed=rng.randrange(1 << 30),
    )
    return ConformanceCase.build(
        str(labeled.query),
        database,
        stream,
        epsilons=rng.choice(EPSILON_GRIDS),
        checkpoints=rng.randint(1, 5),
    )


def _scenario_case(rng: random.Random) -> ConformanceCase:
    scenario = get_scenario(rng.choice(scenario_names()))
    database = scenario.make_database(rng.randrange(1 << 16), 0.05)
    stream = scenario.make_stream(database, rng.randint(20, 60), rng.randrange(1 << 16))
    return ConformanceCase.build(
        scenario.query,
        database,
        stream,
        epsilons=(0.5,),
        checkpoints=2,
        aggregates=scenario.aggregates,
    )


def _metamorphic_case(rng: random.Random) -> ConformanceCase:
    labeled = random_labeled_query(rng)
    profile = _random_profile(rng)
    database = random_database(labeled.query, profile, seed=rng.randrange(1 << 30))
    stream = random_update_stream(
        database, rng.randint(10, 40), profile, seed=rng.randrange(1 << 30)
    )
    return ConformanceCase.build(
        str(labeled.query), database, stream, epsilons=(rng.choice((0.0, 0.5, 1.0)),)
    )


def metamorphic_failure(case: ConformanceCase, prop: str):
    """Run one metamorphic property on a case; normalize failures."""
    if prop not in METAMORPHIC_PROPERTIES:
        # reject bad property names eagerly, *outside* the try below — an
        # exception raised by the property itself (a ValueError included)
        # is a finding to record and shrink, never something to re-raise
        raise ValueError(f"unknown metamorphic property {prop!r}")
    epsilon = case.epsilons[0] if case.epsilons else 0.5
    factory = lambda: HierarchicalEngine(case.query, epsilon=epsilon)  # noqa: E731
    database = case.database()
    updates = case.update_objects()
    try:
        if prop == "insert-delete-noop":
            check_insert_delete_noop(factory, database, updates)
        elif prop == "batch-permutation":
            check_batch_permutation_invariance(
                factory, database, updates, random.Random(0)
            )
        elif prop == "partition-union":
            check_partition_union(factory, database, updates, parts=3)
    except AssertionError as exc:
        return Mismatch(
            engine=f"ivm(eps={epsilon})",
            checkpoint=-1,
            kind=f"metamorphic:{prop}",
            detail=str(exc),
        )
    except Exception as exc:  # noqa: BLE001 - any failure is a finding
        # A crash (e.g. a rejected update) gets its own kind so the
        # kind-stable shrink predicate cannot wander from a genuine
        # property violation to a stream made invalid by shrinking.
        return Mismatch(
            engine=f"ivm(eps={epsilon})",
            checkpoint=-1,
            kind=f"metamorphic:{prop}:crash",
            detail=f"{type(exc).__name__}: {exc}",
        )
    return None


def _failure_predicate(kind: str, prop: str = ""):
    """A shrink predicate that only accepts the original failure *kind*.

    Without this, shrinking can wander to an unrelated failure (e.g. drop
    the insert that made a later delete valid and "find" a rejected-update
    crash instead of the real divergence).
    """

    def fails(candidate: ConformanceCase):
        if prop:
            found = metamorphic_failure(candidate, prop)
        elif kind.startswith("recovery"):
            found = crash_recovery_failure(candidate)
        else:
            found = case_failure(candidate)
        if found is None:
            return None
        if found.kind == kind:
            return found
        # Crash-recovery kinds form one family: shrinking changes the case
        # digest, hence the armed crash point, hence which recovery check
        # trips first — any recovery-* failure is still the same bug class.
        if kind.startswith("recovery") and found.kind.startswith("recovery"):
            return found
        return None

    return fails


def _report_failure(
    case: ConformanceCase,
    mismatch: Mismatch,
    index: int,
    out_dir: Path,
    prop: str = "",
) -> Path:
    print(f"\nFAILURE in case {index}: {mismatch}", flush=True)
    print("shrinking ...", flush=True)
    shrunk = shrink_case(case, _failure_predicate(mismatch.kind, prop))
    final = _failure_predicate(mismatch.kind, prop)(shrunk) or mismatch
    path = out_dir / f"case-{index:06d}.json"
    write_repro(shrunk, final, path)
    total_rows = sum(len(rows) for _schema, rows in shrunk.relations.values())
    print(
        f"minimal repro: {len(shrunk.updates)} updates, {total_rows} tuples, "
        f"epsilons {list(shrunk.epsilons)} -> {path}"
    )
    print(f"replay with: python tools/fuzz.py --repro {path}")
    return path


def run_repro(path: Path) -> int:
    """Replay a repro file; exit 0 when it no longer fails."""
    raw = json.loads(Path(path).read_text(encoding="utf-8"))
    failure = raw.get("failure") or {}
    kind = failure.get("kind", "")
    case = load_case(path)
    # kind is "metamorphic:<prop>" or "metamorphic:<prop>:crash" — the
    # middle segment is the property name either way
    prop = kind.split(":")[1] if kind.startswith("metamorphic:") else ""
    if prop in METAMORPHIC_PROPERTIES:
        mismatch = metamorphic_failure(case, prop)
    elif kind.startswith("recovery"):
        mismatch = crash_recovery_failure(case)
    else:  # a differential kind, or a property the differential run covers now
        mismatch = case_failure(case)
    if mismatch is None:
        print(f"{path}: case no longer fails")
        return 0
    print(f"{path}: still failing: {mismatch}")
    return 1


def fuzz(args: argparse.Namespace) -> int:
    out_dir = Path(args.out)
    deadline = time.perf_counter() + args.budget
    stats = {
        "differential": 0,
        "non-hierarchical": 0,
        "metamorphic": 0,
        "scenario": 0,
        "crash-recovery": 0,
    }
    index = 0
    while time.perf_counter() < deadline and index < args.max_cases:
        rng = random.Random(args.seed * 1_000_003 + index)
        roll = rng.random()
        if args.mode == "crash-recovery":
            # dedicated kill-mid-batch budget: every case crashes a durable
            # engine at a case-deterministic fault-injection point
            roll = 1.0
        try:
            if roll < 0.45:
                stats["differential"] += 1
                case = _differential_case(rng, hierarchical=True)
                mismatch = case_failure(case)
                prop = ""
            elif roll < 0.60:
                stats["non-hierarchical"] += 1
                case = _differential_case(rng, hierarchical=False)
                mismatch = case_failure(case)
                prop = ""
            elif roll < 0.78:
                stats["metamorphic"] += 1
                case = _metamorphic_case(rng)
                prop = rng.choice(METAMORPHIC_PROPERTIES)
                mismatch = metamorphic_failure(case, prop)
            elif roll < 0.90:
                stats["scenario"] += 1
                case = _scenario_case(rng)
                mismatch = case_failure(case)
                prop = ""
            else:
                stats["crash-recovery"] += 1
                case = _differential_case(rng, hierarchical=True)
                mismatch = crash_recovery_failure(case)
                prop = ""
        except Exception as exc:  # noqa: BLE001 - generator crash is a finding too
            print(f"\ncase {index}: generator/setup crashed: {type(exc).__name__}: {exc}")
            raise
        if mismatch is not None:
            _report_failure(case, mismatch, index, out_dir, prop)
            return 1
        index += 1
        if args.verbose and index % 20 == 0:
            remaining = deadline - time.perf_counter()
            print(f"  {index} cases clean, {remaining:.0f}s of budget left", flush=True)
    elapsed = args.budget - max(0.0, deadline - time.perf_counter())
    mix = ", ".join(f"{name}={count}" for name, count in stats.items())
    print(f"fuzz: {index} cases clean in {elapsed:.1f}s (seed {args.seed}; {mix})")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="differential conformance fuzzer (see docs/architecture.md)"
    )
    parser.add_argument("--seed", type=int, default=0, help="base random seed")
    parser.add_argument(
        "--budget", type=float, default=30.0, help="wall-clock budget in seconds"
    )
    parser.add_argument(
        "--max-cases", type=int, default=1_000_000, help="stop after this many cases"
    )
    parser.add_argument(
        "--out",
        default="fuzz-failures",
        help="directory for minimal-repro JSON files (default: ./fuzz-failures)",
    )
    parser.add_argument(
        "--mode",
        choices=("mix", "crash-recovery"),
        default="mix",
        help="case mix: the default blend, or kill-mid-batch crash runs only",
    )
    parser.add_argument(
        "--repro", metavar="FILE", help="replay a repro file instead of fuzzing"
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    args = parser.parse_args(argv)
    if args.repro:
        return run_repro(Path(args.repro))
    return fuzz(args)


if __name__ == "__main__":
    sys.exit(main())
