"""The differential runner: one workload, every engine, diff everything.

A :class:`ConformanceCase` is a fully serializable workload — query text,
database contents, update sequence, ε grid, checkpoint count.  Running a
case executes the same workload through:

* :class:`~repro.core.api.HierarchicalEngine` at every ε of the grid, once
  ingesting updates one tuple at a time and once in consolidated batches;
* :class:`~repro.baselines.naive.NaiveRecomputeEngine` (the ground-truth
  oracle), both paths;
* :class:`~repro.baselines.first_order_ivm.FirstOrderIVMEngine` and
  :class:`~repro.baselines.full_materialization.FullMaterializationEngine`;
* :class:`~repro.baselines.free_connex.FreeConnexEngine` when the query is
  free-connex;
* :class:`~repro.sharding.ShardedEngine` at shard counts
  :data:`SHARD_COUNTS` when the query is shardable, alternating sequential
  and batched ingestion — sharded execution must be indistinguishable from
  the naive oracle exactly like a single engine.

At every checkpoint the runner diffs each engine's full result against the
oracle, diffs the *result delta* since the previous checkpoint (so a
mismatch is localized to the segment that introduced it), and asks every
IVM engine (single and sharded) for more:

* **enumeration** — deterministic order across passes, no duplicate
  tuples, strictly positive multiplicities, and the internal structures
  sound (:meth:`~repro.core.api.HierarchicalEngine.check_invariants`);
* **versions** — ``engine.version`` equals the number of events it
  committed (an update, a batch, the retune and the reshard each count
  once);
* **snapshots** — a fresh ``engine.snapshot()`` carries the live version
  and is held to the end of the case; one segment later and again at the
  end it must enumerate the live sequence at its capture, answer
  ``lookup`` for a result tuple and for an absent one, and keep its
  capture-time aggregate, rebalances, the retune and the reshard
  included.  Shrunk repro JSON files therefore replay snapshot reads
  exactly like live reads.

Every checkpoint also diffs **aggregate answers**: a generic spec set
derived from the query head (:func:`aggregate_specs_for` — counting grouped
by the first head variable, a global sum and a grouped max over the last
head position) plus any case-specific ``(ring, value, group_by)`` triples
(``ConformanceCase.aggregates``, fed by the scenario matrix) is registered
on every dynamic engine, so ``engine.aggregate()`` answers from maintained
ring state — across segments, the retune, and the reshard — and must equal
the one true fold (:func:`repro.rings.spec.fold_result`) over the oracle's
result.  The enumerate-and-fold path (``maintained=False``) and every held
snapshot's aggregate are diffed the same way.

At one case-deterministic checkpoint, every dynamic IVM engine (single and
sharded) additionally **retunes** mid-case to an ε from :data:`RETUNE_EPSILONS`
(:meth:`~repro.core.api.HierarchicalEngine.retune`), so every fuzzed
workload also exercises live ε switching.  A retuned single engine must
equal a fresh engine built at the new ε over its current database — same
threshold base, same enumeration sequence — right after the retune and
while both ingest the rest of the case.  At a second case-deterministic
checkpoint every sharded runner **reshards** to a different count from
:data:`SHARD_COUNTS` (:meth:`~repro.sharding.ShardedEngine.reshard`), so
elastic split/merge is diffed against the oracle on every fuzzed workload
too; the snapshots captured before the swap read through the retired
fleet.  A sharded enumeration is shard-major Union order over the shard
cursors, deterministic for a fleet but not the single engine's order, so
sharded runners are diffed against the oracle by result and against
themselves by sequence.

Non-hierarchical cases are differential too: the planner must *reject* the
query (the fragment gate is part of the contract), after which the
baselines — which support arbitrary conjunctive queries — are diffed
against each other with the naive engine as oracle.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.baselines.first_order_ivm import FirstOrderIVMEngine
from repro.baselines.free_connex import FreeConnexEngine
from repro.baselines.full_materialization import FullMaterializationEngine
from repro.baselines.naive import NaiveRecomputeEngine
from repro.core.api import HierarchicalEngine
from repro.core.planner import is_shardable
from repro.data.database import Database
from repro.data.schema import ValueTuple
from repro.data.update import Event, Retune, Update, UpdateStream
from repro.durability import (
    CrashPointInjector,
    DurabilityConfig,
    SimulatedCrashError,
    injected,
    recover_engine,
)
from repro.durability.checkpoint import find_checkpoints
from repro.exceptions import (
    DurabilityError,
    RejectedUpdateError,
    ReproError,
    UnsupportedQueryError,
)
from repro.query.classes import classify
from repro.query.hypergraph import is_free_connex
from repro.query.parser import parse_query
from repro.rings.spec import AggregateSpec, answer_map, fold_result
from repro.sharding import ShardedEngine

DEFAULT_EPSILONS: Tuple[float, ...] = (0.0, 0.5, 1.0)

# Candidate targets for the mid-case retune rehearsal: one checkpoint per
# differential run switches every dynamic IVM engine's live ε (chosen
# case-deterministically from this grid), so retuning is exercised against
# the oracle on every fuzzed workload, not only in the dedicated tests.
RETUNE_EPSILONS: Tuple[float, ...] = (0.0, 0.25, 0.5, 0.75, 1.0)

# Every differential run exercises the sharded engine at these shard
# counts (sequential and batched ingestion alternate so both dispatch
# paths stay covered): 1 — the degenerate deployment must match exactly;
# 2 and 4 — genuine splits, including shards that receive no data; 7 —
# coprime with the hash mixing and larger than most tiny test databases,
# so empty shards and single-tuple shards both occur.
SHARD_COUNTS: Tuple[int, ...] = (1, 2, 4, 7)

ResultDict = Dict[ValueTuple, int]


@dataclass
class ConformanceCase:
    """A self-contained differential workload (JSON-serializable)."""

    query: str
    relations: Dict[str, Tuple[Tuple[str, ...], List[Tuple[ValueTuple, int]]]]
    updates: List[Tuple[str, ValueTuple, int]]
    epsilons: Tuple[float, ...] = DEFAULT_EPSILONS
    checkpoints: int = 4
    #: Case-specific ``(ring name, value selector, group_by)`` triples —
    #: diffed at every checkpoint next to the generic spec set.  Scenario
    #: cases carry the scenario's natural aggregates here.
    aggregates: Tuple[Tuple[str, object, Tuple[str, ...]], ...] = ()

    # -- construction ------------------------------------------------------
    @classmethod
    def build(
        cls,
        query: str,
        database: Database,
        stream: UpdateStream,
        epsilons: Sequence[float] = DEFAULT_EPSILONS,
        checkpoints: int = 4,
        aggregates: Sequence[Tuple[str, object, Sequence[str]]] = (),
    ) -> "ConformanceCase":
        """Capture a database + stream into a replayable case."""
        updates = [(u.relation, u.tuple, u.multiplicity) for u in stream]
        return cls(
            query=query,
            relations=database.to_rows(),
            updates=updates,
            epsilons=tuple(epsilons),
            checkpoints=checkpoints,
            aggregates=tuple(
                (ring, value, tuple(group_by)) for ring, value, group_by in aggregates
            ),
        )

    def database(self) -> Database:
        """Materialize a fresh database from the captured contents."""
        return Database.from_rows(self.relations)

    def update_objects(self) -> List[Update]:
        return [Update(rel, tuple(tup), mult) for rel, tup, mult in self.updates]

    def segments(self) -> List[List[Update]]:
        """Split the update sequence into ``checkpoints`` contiguous segments."""
        updates = self.update_objects()
        count = max(1, self.checkpoints)
        size = max(1, (len(updates) + count - 1) // count) if updates else 1
        return [updates[i : i + size] for i in range(0, len(updates), size)] or [[]]

    # -- serialization -----------------------------------------------------
    def to_json(self) -> str:
        payload = {
            "query": self.query,
            "relations": {
                name: {"schema": list(schema), "rows": [[list(t), m] for t, m in rows]}
                for name, (schema, rows) in self.relations.items()
            },
            "updates": [[rel, list(tup), mult] for rel, tup, mult in self.updates],
            "epsilons": list(self.epsilons),
            "checkpoints": self.checkpoints,
        }
        if self.aggregates:
            # omitted when empty so the digests (and with them the
            # case-deterministic retune/reshard/crash choices) of every
            # pre-existing repro file stay exactly what they were
            payload["aggregates"] = [
                [ring, list(value) if isinstance(value, tuple) else value, list(group_by)]
                for ring, value, group_by in self.aggregates
            ]
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ConformanceCase":
        raw = json.loads(text)
        return cls(
            query=raw["query"],
            relations={
                name: (
                    tuple(entry["schema"]),
                    [(tuple(t), m) for t, m in entry["rows"]],
                )
                for name, entry in raw["relations"].items()
            },
            updates=[(rel, tuple(tup), mult) for rel, tup, mult in raw["updates"]],
            epsilons=tuple(raw["epsilons"]),
            checkpoints=raw["checkpoints"],
            aggregates=tuple(
                (ring, tuple(value) if isinstance(value, list) else value, tuple(group_by))
                for ring, value, group_by in raw.get("aggregates") or ()
            ),
        )


@dataclass(frozen=True)
class Mismatch:
    """One observed divergence between an engine and the oracle."""

    engine: str
    checkpoint: int
    kind: str
    detail: str

    def __str__(self) -> str:
        return (
            f"[{self.kind}] engine {self.engine!r} at checkpoint "
            f"{self.checkpoint}: {self.detail}"
        )


@dataclass
class ConformanceReport:
    """Outcome of one differential run."""

    query: str
    supported: bool
    engines: Tuple[str, ...]
    checkpoints_run: int
    mismatches: List[Mismatch] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.mismatches


class _Runner:
    """One engine under differential observation."""

    def __init__(self, name: str, engine, batched: bool) -> None:
        self.name = name
        self.engine = engine
        self.batched = batched
        self.previous: ResultDict = {}
        # Events committed so far (an update, a batch, the retune, the
        # reshard): an IVM engine's version must equal this count.
        self.events = 0
        # From the retune on, a fresh engine built at the target ε over the
        # retuned engine's database and fed every later segment the same way.
        self.shadow: Optional[HierarchicalEngine] = None
        # Every snapshot captured so far, held to the end of the case, with
        # the live engine's sequence and the oracle's answers to the first
        # aggregate spec at its capture.
        self.held: List[Tuple[object, List[Tuple[ValueTuple, int]], Dict]] = []

    def ingest(self, segment: List[Update]) -> None:
        for engine in (self.engine, self.shadow):
            if engine is None:
                continue
            if self.batched:
                engine.apply_batch(segment)
            else:
                for update in segment:
                    engine.apply(update)
        self.events += 1 if self.batched else len(segment)


def _diff(expected: Dict, actual: Dict, noun: str = "tuple", limit: int = 5) -> Optional[str]:
    """Human-readable diff of two maps (None when equal): ``{tuple:
    multiplicity}`` results, or ``{group: answer}`` aggregates with
    ``noun="group"``."""
    if expected == actual:
        return None
    problems: List[str] = []
    for key in expected:
        if key not in actual:
            problems.append(f"missing {noun} {key!r} (expected {expected[key]!r})")
        elif actual[key] != expected[key]:
            problems.append(f"{noun} {key!r} is {actual[key]!r}, expected {expected[key]!r}")
        if len(problems) >= limit:
            break
    if len(problems) < limit:
        for key in actual:
            if key not in expected:
                problems.append(f"extra {noun} {key!r} ({actual[key]!r})")
            if len(problems) >= limit:
                break
    return "; ".join(problems) or f"{noun}s differ"


def _delta(previous: ResultDict, current: ResultDict) -> ResultDict:
    """The per-tuple multiplicity change between two checkpoints."""
    delta: ResultDict = {}
    for tup, mult in current.items():
        change = mult - previous.get(tup, 0)
        if change:
            delta[tup] = change
    for tup, mult in previous.items():
        if tup not in current:
            delta[tup] = -mult
    return delta


def aggregate_specs_for(
    head: Sequence[str],
    extras: Sequence[Tuple[str, object, Sequence[str]]] = (),
) -> List[AggregateSpec]:
    """The aggregate specs a differential run diffs for a query head.

    The generic set — counting grouped by the first head variable, a
    global sum over the last head position, and a max over the last head
    position grouped by the first — covers the three ring families with
    distinct retraction behaviour (support-only, exact cancellation,
    re-derivation) on any head; both the fuzzer's datagen and the
    workload scenarios use integer domains, so sum/max over a head column
    are always well-typed.  ``extras`` appends case-specific
    ``(ring, value, group_by)`` triples; duplicates collapse by spec key.
    """
    head = tuple(head)
    specs: List[AggregateSpec] = []
    if head:
        last = len(head) - 1
        specs.append(AggregateSpec("counting", None, (head[0],)))
        specs.append(AggregateSpec("sum", last, ()))
        specs.append(AggregateSpec("max", last, (head[0],)))
    else:
        specs.append(AggregateSpec("counting"))
    for ring, value, group_by in extras:
        specs.append(AggregateSpec(ring, value, tuple(group_by)))
    unique: Dict[Tuple, AggregateSpec] = {}
    for spec in specs:
        unique.setdefault(spec.key(), spec)
    return list(unique.values())


def _check_enumeration(
    engine: Union[HierarchicalEngine, ShardedEngine], first: List[Tuple[ValueTuple, int]]
) -> Optional[str]:
    """Enumeration-order invariants of ``first``, one pass over ``engine``:
    deterministic, duplicate-free, positive."""
    if list(engine.enumerate()) != first:
        return "two enumeration passes yielded different sequences"
    seen = set()
    for tup, mult in first:
        if tup in seen:
            return f"tuple {tup!r} enumerated more than once"
        seen.add(tup)
        if mult <= 0:
            return f"tuple {tup!r} enumerated with non-positive multiplicity {mult}"
    if engine.count_distinct() != len(first):
        return "count_distinct disagrees with the enumerated sequence"
    return None


def _build_runners(
    case: ConformanceCase, supported: bool, free_connex: bool
) -> Tuple[List[_Runner], NaiveRecomputeEngine]:
    database = case.database()
    oracle = NaiveRecomputeEngine(case.query)
    oracle.load(database)
    runners: List[_Runner] = [
        _Runner("naive-batch", NaiveRecomputeEngine(case.query).load(database), True),
        _Runner("first-order", FirstOrderIVMEngine(case.query).load(database), False),
        _Runner(
            "first-order-batch", FirstOrderIVMEngine(case.query).load(database), True
        ),
        _Runner(
            "full-materialization",
            FullMaterializationEngine(case.query).load(database),
            False,
        ),
    ]
    if supported:
        for epsilon in case.epsilons:
            runners.append(
                _Runner(
                    f"ivm(eps={epsilon})",
                    HierarchicalEngine(case.query, epsilon=epsilon).load(database),
                    False,
                )
            )
            runners.append(
                _Runner(
                    f"ivm-batch(eps={epsilon})",
                    HierarchicalEngine(case.query, epsilon=epsilon).load(database),
                    True,
                )
            )
    if supported and free_connex:
        runners.append(
            _Runner("free-connex", FreeConnexEngine(case.query).load(database), False)
        )
    if supported and is_shardable(case.query):
        epsilon = case.epsilons[len(case.epsilons) // 2] if case.epsilons else 0.5
        for index, shards in enumerate(SHARD_COUNTS):
            runners.append(
                _Runner(
                    f"sharded(n={shards},eps={epsilon})",
                    ShardedEngine(
                        case.query,
                        shards=shards,
                        epsilon=epsilon,
                        executor="serial",
                    ).load(database),
                    index % 2 == 1,
                )
            )
    return runners, oracle


def run_case(case: ConformanceCase, max_mismatches: int = 20) -> ConformanceReport:
    """Execute one differential run and report every divergence found."""
    query = parse_query(case.query)
    classification = classify(query)
    supported = classification.hierarchical
    mismatches: List[Mismatch] = []

    # fragment gate: the planner must accept exactly the hierarchical fragment
    gate_ok = True
    try:
        HierarchicalEngine(case.query)
    except UnsupportedQueryError:
        gate_ok = False
    if gate_ok != supported:
        mismatches.append(
            Mismatch(
                engine="planner",
                checkpoint=-1,
                kind="fragment-gate",
                detail=(
                    f"planner {'accepted' if gate_ok else 'rejected'} the query but "
                    f"hierarchical={supported}"
                ),
            )
        )
        return ConformanceReport(
            query=case.query,
            supported=supported,
            engines=(),
            checkpoints_run=0,
            mismatches=mismatches,
        )

    # shard gate: the sharded planner must accept exactly the shardable
    # sub-fragment — hierarchical AND some variable occurs in every atom
    shard_gate_ok = True
    try:
        ShardedEngine(case.query, shards=2)
    except UnsupportedQueryError:
        shard_gate_ok = False
    shardable = supported and is_shardable(case.query)
    if shard_gate_ok != shardable:
        mismatches.append(
            Mismatch(
                engine="shard-planner",
                checkpoint=-1,
                kind="shard-gate",
                detail=(
                    f"shard gate {'accepted' if shard_gate_ok else 'rejected'} "
                    f"the query but shardable={shardable}"
                ),
            )
        )
        return ConformanceReport(
            query=case.query,
            supported=supported,
            engines=(),
            checkpoints_run=0,
            mismatches=mismatches,
        )

    runners, oracle = _build_runners(case, supported, is_free_connex(query))
    segments = case.segments()
    head_vars = tuple(query.head)
    # Aggregate differential: the generic spec set plus the case's own
    # triples, answered from maintained ring state on every dynamic engine
    # at every checkpoint and diffed against the fold over the oracle.
    agg_specs = aggregate_specs_for(head_vars, case.aggregates) if supported else []

    # Retune rehearsal: at one pseudo-random (but case-deterministic, so
    # seeds and shrunk repros replay identically) checkpoint, every dynamic
    # IVM engine switches to a different ε mid-case.  All the probes below
    # then apply to the retuned engines, snapshots held across the retune's
    # strict repartition and view recompute included.
    digest = zlib.crc32(case.to_json().encode("utf-8"))
    retune_checkpoint = 1 + digest % len(segments) if segments else None

    # Reshard rehearsal: at a second case-deterministic checkpoint (kept
    # distinct from the retune checkpoint whenever the case has more than
    # one segment), every sharded runner elastically reshards to a
    # different count from SHARD_COUNTS.  The probes below then apply to
    # the post-swap fleet, while the snapshots captured before the swap
    # stay pinned on the *retired* fleet and keep enumerating their capture.
    reshard_checkpoint = None
    if segments:
        reshard_checkpoint = 1 + (digest // 7) % len(segments)
        if reshard_checkpoint == retune_checkpoint and len(segments) > 1:
            reshard_checkpoint = 1 + (reshard_checkpoint % len(segments))

    def finish(checkpoints_run: int) -> ConformanceReport:
        for runner in runners:
            for snapshot, _sequence, _answers in runner.held:
                snapshot.close()
        return ConformanceReport(
            query=case.query,
            supported=supported,
            engines=tuple(r.name for r in runners),
            checkpoints_run=checkpoints_run,
            mismatches=mismatches,
        )

    oracle_previous: ResultDict = {}
    # checkpoint 0 observes the preprocessing output, before any update
    for checkpoint in range(len(segments) + 1):
        if checkpoint > 0:
            segment = segments[checkpoint - 1]
            oracle.apply_stream(segment)
            for runner in runners:
                runner.ingest(segment)
        if checkpoint == retune_checkpoint:
            for offset, runner in enumerate(runners):
                engine = runner.engine
                if isinstance(engine, (HierarchicalEngine, ShardedEngine)):
                    target = RETUNE_EPSILONS[(digest + offset) % len(RETUNE_EPSILONS)]
                    engine.retune(target)
                    runner.events += 1
                    if isinstance(engine, HierarchicalEngine):
                        runner.shadow = HierarchicalEngine(case.query, epsilon=target)
                        runner.shadow.load(engine.database)
        if checkpoint == reshard_checkpoint:
            for offset, runner in enumerate(runners):
                engine = runner.engine
                if isinstance(engine, ShardedEngine):
                    target = SHARD_COUNTS[(digest + offset) % len(SHARD_COUNTS)]
                    if target == engine.shards:
                        target = SHARD_COUNTS[(digest + offset + 1) % len(SHARD_COUNTS)]
                    engine.reshard(target)
                    runner.events += 1
                    if engine.shards != target:
                        mismatches.append(
                            Mismatch(
                                runner.name,
                                checkpoint,
                                "reshard",
                                f"reshard({target}) left the fleet at {engine.shards} shards",
                            )
                        )
        truth = dict(oracle.result())
        truth_delta = _delta(oracle_previous, truth)
        agg_truth = [
            answer_map(spec, fold_result(spec, head_vars, truth.items()))
            for spec in agg_specs
        ]
        final = checkpoint == len(segments)
        for runner in runners:
            sequence = list(runner.engine.enumerate())
            observed = dict(sequence)
            diff = _diff(truth, observed)
            if diff is not None:
                mismatches.append(
                    Mismatch(runner.name, checkpoint, "result", diff)
                )
            # Diff the per-segment result delta too, but only when the full
            # result still matches — otherwise the 'result' mismatch above
            # already covers it and a duplicate would burn max_mismatches.
            if diff is None:
                observed_delta = _delta(runner.previous, observed)
                if observed_delta != truth_delta:
                    delta_diff = _diff(truth_delta, observed_delta)
                    mismatches.append(
                        Mismatch(
                            runner.name,
                            checkpoint,
                            "delta",
                            f"result delta diverges: {delta_diff}",
                        )
                    )
            runner.previous = observed
            if isinstance(runner.engine, (HierarchicalEngine, ShardedEngine)):
                probes = _probe_engine(runner, sequence, final, agg_specs, agg_truth)
                for kind, detail in probes:
                    mismatches.append(Mismatch(runner.name, checkpoint, kind, detail))
            if len(mismatches) >= max_mismatches:
                return finish(checkpoint + 1)
        oracle_previous = truth
    return finish(len(segments) + 1)


#: A value no generated database holds: the snapshot lookup probe asks for
#: a tuple of it and expects multiplicity 0.
_ABSENT = "<absent>"


def _probe_engine(
    runner: _Runner,
    sequence: List[Tuple[ValueTuple, int]],
    final: bool,
    agg_specs: List[AggregateSpec],
    agg_truth: List[Dict],
) -> Iterator[Tuple[str, str]]:
    """Everything a checkpoint asks of one IVM engine beyond its result
    (enumerated as ``sequence``), as ``(kind, detail)`` mismatches:
    enumeration, invariants, version, the retune shadow, maintained
    aggregates, and snapshots."""
    engine = runner.engine
    enumeration_problem = _check_enumeration(engine, sequence)
    if enumeration_problem is not None:
        yield "enumeration", enumeration_problem
    try:
        engine.check_invariants()
    except ReproError as exc:
        yield "invariant", str(exc)
    # Versions: one tick per committed event — an update, a batch, the
    # retune and the reshard each count once.
    if engine.version != runner.events:
        yield "version", f"version {engine.version} after {runner.events} committed events"
    # Retune-as-reload: retune(ε₂) equals a fresh engine built at ε₂ over
    # the current database — same M = 2N + 1 anchor, same strict
    # partitions, same enumeration sequence, order included — and stays
    # equal to it while both ingest every later segment the same way.
    shadow = runner.shadow
    if shadow is not None:
        reloaded = list(shadow.enumerate())
        if (engine.epsilon, engine.threshold_base) != (shadow.epsilon, shadow.threshold_base):
            yield "retune", (
                f"retuned engine runs at eps={engine.epsilon}, M={engine.threshold_base}; "
                f"a fresh engine at eps={shadow.epsilon} has M={shadow.threshold_base}"
            )
        elif sequence != reloaded:
            detail = _diff(dict(reloaded), dict(sequence)) or "same tuples, another order"
            yield "retune", (
                f"retuned engine enumerates differently from a fresh engine at "
                f"eps={shadow.epsilon} over the same database: {detail}"
            )
    # Aggregate differential: every spec's maintained answer (registered on
    # first use, then carried by ring-delta maintenance through segments,
    # the retune, and the reshard) must equal the fold over the oracle's
    # result; the enumerate-and-fold path is diffed on the first spec.
    for spec, expected_answers in zip(agg_specs, agg_truth):
        answer_diff = _diff(expected_answers, engine.aggregate(spec), "group")
        if answer_diff is not None:
            yield "aggregate", f"{spec.describe()}: {answer_diff}"
    if agg_specs:
        fold_diff = _diff(agg_truth[0], engine.aggregate(agg_specs[0], maintained=False), "group")
        if fold_diff is not None:
            yield "aggregate-fold", f"{agg_specs[0].describe()}: {fold_diff}"
    # Snapshots: a new one carries the live version, and is held to the end
    # of the case with the live sequence at its capture.  It is first read
    # one segment later — a read at capture would freeze every relation it
    # touches from the reader side and hide one the capture failed to
    # register — and again at the end, however many segments, rebalances,
    # the retune and the reshard (a sharded snapshot reads through the
    # retired fleet) have hit the live engine since.  Each read must repeat
    # the captured sequence, order included (a sharded sequence is
    # shard-major Union order over the shard cursors, not the single
    # engine's order), answer lookup for a result tuple and for an absent
    # one, and keep the first spec's aggregate at its capture.
    snapshot = engine.snapshot()
    if snapshot.version != engine.version:
        yield "snapshot", f"snapshot stamped version {snapshot.version}, engine at {engine.version}"
    runner.held.append((snapshot, sequence, agg_truth[0] if agg_specs else {}))
    arity = len(engine.query.head)
    for held, captured, captured_answers in runner.held if final else runner.held[-2:-1]:
        where = f"snapshot at version {held.version}"
        now = list(held.enumerate())
        if now != captured:
            detail = _diff(dict(captured), dict(now)) or "same tuples, another order"
            yield "snapshot", f"{where} differs from the live engine at its capture: {detail}"
        for tup, expected in captured[:1] + ([((_ABSENT,) * arity, 0)] if arity else []):
            answer = held.lookup(tup)
            if answer != expected:
                yield "snapshot-lookup", f"{where}: lookup({tup!r}) is {answer}, expected {expected}"
        if agg_specs:
            agg_diff = _diff(captured_answers, held.aggregate(agg_specs[0]), "group")
            if agg_diff is not None:
                yield "aggregate-snapshot", f"{where}: {agg_specs[0].describe()}: {agg_diff}"


def case_failure(case: ConformanceCase) -> Optional[Mismatch]:
    """Run a case and normalize any failure mode into a single mismatch.

    A crash anywhere in the run (a rejected update, an invariant violation
    that escapes, an arbitrary exception in maintenance code) counts as a
    conformance failure exactly like a result divergence — the shrinker
    only needs *a* failure signal, not a classified one.
    """
    try:
        report = run_case(case)
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        return Mismatch(
            engine="(run)", checkpoint=-1, kind="crash", detail=f"{type(exc).__name__}: {exc}"
        )
    if report.mismatches:
        return report.mismatches[0]
    return None


# ---------------------------------------------------------------------------
# kill-mid-batch: differential crash recovery
# ---------------------------------------------------------------------------
#
# The durable engine's claim is stronger than "no data loss": after a crash
# at *any* instrumented point (WAL append, the torn half-write window, the
# fsync gap, and — on the checkpoint writer, which trails the committing
# thread — checkpoint write/fsync/rename and cleanup), recovering and
# replaying the not-yet-durable remainder of the workload must land on the
# state of an engine that never crashed: version, ε, threshold base, every
# base relation's content and insertion order, the result, sound invariants
# — and, once both are normalised, the same enumeration order.
# ``run_crash_recovery_case`` turns one ConformanceCase into that experiment.

#: "The writer has not run by the time the engine is closed."
UNTIL_CLOSE = sys.maxsize

#: Writer lags the sweep covers: inside the commit that scheduled the
#: checkpoint, one whole commit later, and not before ``close()``.
WRITER_LAGS = (0, 1, UNTIL_CLOSE)


class SteppedWriter:
    """Deterministic stand-in for the checkpoint writer thread.

    Crash hits can only be enumerated if the writer's sites interleave with
    the committer's the same way on every run, so jobs run on the calling
    thread: inline on ``submit`` for ``lag=0``, else at the ``tick()`` after
    ``lag`` further events — or at ``drain()`` if that comes first.
    """

    def __init__(self, lag: int) -> None:
        self.lag = lag
        self._job = None
        self._wait = 0

    def submit(self, job) -> None:
        if self.lag == 0:
            job()
        else:
            self._job, self._wait = job, self.lag + 1

    def tick(self) -> None:
        self._wait -= 1
        if self._wait <= 0:
            self.drain()

    def drain(self) -> None:
        job, self._job = self._job, None
        if job is not None:
            job()


def _recovery_plan(
    case: ConformanceCase,
) -> Tuple[int, List[Event], float, int, float, bool]:
    """Derive the deterministic crash experiment encoded by a case.

    Returns ``(digest, events, checkpoint_ratio, writer_lag, epsilon,
    batched)``.  Every *event* — one update, one segment as a raw update
    list (consolidated by the engine into one batch), or the mid-case
    :class:`Retune` — ticks the durable version at most once, so the
    recovered engine's version identifies exactly which events still need
    replaying.  All knobs derive from the case's JSON digest, so a shrunk
    repro file replays the same crash without carrying extra state.  The
    ratio makes these sub-kilobyte databases checkpoint every one to three
    records.
    """
    digest = zlib.crc32(case.to_json().encode("utf-8"))
    segments = case.segments()
    batched = bool(digest & 1)
    ratio = (1 + digest % 5) / 20
    lag = WRITER_LAGS[(digest >> 8) % len(WRITER_LAGS)]
    epsilon = case.epsilons[len(case.epsilons) // 2] if case.epsilons else 0.5
    retune_checkpoint = 1 + digest % len(segments) if segments else None
    target = RETUNE_EPSILONS[digest % len(RETUNE_EPSILONS)]
    events: List[Event] = []
    for number, segment in enumerate(segments, start=1):
        if batched:
            events.append(list(segment))
        else:
            events.extend(segment)
        if number == retune_checkpoint:
            events.append(Retune(target))
    return digest, events, ratio, lag, epsilon, batched


def _run_events(engine, events: Sequence[Event], lag: int) -> List[int]:
    """Commit ``events`` on a durable engine under a stepped writer; returns
    the version after each event (the map a resuming client works from).

    A rejected event (an over-delete the stream made invalid) is skipped.
    Rejections depend only on the engine's state, which the crash run, the
    oracle run, and the post-recovery replay all share at the corresponding
    version — so "skipped" is itself replayed faithfully.
    """
    writer = engine._durability.writer = SteppedWriter(lag)
    versions = []
    for event in events:
        try:
            engine.commit(event)
        except RejectedUpdateError:
            pass
        writer.tick()
        versions.append(engine.version)
    return versions


def _durable_state(engine):
    """What recovery promises to reproduce without normalising."""
    return (
        engine.epsilon,
        engine._driver.threshold_base,
        [(relation.name, list(relation.items())) for relation in engine.database],
    )


def _normalised_order(engine) -> List[Tuple[ValueTuple, int]]:
    """Enumeration order after ``rematerialize()`` — a pure function of
    :func:`_durable_state`, hence comparable across a crash."""
    engine._driver.rematerialize()
    return list(engine.enumerate())


def count_crash_sites(case: ConformanceCase, writer_lag: Optional[int] = None) -> int:
    """Number of crash-point hits in one clean durable run of ``case``.

    This is the size of the kill-anywhere sweep: arming the k-th hit for
    every ``1 <= k <= count_crash_sites(case)`` crashes the workload at
    every instrumented durability operation it performs, the writer's
    included, at the given writer lag (default: the case's own).
    """
    _digest, events, ratio, lag, epsilon, _batched = _recovery_plan(case)
    recorder = CrashPointInjector(None)
    tmp = Path(tempfile.mkdtemp(prefix="repro-crash-probe-"))
    try:
        with injected(recorder):
            engine = HierarchicalEngine(
                case.query,
                epsilon=epsilon,
                durability=DurabilityConfig(str(tmp / "wal"), checkpoint_ratio=ratio),
            )
            engine.load(case.database())
            _run_events(engine, events, lag if writer_lag is None else writer_lag)
            engine.close()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return recorder.total_hits


def run_crash_recovery_case(
    case: ConformanceCase,
    crash_hit: Union[int, Sequence[int], None] = None,
    max_mismatches: int = 20,
    writer_lag: Optional[int] = None,
) -> ConformanceReport:
    """Crash the case's durable workload, recover, resume, diff everything.

    ``crash_hit`` arms the k-th crash-point hit (1-based), or each of a
    sequence of hits in turn against one shared never-crashed twin; by
    default one case-deterministic hit is chosen, so fuzzed cases cover the
    whole matrix over time while each individual case replays identically.
    ``writer_lag`` (one of :data:`WRITER_LAGS`; default case-derived) is
    how far the checkpoint writer trails the commits that schedule it.
    Reported mismatch kinds all start with ``recovery``:

    * ``recovery-unrecoverable`` — recovery itself failed although durable
      state should exist;
    * ``recovery-version`` — the resumed engine missed the oracle version;
    * ``recovery-result`` — final result diverges from the naive oracle;
    * ``recovery-state`` — ε, the threshold base, or a base relation's
      content or insertion order differs from the never-crashed twin;
    * ``recovery-order`` — all of the above match but, after normalising
      both engines, the enumeration order differs;
    * ``recovery-invariant`` — the deep invariant probe failed after resume;
    * ``recovery-oracle`` — the *clean* durable run already diverges from
      the naive oracle (durability hooks corrupted normal ingestion).
    """
    query = parse_query(case.query)
    supported = classify(query).hierarchical
    if not supported:
        # durability is a dynamic-engine feature; nothing to crash
        return ConformanceReport(
            query=case.query, supported=False, engines=(), checkpoints_run=0
        )
    mismatches: List[Mismatch] = []
    digest, events, ratio, lag, epsilon, batched = _recovery_plan(case)
    if writer_lag is not None:
        lag = writer_lag
    engine_name = (
        f"durable(eps={epsilon},{'batch' if batched else 'seq'},"
        f"ratio={ratio},lag={'close' if lag == UNTIL_CLOSE else lag})"
    )

    def report() -> ConformanceReport:
        return ConformanceReport(
            query=case.query,
            supported=True,
            engines=(engine_name,),
            checkpoints_run=len(events),
            mismatches=mismatches[:max_mismatches],
        )

    def flag(kind: str, detail: str) -> None:
        mismatches.append(Mismatch(engine_name, -1, kind, detail))

    tmp = Path(tempfile.mkdtemp(prefix="repro-crash-"))
    try:
        # -- ground truth: the naive oracle over the same event sequence
        naive = NaiveRecomputeEngine(case.query).load(case.database())
        for event in events:
            try:
                if isinstance(event, Update):
                    naive.apply(event)
                elif not isinstance(event, Retune):
                    naive.apply_batch(event)
            except RejectedUpdateError:
                pass
        truth = dict(naive.result())

        # -- the never-crashed durable twin: durable-state and normalised-
        #    order oracle AND the event->version map used to resume after
        #    recovery.  A recorder injector counts the crash sites the
        #    workload passes through.
        oracle_config = DurabilityConfig(str(tmp / "oracle"), checkpoint_ratio=ratio)
        recorder = CrashPointInjector(None)
        with injected(recorder):
            oracle = HierarchicalEngine(
                case.query, epsilon=epsilon, durability=oracle_config
            )
            oracle.load(case.database())
            post_versions = _run_events(oracle, events, lag)
            oracle.close()
        oracle_result = dict(oracle.result())
        oracle_version = oracle.version
        oracle_state = _durable_state(oracle)
        oracle_order = _normalised_order(oracle)
        total_hits = recorder.total_hits
        clean_diff = _diff(truth, oracle_result)
        if clean_diff is not None:
            flag("recovery-oracle", clean_diff)
            return report()

        # -- the durable-acknowledgement contract: a *cleanly closed*
        #    directory must recover to exactly the acknowledged state.  The
        #    kill paths below cannot see a silently dropped WAL record (the
        #    resume loop re-sends anything non-durable, masking the loss),
        #    but this check does: every acked version must be on disk.
        try:
            reopened, _report = recover_engine(
                Path(oracle_config.directory), oracle_config
            )
        except DurabilityError as exc:
            flag(
                "recovery-durable-loss",
                f"cleanly closed directory failed to recover: {exc}",
            )
        else:
            reopened_diff = _diff(oracle_result, dict(reopened.result()))
            if reopened.version != oracle_version:
                flag(
                    "recovery-durable-loss",
                    f"clean close acknowledged version {oracle_version} "
                    f"but only {reopened.version} was durable",
                )
            elif reopened_diff is not None:
                flag(
                    "recovery-durable-loss",
                    f"clean-close recovery result drifted: {reopened_diff}",
                )
            elif _durable_state(reopened) != oracle_state:
                flag(
                    "recovery-durable-loss",
                    "clean-close recovery changed ε, the threshold base or a "
                    "base relation's insertion order",
                )
            elif _normalised_order(reopened) != oracle_order:
                flag(
                    "recovery-durable-loss",
                    "clean-close recovery changed the normalised enumeration order",
                )
            reopened.close()
        if mismatches:
            return report()

        # -- per armed hit: crash, recover, resume, diff (the twin above is
        #    shared, which is what keeps an exhaustive sweep affordable)
        if crash_hit is None:
            crash_hit = 1 + digest % max(1, total_hits)
        for hit in [crash_hit] if isinstance(crash_hit, int) else crash_hit:
            # -- crash run: arm the hit and run until the simulated kill (a
            #    crash on the writer surfaces at the next commit or close())
            crash_dir = tmp / f"crash-{hit}"
            crash_config = DurabilityConfig(str(crash_dir), checkpoint_ratio=ratio)
            crashed_site: Optional[str] = None
            with injected(CrashPointInjector("any", hits=hit)):
                try:
                    engine = HierarchicalEngine(
                        case.query, epsilon=epsilon, durability=crash_config
                    )
                    engine.load(case.database())
                    _run_events(engine, events, lag)
                    engine.close()
                except SimulatedCrashError as exc:
                    crashed_site = exc.site

            # -- recover (or, for a crash that predates the first durable
            #    checkpoint, restart from the source database like an operator
            #    whose load never completed)
            try:
                recovered, _report = recover_engine(crash_dir, crash_config)
            except DurabilityError as exc:
                if crashed_site is None:
                    raise
                if find_checkpoints(crash_dir):
                    flag(
                        "recovery-unrecoverable",
                        f"crash at {crashed_site!r} (hit {hit}) left "
                        f"checkpoints on disk but recovery failed: {exc}",
                    )
                    continue
                shutil.rmtree(crash_dir, ignore_errors=True)
                recovered = HierarchicalEngine(
                    case.query, epsilon=epsilon, durability=crash_config
                )
                recovered.load(case.database())

            # -- resume: replay exactly the events past the durable version
            durable_version = recovered.version
            start = 0
            while start < len(events) and post_versions[start] <= durable_version:
                start += 1
            _run_events(recovered, events[start:], lag)
            recovered.close()

            context = f"crash at {crashed_site!r} (hit {hit}/{total_hits})"
            if recovered.version != oracle_version:
                flag(
                    "recovery-version",
                    f"{context}: resumed to version {recovered.version}, "
                    f"oracle reached {oracle_version}",
                )
            try:
                recovered.check_invariants()
            except ReproError as exc:
                flag("recovery-invariant", f"{context}: {exc}")
            result_diff = _diff(truth, dict(recovered.result()))
            if result_diff is not None:
                flag("recovery-result", f"{context}: {result_diff}")
            elif _durable_state(recovered) != oracle_state:
                flag(
                    "recovery-state",
                    f"{context}: result matches but ε, the threshold base or a base "
                    "relation's insertion order diverges from the never-crashed "
                    "durable engine",
                )
            elif _normalised_order(recovered) != oracle_order:
                flag(
                    "recovery-order",
                    f"{context}: durable state matches but the normalised "
                    "enumeration order diverges from the never-crashed durable engine",
                )
        return report()
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def crash_recovery_failure(
    case: ConformanceCase, crash_hit: Optional[int] = None
) -> Optional[Mismatch]:
    """Run the crash-recovery mode and normalize any failure to a mismatch.

    The shrinker's predicate for ``recovery*`` kinds: a crash anywhere in
    the experiment itself (not a simulated one) is a finding too.
    """
    try:
        report = run_crash_recovery_case(case, crash_hit=crash_hit)
    except Exception as exc:  # noqa: BLE001 - any crash is a finding
        return Mismatch(
            engine="(crash-recovery)",
            checkpoint=-1,
            kind="recovery-crash",
            detail=f"{type(exc).__name__}: {exc}",
        )
    if report.mismatches:
        return report.mismatches[0]
    return None
