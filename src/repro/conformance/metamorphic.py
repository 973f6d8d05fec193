"""Metamorphic properties of update ingestion.

Differential testing needs an oracle; metamorphic testing needs only the
engine itself and an algebraic identity that must hold regardless of what
the correct result is.  The three identities here are the ones the batched
IVM pipeline leans on (and the ones incremental-view systems in the
DBToaster lineage classically check):

* **insert-then-delete is a no-op** — applying a stream and then its
  inversion in reverse order must restore the exact result (and keep every
  internal invariant intact);
* **permuting a consolidated batch is result-invariant** — a batch stores
  net per-relation deltas, so the order of the source updates (and hence
  the relation-group processing order) must not matter;
* **a partitioned stream equals the whole** — cutting a stream into
  consecutive consolidated chunks, or consolidating it into one batch,
  must land on the same final result as the one-tuple-at-a-time replay;
* **sharding is invisible** — running the same workload through
  :class:`~repro.sharding.ShardedEngine` at any shard count must produce
  exactly the single engine's result (same tuples, same multiplicities,
  each tuple once) in a shard-major Union order that every read repeats,
  with every per-shard and cross-shard invariant intact;
* **snapshots are isolated** — a snapshot captured at version ``v``
  enumerates exactly what a fresh engine replayed to ``v`` produces (order
  included), and keeps doing so after the live engine ingests arbitrary
  further segments — including ones that trigger minor/major rebalances —
  for both the single engine and the sharded facade;
* **retuning is invisible** — switching the live ε after an interleaved
  prefix (``engine.retune``) must leave the engine result- and
  order-equivalent to a fresh engine built at the new ε, through the whole
  remaining stream; the sharded facade must enumerate the same pairs as a
  fresh fleet at the new ε;
* **resharding is invisible** — elastically moving a live fleet from ``k``
  to ``k′`` shards (``ShardedEngine.reshard``) must leave it enumerating
  the same pairs as a fresh ``k′``-shard deployment fed the same stream,
  through the whole remaining suffix, while a snapshot captured *before*
  the reshard keeps enumerating its exact capture forever;
* **maintained aggregates equal the fold** — at every checkpoint of a
  segmented stream, ``engine.aggregate()`` answered from maintained ring
  state must equal :func:`repro.rings.spec.fold_result` over the naive
  oracle's enumeration — across an ε grid, through a mid-stream retune,
  and through the sharded facade's per-shard partial-aggregate merge at
  shard counts {1, 2, 4}.

Each check takes an ``engine_factory`` so it runs identically against
:class:`~repro.core.api.HierarchicalEngine` at any ε and against every
baseline; both the Hypothesis test-suite and ``tools/fuzz.py`` drive these
functions over the degree-distribution knobs of
:mod:`repro.workloads.generators`.
"""

from __future__ import annotations

import random
from collections import Counter
from typing import Callable, Sequence

from repro.conformance.runner import aggregate_specs_for
from repro.core.api import HierarchicalEngine
from repro.core.planner import is_shardable
from repro.data.database import Database
from repro.data.update import Update
from repro.exceptions import UnsupportedQueryError
from repro.query.parser import parse_query
from repro.rings.spec import answer_map, fold_result
from repro.sharding import ShardedEngine

EngineFactory = Callable[[], object]


def _loaded(engine_factory: EngineFactory, database: Database):
    engine = engine_factory()
    engine.load(database)
    return engine


def _fleet(query: str, shards: int, epsilon: float, database: Database, events=()):
    """A serial-executor fleet that loaded ``database`` and committed ``events``."""
    fleet = ShardedEngine(query, shards=shards, epsilon=epsilon, executor="serial")
    fleet.load(database)
    for event in events:
        fleet.commit(event)
    return fleet


def _maybe_check_invariants(engine) -> None:
    if isinstance(engine, HierarchicalEngine):
        engine.check_invariants()


def check_insert_delete_noop(
    engine_factory: EngineFactory, database: Database, updates: Sequence[Update]
) -> None:
    """Applying ``updates`` then their reversed inversion restores the result."""
    engine = _loaded(engine_factory, database)
    before = dict(engine.result())
    for update in updates:
        engine.apply(update)
    for update in reversed(list(updates)):
        engine.apply(update.inverted())
    after = dict(engine.result())
    assert after == before, (
        "insert-then-delete round-trip changed the result: "
        f"{len(before)} tuples before, {len(after)} after"
    )
    _maybe_check_invariants(engine)


def check_batch_permutation_invariance(
    engine_factory: EngineFactory,
    database: Database,
    updates: Sequence[Update],
    rng: random.Random,
) -> None:
    """A consolidated batch must ingest identically under source-order permutation.

    Permuting the sources changes the first-touched relation order inside
    the batch, and with it the relation-group processing order of the
    batched maintenance path — the final result must not notice.
    """
    original = _loaded(engine_factory, database)
    original.apply_batch(list(updates))
    permuted_updates = list(updates)
    rng.shuffle(permuted_updates)
    permuted = _loaded(engine_factory, database)
    permuted.apply_batch(permuted_updates)
    assert dict(original.result()) == dict(permuted.result()), (
        "permuting a consolidated batch changed the result"
    )
    _maybe_check_invariants(original)
    _maybe_check_invariants(permuted)


def check_partition_union(
    engine_factory: EngineFactory,
    database: Database,
    updates: Sequence[Update],
    parts: int,
) -> None:
    """Chunked batches, one whole batch, and sequential replay must agree."""
    updates = list(updates)
    sequential = _loaded(engine_factory, database)
    for update in updates:
        sequential.apply(update)
    expected = dict(sequential.result())

    whole = _loaded(engine_factory, database)
    whole.apply_batch(updates)
    assert dict(whole.result()) == expected, (
        "consolidating the whole stream into one batch changed the result"
    )

    parts = max(1, parts)
    size = max(1, (len(updates) + parts - 1) // parts) if updates else 1
    chunked = _loaded(engine_factory, database)
    for start in range(0, len(updates), size):
        chunked.apply_batch(updates[start : start + size])
    assert dict(chunked.result()) == expected, (
        f"partitioning the stream into {parts} consolidated chunks changed the result"
    )
    for engine in (sequential, whole, chunked):
        _maybe_check_invariants(engine)


def check_shard_merge(
    query: str,
    epsilon: float,
    database: Database,
    updates: Sequence[Update],
    shard_counts: Sequence[int] = (1, 2, 4, 7),
) -> None:
    """Sharded execution must be indistinguishable from a single engine.

    For every shard count: identical result dictionary, every tuple
    enumerated once (same tuples, same multiplicities as the single engine),
    and all per-shard plus cross-shard placement invariants intact — after
    the full stream, so any minor/major rebalances along the way are
    covered too.  Sharded enumeration is shard-major Union order, not the
    single engine's order, and deterministic: a repeated live read and a
    snapshot read must enumerate the same sequence.  Unshardable queries
    (disconnected bodies) must be *rejected* by the sharded gate while the
    single engine still accepts them.
    """
    updates = list(updates)
    single = HierarchicalEngine(query, epsilon=epsilon)
    if not is_shardable(single.query):
        try:
            ShardedEngine(query, shards=2, epsilon=epsilon)
        except UnsupportedQueryError:
            return
        raise AssertionError(
            f"shard gate accepted unshardable query {query!r}"
        )
    single.load(database)
    for update in updates:
        single.apply(update)
    expected = dict(single.result())
    for shards in shard_counts:
        sharded = _fleet(query, shards, epsilon, database, updates)
        merged = list(sharded.enumerate())
        assert len(merged) == len(expected) and dict(merged) == expected, (
            f"shard count {shards}: sharded enumeration diverges from the "
            f"single engine ({len(merged)} vs {len(expected)} tuples)"
        )
        with sharded.snapshot() as snapshot:
            assert list(snapshot.enumerate()) == list(sharded.enumerate()) == merged, (
                f"shard count {shards}: a repeated read changed the order"
            )
        sharded.check_invariants()
        sharded.close()
    _maybe_check_invariants(single)


def _segments(updates: Sequence[Update], parts: int) -> list:
    updates = list(updates)
    parts = max(1, parts)
    size = max(1, (len(updates) + parts - 1) // parts) if updates else 1
    return [updates[i : i + size] for i in range(0, len(updates), size)]


def check_retune_equivalence(
    query: str,
    epsilon_before: float,
    epsilon_after: float,
    database: Database,
    updates: Sequence[Update],
    shard_counts: Sequence[int] = (1, 2, 4),
    segments: int = 3,
) -> None:
    """``retune(ε₂)`` must equal a fresh engine built at ε₂ — order included.

    After an interleaved prefix of batches, the engine retunes from ε₁ to
    ε₂; from that point on it must be indistinguishable from

    * a **rebuilt** engine: a fresh ε₂ engine loaded with the retuned
      engine's current database — compared by exact enumeration sequence
      (result *and* order) after the retune and after every suffix batch,
      which pins retune-as-reload: same ``M = 2N + 1`` base, same strict
      partitions, same view contents in the same order;
    * a **replayed** engine: a fresh ε₂ engine loaded with the *original*
      database and replayed over the whole stream — compared by result
      dictionary (its threshold base evolved by doubling/halving instead
      of being re-anchored, so partitions and enumeration order may
      legitimately differ; results never may).

    Both live engines then pass the deep invariant probe and the loose
    partition check.  The sharded facade runs the same protocol at every
    shard count against a fresh sharded deployment at ε₂, compared as
    multisets of pairs: a shard's tree order follows its own history, and
    sharded enumeration is shard-major Union order over those.
    """
    updates = list(updates)
    batches = _segments(updates, segments)
    cut = max(1, len(batches) // 2)
    prefix, suffix = batches[:cut], batches[cut:]

    retuned = HierarchicalEngine(query, epsilon=epsilon_before)
    retuned.load(database)
    for batch in prefix:
        retuned.apply_batch(batch)
    retuned.retune(epsilon_after)
    assert retuned.epsilon == epsilon_after
    rebuilt = HierarchicalEngine(query, epsilon=epsilon_after)
    rebuilt.load(retuned.database)  # load() copies; the engines stay independent
    replayed = HierarchicalEngine(query, epsilon=epsilon_after)
    replayed.load(database)
    for batch in prefix:
        replayed.apply_batch(batch)
    assert list(retuned.enumerate()) == list(rebuilt.enumerate()), (
        "retuned engine enumerates differently from a fresh engine built at "
        "the new epsilon over the same database"
    )
    for batch in suffix:
        retuned.apply_batch(batch)
        rebuilt.apply_batch(batch)
        replayed.apply_batch(batch)
        assert list(retuned.enumerate()) == list(rebuilt.enumerate()), (
            "retuned and rebuilt engines diverged while ingesting the suffix"
        )
    assert dict(retuned.result()) == dict(replayed.result()), (
        "retuned engine's result diverges from a fresh engine replayed at "
        "the new epsilon"
    )
    retuned.check_invariants()
    rebuilt.check_invariants()
    if retuned._driver is not None:
        retuned._driver.check_partitions()

    if not is_shardable(retuned.query):
        return
    for shards in shard_counts:
        sharded = _fleet(query, shards, epsilon_before, database, prefix)
        sharded.retune(epsilon_after)
        fresh = _fleet(query, shards, epsilon_after, database, prefix)
        for batch in suffix:
            sharded.apply_batch(batch)
            fresh.apply_batch(batch)
        assert Counter(sharded.enumerate()) == Counter(fresh.enumerate()), (
            f"shard count {shards}: retuned sharded enumeration diverges "
            "from a fresh deployment at the new epsilon"
        )
        sharded.check_invariants()
        sharded.close()
        fresh.close()


def check_reshard_equivalence(
    query: str,
    epsilon: float,
    database: Database,
    updates: Sequence[Update],
    shard_counts: Sequence[int] = (1, 2, 4, 7),
    segments: int = 3,
) -> None:
    """``reshard(k′)`` must equal a fresh ``k′`` fleet, pair for pair.

    For every adjacent pair of shard counts (cyclically, so both splits
    and merges are exercised): a fleet at ``k`` ingests an interleaved
    prefix of batches, captures a snapshot, and reshards to ``k′``; from
    that point on it must be indistinguishable from a fresh ``k′``-shard
    deployment fed the same prefix — compared as exact multisets of
    enumerated pairs (each shard's tree order follows its own insertion
    history, which a reshard rewrites) right after the swap and again after
    every suffix batch.  The reshard itself ticks the facade version exactly once,
    like a retune.  The held snapshot must still enumerate its exact
    pre-reshard capture after the swap *and* after the suffix mutated the
    new fleet underneath it — the retired fleet stays alive precisely as
    long as pinned readers need it.  Unshardable queries are skipped (the
    sharded gate rejects them before a fleet ever exists).
    """
    single = HierarchicalEngine(query, epsilon=epsilon)
    if not is_shardable(single.query):
        return
    updates = list(updates)
    batches = _segments(updates, segments)
    cut = max(1, len(batches) // 2)
    prefix, suffix = batches[:cut], batches[cut:]
    counts = list(shard_counts)
    for index, before in enumerate(counts):
        after = counts[(index + 1) % len(counts)]
        if after == before:
            continue
        resharded = _fleet(query, before, epsilon, database, prefix)
        held = resharded.snapshot()
        held_sequence = list(held.enumerate())
        version_before = resharded.version
        resharded.reshard(after)
        assert resharded.shards == after, (
            f"reshard({after}) left the facade reporting {resharded.shards}"
        )
        assert resharded.version == version_before + 1, (
            f"reshard {before}->{after} ticked the version from "
            f"{version_before} to {resharded.version}, expected exactly one"
        )
        fresh = _fleet(query, after, epsilon, database, prefix)
        assert Counter(resharded.enumerate()) == Counter(fresh.enumerate()), (
            f"reshard {before}->{after}: sharded enumeration diverges from a "
            "fresh deployment at the new count"
        )
        for batch in suffix:
            resharded.apply_batch(batch)
            fresh.apply_batch(batch)
            assert Counter(resharded.enumerate()) == Counter(fresh.enumerate()), (
                f"reshard {before}->{after}: resharded and fresh fleets "
                "diverged while ingesting the suffix"
            )
        assert list(held.enumerate()) == held_sequence, (
            f"reshard {before}->{after}: a snapshot captured before the "
            "reshard no longer enumerates its capture"
        )
        held.close()
        resharded.check_invariants()
        resharded.close()
        fresh.close()


def check_snapshot_isolation(
    query: str,
    epsilon: float,
    database: Database,
    updates: Sequence[Update],
    shard_counts: Sequence[int] = (1, 2, 4),
    segments: int = 3,
) -> None:
    """A snapshot at version ``v`` equals a fresh replay to ``v`` — forever.

    The stream is cut into ``segments`` batches.  After each batch the live
    engine captures a snapshot and records its own enumeration sequence;
    only after *all* batches have been ingested (so every snapshot except
    the last has seen the engine mutate underneath it, rebalances and all)
    is each snapshot checked: its enumeration must equal the sequence the
    live engine produced at capture time, and its result must equal the
    ground truth of a fresh :class:`NaiveRecomputeEngine` replayed to the
    same prefix.  The sharded facade runs the same protocol at every shard
    count.
    """
    from repro.baselines.naive import NaiveRecomputeEngine

    batches = _segments(updates, segments)
    oracle = NaiveRecomputeEngine(query)
    oracle.load(database)
    truths = []
    for batch in batches:
        oracle.apply_batch(batch)
        truths.append(dict(oracle.result()))

    single = HierarchicalEngine(query, epsilon=epsilon).load(database)
    engines = [("single engine", single)]
    if is_shardable(single.query):
        engines += [(f"{n} shards", _fleet(query, n, epsilon, database)) for n in shard_counts]
    for label, engine in engines:
        captured = []
        for batch in batches:
            engine.apply_batch(batch)
            captured.append((engine.snapshot(), list(engine.enumerate())))
        for index, (snapshot, live_sequence) in enumerate(captured):
            where = f"{label}: snapshot at version {snapshot.version}"
            assert snapshot.version == index + 1, f"{where}, taken after batch {index}"
            sequence = list(snapshot.enumerate())
            assert sequence == live_sequence, (
                f"{where} enumerates differently from the live engine at capture time"
            )
            assert len(sequence) == len(truths[index]) and dict(sequence) == truths[index], (
                f"{where} diverges from a fresh oracle replayed to the same prefix"
            )
            for tup, mult in truths[index].items():
                assert snapshot.lookup(tup) == mult, f"{where}: lookup({tup!r}) != {mult}"
                break  # one probe per snapshot keeps the check cheap
            snapshot.close()
        engine.check_invariants()
        if isinstance(engine, ShardedEngine):
            engine.close()


def check_aggregate_equivalence(
    query: str,
    epsilons: Sequence[float],
    database: Database,
    updates: Sequence[Update],
    shard_counts: Sequence[int] = (1, 2, 4),
    segments: int = 3,
    extra_specs: Sequence = (),
) -> None:
    """``engine.aggregate()`` equals the fold over the oracle — everywhere.

    The single fold definition (:func:`repro.rings.spec.fold_result` over
    the naive oracle's enumeration) is the ground truth.  Against it, at
    checkpoint 0 and after every segment of the stream:

    * a :class:`HierarchicalEngine` per ε of ``epsilons`` answers every
      spec of the generic set (plus ``extra_specs``) from *maintained*
      ring state — the specs are registered before any update, so the
      answers come from incremental maintenance, never a re-fold — and
      the ``maintained=False`` enumerate-and-fold path is probed too;
    * the sharded facade at every ``shard_counts`` answers by merging
      per-shard partial aggregates (:func:`repro.rings.spec.merge_elements`)
      — grouped aggregation must be a homomorphism of the shard
      decomposition;
    * at the halfway checkpoint every engine **retunes** to a different ε
      mid-stream, so the strict repartition must leave the maintained
      states exact (retraction-sensitive rings like min/max included).

    ``extra_specs`` takes ``(ring name, value, group_by)`` triples, e.g. a
    scenario's natural aggregates.  Non-hierarchical queries are skipped
    (the engines under test reject them at the fragment gate).
    """
    try:
        probe = HierarchicalEngine(query)
    except UnsupportedQueryError:
        return
    head = tuple(parse_query(query).head)
    specs = aggregate_specs_for(head, extra_specs)
    epsilons = tuple(epsilons) or (0.5,)
    batches = _segments(updates, segments)
    cut = max(1, len(batches) // 2)

    from repro.baselines.naive import NaiveRecomputeEngine

    oracle = NaiveRecomputeEngine(query)
    oracle.load(database)

    def _fold_oracle() -> list:
        pairs = list(dict(oracle.result()).items())
        return [answer_map(s, fold_result(s, head, pairs)) for s in specs]

    truths = [_fold_oracle()]
    for batch in batches:
        oracle.apply_batch(batch)
        truths.append(_fold_oracle())

    mid = epsilons[len(epsilons) // 2]
    engines = [
        (f"ivm(eps={eps})", HierarchicalEngine(query, epsilon=eps).load(database))
        for eps in epsilons
    ]
    if is_shardable(probe.query):
        for shards in shard_counts:
            engines.append((f"sharded(n={shards},eps={mid})", _fleet(query, shards, mid, database)))
    for _name, engine in engines:
        for spec in specs:
            engine.register_aggregate(spec)

    def check(checkpoint: int) -> None:
        expected_list = truths[checkpoint]
        for name, engine in engines:
            for spec, expected in zip(specs, expected_list):
                observed = engine.aggregate(spec)
                assert observed == expected, (
                    f"{name} at checkpoint {checkpoint}: maintained "
                    f"{spec.describe()} aggregate diverges from the fold "
                    f"over the oracle ({len(observed)} vs "
                    f"{len(expected)} groups)"
                )
            folded = engine.aggregate(specs[0], maintained=False)
            assert folded == expected_list[0], (
                f"{name} at checkpoint {checkpoint}: enumerate-and-fold "
                f"{specs[0].describe()} aggregate diverges from the oracle"
            )

    check(0)
    for number, batch in enumerate(batches, start=1):
        for _name, engine in engines:
            engine.apply_batch(batch)
        if number == cut:
            for _name, engine in engines:
                # a target guaranteed distinct from the live ε, so the
                # retune is a genuine strict repartition
                engine.retune(0.25 if abs(engine.epsilon - 0.25) > 1e-9 else 0.75)
        check(number)
    for _name, engine in engines:
        engine.check_invariants()
        if isinstance(engine, ShardedEngine):
            engine.close()
