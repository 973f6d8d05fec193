"""Networked-serving smoke test: one scripted client session, oracle-checked.

Boots an :class:`~repro.net.server.EngineTCPServer` on an ephemeral port
(fronting a *durable* dynamic engine on a small two-relation database,
checkpointing in the background every few commits), runs one
scripted :class:`~repro.net.client.EngineClient` session —

1. handshake (``ping``) and a paged snapshot enumeration,
2. one plain subscription plus two ring-aggregate subscriptions,
3. a burst of mixed insert/delete batches applied through the wire,
4. a one-shot aggregate read, a point lookup, and a ``/metrics`` scrape
   over plain HTTP —

and checks every served artifact against a
:class:`~repro.baselines.naive.NaiveRecomputeEngine` oracle: the paged
snapshot equals the oracle's state at capture, the subscription's pushed
deltas *replayed from the initial result* reproduce the oracle at every
version stamp, the final mirrored state equals the oracle's final state,
and every aggregate answer — the subscriptions' ring-folded mirrors and
the one-shot read — equals the one true fold
(:func:`repro.rings.spec.fold_result`) over the oracle's enumeration.
The scrape must carry the ``repro_durability_*`` family, and the closed
directory must recover to the oracle's final state.
Exit status 0 on success; any divergence raises.

Wired into ``make serve-smoke`` (and thereby ``make test``/CI)::

    PYTHONPATH=src python tools/serve_smoke.py
"""

from __future__ import annotations

import random
import sys
import tempfile
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.baselines.naive import NaiveRecomputeEngine  # noqa: E402
from repro.core.api import HierarchicalEngine  # noqa: E402
from repro.core.serving import EngineServer  # noqa: E402
from repro.data.database import Database  # noqa: E402
from repro.data.update import Update  # noqa: E402
from repro.durability import DurabilityConfig, recover_engine  # noqa: E402
from repro.net import EngineClient, ServerConfig, ServerThread  # noqa: E402
from repro.rings.spec import AggregateSpec, answer_map, fold_result  # noqa: E402

QUERY = "Q(A, C) = R(A, B), S(B, C)"
HEAD = ("A", "C")
DOMAIN = 10
BATCHES = 30
BATCH_SIZE = 8


def make_database(seed: int = 11, rows: int = 80) -> Database:
    database = Database()
    database.create_relation("R", ("A", "B"))
    database.create_relation("S", ("B", "C"))
    rng = random.Random(seed)
    for _ in range(rows):
        database.relation("R").apply_delta(
            (rng.randrange(DOMAIN), rng.randrange(DOMAIN)), 1
        )
        database.relation("S").apply_delta(
            (rng.randrange(DOMAIN), rng.randrange(DOMAIN)), 1
        )
    return database


def scripted_session() -> None:
    with tempfile.TemporaryDirectory(prefix="repro-serve-smoke-") as directory:
        durable_session(DurabilityConfig(directory, checkpoint_ratio=0.1))


def durable_session(durability: DurabilityConfig) -> None:
    engine = HierarchicalEngine(QUERY, epsilon=0.5, durability=durability)
    engine.load(make_database())
    oracle = NaiveRecomputeEngine(QUERY)
    oracle.load(make_database())
    serving = EngineServer(engine)
    with ServerThread(serving, ServerConfig()) as handle:
        with EngineClient("127.0.0.1", handle.port) as client:
            hello = client.ping()
            assert hello["query"] == str(engine.query), hello
            print(f"serve-smoke: connected to {hello['query']}")

            # 1. paged snapshot enumeration vs the oracle
            with client.open_snapshot() as snap:
                paged = snap.result(page_size=13)
                assert paged == oracle.result(), "paged snapshot diverged"
                if paged:
                    probe = next(iter(paged))
                    assert snap.lookup(probe) == paged[probe]
            print(f"serve-smoke: paged snapshot ok ({len(paged)} tuples)")

            # 2. subscribe, 3. drive mixed batches through the wire
            subscription = client.subscribe()
            initial_version = subscription.version
            initial_result = dict(subscription.result())
            assert initial_result == oracle.result(), "initial result diverged"
            # The mirror keeps no history: record each applied push here, by
            # wrapping its apply (nothing is pushed before the first write).
            events = []
            apply_push = subscription.state.apply

            def recording_apply(message):
                changed = apply_push(message)
                if changed:
                    kind = message["kind"]
                    pairs = message["delta" if kind == "delta" else "result"]
                    events.append((kind, message["version"], pairs))
                return changed

            subscription.state.apply = recording_apply

            # ring-aggregate subscriptions next to the plain one: the
            # server folds every commit per spec and pushes aggregate
            # deltas over the same push contract
            def agg_oracle(spec: AggregateSpec) -> dict:
                pairs = list(dict(oracle.result()).items())
                return answer_map(spec, fold_result(spec, HEAD, pairs))

            sum_spec = AggregateSpec("sum", "C", ("A",))
            count_spec = AggregateSpec("counting")
            sum_sub = client.subscribe_aggregate(sum_spec)
            count_sub = client.subscribe_aggregate(count_spec)
            assert sum_sub.answers() == agg_oracle(sum_spec), (
                "initial sum aggregate diverged"
            )
            assert count_sub.answers() == agg_oracle(count_spec), (
                "initial counting aggregate diverged"
            )

            rng = random.Random(77)
            inserted = []
            oracle_trajectory = {}
            final_version = initial_version
            for _ in range(BATCHES):
                batch = []
                for _ in range(BATCH_SIZE):
                    if inserted and rng.random() < 0.4:
                        relation, tup = inserted.pop(rng.randrange(len(inserted)))
                        batch.append(Update(relation, tup, -1))
                    else:
                        relation = rng.choice(("R", "S"))
                        tup = (rng.randrange(DOMAIN), rng.randrange(DOMAIN))
                        inserted.append((relation, tup))
                        batch.append(Update(relation, tup, 1))
                final_version = client.apply_batch(batch)
                for update in batch:
                    oracle.update(update.relation, update.tuple, update.multiplicity)
                oracle_trajectory[final_version] = oracle.result()

            assert subscription.wait_for_version(final_version, timeout=30.0), (
                f"subscription stuck at version {subscription.version} "
                f"< {final_version}"
            )
            assert subscription.result() == oracle.result(), (
                "subscription state diverged from the oracle"
            )

            # replay the pushed deltas from the initial result: the mirror
            # must pass through the oracle's state at every version stamp
            replay = dict(initial_result)
            checked = 0
            for kind, version, pairs in events:
                assert kind == "delta", f"unexpected {kind} push in smoke run"
                for tup, mult in pairs:
                    updated = replay.get(tup, 0) + mult
                    if updated:
                        replay[tup] = updated
                    else:
                        replay.pop(tup, None)
                if version in oracle_trajectory:
                    assert replay == oracle_trajectory[version], (
                        f"pushed deltas diverged from oracle at version {version}"
                    )
                    checked += 1
            assert checked == BATCHES, f"only {checked}/{BATCHES} versions checked"
            print(
                f"serve-smoke: subscription ok — {BATCHES} pushed deltas "
                f"match the oracle at every version stamp"
            )

            # the aggregate mirrors, maintained purely from ring-folded
            # push frames, must land on the fold over the oracle's final
            # enumeration; a one-shot read checks a ring no subscription
            # maintains
            for agg_sub, spec, label in (
                (sum_sub, sum_spec, "sum"),
                (count_sub, count_spec, "counting"),
            ):
                assert agg_sub.wait_for_version(final_version, timeout=30.0), (
                    f"{label} aggregate subscription stuck at "
                    f"{agg_sub.version} < {final_version}"
                )
                assert agg_sub.answers() == agg_oracle(spec), (
                    f"{label} aggregate mirror diverged from the oracle fold"
                )
            max_spec = AggregateSpec("max", "C", ("A",))
            assert client.aggregate(max_spec) == agg_oracle(max_spec), (
                "one-shot max aggregate diverged from the oracle fold"
            )
            sum_sub.close()
            count_sub.close()
            print(
                "serve-smoke: aggregates ok — ring-folded mirrors and the "
                "one-shot read match the oracle fold"
            )

            # 4. point lookup + metrics over plain HTTP on the same port
            if oracle.result():
                probe = next(iter(oracle.result()))
                assert client.lookup(probe) == oracle.result()[probe]
            text = urllib.request.urlopen(
                f"http://127.0.0.1:{handle.port}/metrics", timeout=10
            ).read().decode("utf-8")
            for needle in (
                "repro_engine_version",
                "repro_serving_batches_applied",
                "repro_net_deltas_pushed",
                "repro_net_push_bytes_total",
                "repro_aggregate_reads_total",
                "repro_snapshot_carried_indexes",
                'repro_net_aggregate_deltas_pushed_total{ring="sum"}',
                'repro_net_aggregate_deltas_pushed_total{ring="counting"}',
                "repro_durability_wal_bytes_since_checkpoint",
                "repro_durability_checkpoint_age_seconds",
                "repro_durability_checkpoints_written_total",
                "repro_durability_checkpoints_skipped_inflight_total",
                "repro_durability_checkpoint_last_seconds",
                "repro_durability_checkpoint_failures_total 0",
            ):
                assert needle in text, f"{needle} missing from /metrics"
            stats = client.server_stats()
            assert stats["net"]["deltas_pushed"] >= BATCHES
            assert stats["net"]["push_bytes"] > 0
            print(
                "serve-smoke: metrics ok "
                f"({len(text.splitlines())} exposition lines, "
                f"{stats['net']['deltas_pushed']} deltas pushed, "
                f"{stats['net']['push_bytes']} push bytes)"
            )
    engine.close()
    assert engine.durability_stats.checkpoints_written > 1, "no background checkpoint"
    recovered, _report = recover_engine(durability.directory, durability)
    assert recovered.version == engine.version
    assert dict(recovered.result()) == oracle.result(), "recovered state diverged"
    recovered.close()
    print(
        "serve-smoke: durability ok "
        f"({engine.durability_stats.checkpoints_written} checkpoints, recovered "
        f"version {recovered.version})"
    )


def main() -> int:
    scripted_session()
    print("serve-smoke: PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
