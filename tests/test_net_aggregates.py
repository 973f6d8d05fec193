"""Aggregate subscriptions over the wire: mirrors, resync, rejection.

The contract under test: an aggregate subscriber's client-side mirror —
maintained purely from the server's per-commit ring-folded group deltas —
must equal the fold over a recompute oracle at every version stamp it
reaches; a wedged subscriber must re-converge through the coalesce-to-
resync path with the mirror intact; one-shot reads, the `/metrics`
surface, and the static-engine rejection complete the wire surface.
"""

from __future__ import annotations

import random
import socket
import time

import pytest

from repro import Database, HierarchicalEngine, Update
from repro.baselines.naive import NaiveRecomputeEngine
from repro.core.api import StaticEngine
from repro.core.serving import EngineServer
from repro.net import (
    EngineClient,
    RemoteError,
    ServerConfig,
    ServerThread,
)
from repro.net.client import AsyncAggregateSubscription
from repro.net.protocol import read_frame, write_frame
from repro.rings import AggregateSpec, answer_map, fold_result

QUERY = "Q(A, C) = R(A, B), S(B, C)"
HEAD = ("A", "C")
DOMAIN = 8


def make_database(seed: int = 3, rows: int = 40, hot: int = 0) -> Database:
    rng = random.Random(seed)
    database = Database()
    database.create_relation("R", ("A", "B"))
    database.create_relation("S", ("B", "C"))
    for c in range(hot):
        database.relation("S").apply_delta((0, c), 1)
    for _ in range(rows):
        database.relation("R").apply_delta(
            (rng.randrange(DOMAIN), rng.randrange(DOMAIN)), 1
        )
        database.relation("S").apply_delta(
            (rng.randrange(DOMAIN), rng.randrange(DOMAIN)), 1
        )
    return database


def oracle_answers(oracle: NaiveRecomputeEngine, spec: AggregateSpec):
    pairs = list(dict(oracle.result()).items())
    return answer_map(spec, fold_result(spec, HEAD, pairs))


def serve(engine):
    serving = EngineServer(engine)
    return ServerThread(serving, ServerConfig()).start()


def test_aggregate_subscription_mirrors_the_oracle_at_every_version():
    engine = HierarchicalEngine(QUERY, epsilon=0.5).load(make_database())
    oracle = NaiveRecomputeEngine(QUERY)
    oracle.load(make_database())
    sum_spec = AggregateSpec("sum", "C", ("A",))
    max_spec = AggregateSpec("max", "C")
    handle = serve(engine)
    try:
        with EngineClient("127.0.0.1", handle.port) as client:
            sum_sub = client.subscribe_aggregate(sum_spec)
            max_sub = client.subscribe_aggregate(max_spec)
            assert sum_sub.answers() == oracle_answers(oracle, sum_spec)
            rng = random.Random(17)
            inserted = []
            for _ in range(10):
                batch = []
                for _ in range(6):
                    if inserted and rng.random() < 0.4:
                        rel, tup = inserted.pop(rng.randrange(len(inserted)))
                        batch.append(Update(rel, tup, -1))
                    else:
                        rel = rng.choice(("R", "S"))
                        tup = (rng.randrange(DOMAIN), rng.randrange(DOMAIN))
                        inserted.append((rel, tup))
                        batch.append(Update(rel, tup, 1))
                version = client.apply_batch(batch)
                for update in batch:
                    oracle.update(
                        update.relation, update.tuple, update.multiplicity
                    )
                # mirror == fold at the exact version stamp, both rings
                for sub, spec in ((sum_sub, sum_spec), (max_sub, max_spec)):
                    assert sub.wait_for_version(version, timeout=15.0)
                    assert sub.answers() == oracle_answers(oracle, spec)
            assert sum_sub.state.deltas_applied > 0
            sum_sub.close()
            max_sub.close()
            stats = client.server_stats()
            assert stats["net"]["agg_deltas_pushed"] > 0
            assert stats["net"]["agg_subscribers_current"] == 0
    finally:
        handle.close()
        engine.close()


def test_one_shot_aggregate_reads_and_ring_labelled_metrics():
    engine = HierarchicalEngine(QUERY, epsilon=0.5).load(make_database())
    oracle = NaiveRecomputeEngine(QUERY)
    oracle.load(make_database())
    handle = serve(engine)
    try:
        with EngineClient("127.0.0.1", handle.port) as client:
            spec = AggregateSpec("counting", None, ("A",))
            assert client.aggregate(spec) == oracle_answers(oracle, spec)
            version, elements = client.aggregate_read(spec, maintained=False)
            assert version == engine.version
            assert answer_map(spec, elements) == oracle_answers(oracle, spec)
            sub = client.subscribe_aggregate("sum", "C", ("A",))
            client.apply_batch([Update("R", (0, 0), 1), Update("S", (0, 0), 1)])
            assert sub.wait_for_version(engine.version, timeout=15.0)
            text = client.metrics()
            assert "repro_aggregate_reads_total" in text
            assert 'repro_net_aggregate_deltas_pushed_total{ring="sum"}' in text
            sub.close()
    finally:
        handle.close()
        engine.close()


def test_static_engine_rejects_subscriptions_but_serves_one_shot_folds():
    engine = StaticEngine(QUERY)
    engine.load(make_database())
    oracle = NaiveRecomputeEngine(QUERY)
    oracle.load(make_database())
    handle = serve(engine)
    try:
        with EngineClient("127.0.0.1", handle.port) as client:
            with pytest.raises(RemoteError) as info:
                client.subscribe_aggregate("sum", "C", ("A",))
            assert info.value.kind == "UnsupportedQueryError"
            spec = AggregateSpec("max", "C", ("A",))
            assert client.aggregate(spec) == oracle_answers(oracle, spec)
    finally:
        handle.close()


def test_slow_aggregate_subscriber_coalesces_to_resync():
    """A wedged aggregate subscriber overflows its bounded queue and must
    re-converge through one full-elements resync, mirror intact."""
    engine = HierarchicalEngine(QUERY, epsilon=0.5).load(
        make_database(rows=0, hot=400)
    )
    oracle = NaiveRecomputeEngine(QUERY)
    oracle.load(make_database(rows=0, hot=400))
    # grouped by C: every commit's folded frame carries ~400 group rows,
    # so a non-reading subscriber actually wedges its bounded queue
    spec = AggregateSpec("sum", "A", ("C",))
    serving = EngineServer(engine)
    config = ServerConfig(subscriber_queue_size=2, send_buffer_bytes=4096)
    handle = ServerThread(serving, config).start()
    try:
        wedged = socket.socket()
        wedged.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        wedged.connect(("127.0.0.1", handle.port))
        write_frame(
            wedged,
            {"op": "subscribe_aggregate", "id": 1, "spec": spec.to_wire(),
             "queue": 2},
        )
        reply = read_frame(wedged)
        assert reply["ok"], reply
        # drive the mirror exactly as the client library would, from the
        # raw wire frames
        state = AsyncAggregateSubscription(
            int(reply["sub"]), int(reply["version"]), reply["result"], spec
        )

        # every commit touches 400 result tuples at the wedged subscriber
        for a in range(30):
            serving.apply_batch([Update("R", (a, 0), 1)])
            oracle.update("R", (a, 0), 1)
        final = engine.version
        time.sleep(0.3)

        wedged.settimeout(15)
        while state.version < final:
            message = read_frame(wedged)
            if "sub" in message:
                state.apply(message)
        wedged.close()

        assert state.answers() == oracle_answers(oracle, spec), (
            "aggregate mirror diverged after resync"
        )
        assert state.resyncs >= 1, (
            "bounded queue never overflowed into an aggregate resync"
        )
        net = handle.server.stats.as_dict()
        assert net["agg_resyncs"] >= 1
    finally:
        handle.close()
        engine.close()


def test_a_value_the_ring_cannot_lift_does_not_break_a_served_commit():
    """A string under a subscribed `sum`: the commit is acked and pushed to
    both mirrors, the answer raises on read (as the engine's own does), and
    deleting the value brings the answer back."""
    engine = HierarchicalEngine(QUERY, epsilon=0.5).load(make_database())
    oracle = NaiveRecomputeEngine(QUERY)
    oracle.load(make_database())
    spec = AggregateSpec("sum", "C", ("A",))
    engine.register_aggregate(spec)
    handle = serve(engine)
    try:
        with EngineClient("127.0.0.1", handle.port) as client:
            sub = client.subscribe_aggregate(spec)
            plain = client.subscribe()
            bad = [Update("R", (0, 0), 1), Update("S", (0, "x"), 1)]
            version = client.apply_batch(bad)
            for update in bad:
                oracle.update(update.relation, update.tuple, update.multiplicity)
            assert sub.wait_for_version(version, timeout=15.0)
            assert plain.wait_for_version(version, timeout=15.0)
            assert plain.result() == dict(oracle.result())
            with pytest.raises(TypeError, match="numeric values, got str"):
                sub.answers()
            with pytest.raises(TypeError, match="numeric values, got str"):
                client.aggregate(spec)
            assert sub.elements() == client.aggregate_read(spec)[1]
            version = client.apply_update(Update("S", (0, "x"), -1))
            oracle.update("S", (0, "x"), -1)
            assert sub.wait_for_version(version, timeout=15.0)
            assert sub.answers() == oracle_answers(oracle, spec)
            assert client.aggregate(spec) == oracle_answers(oracle, spec)
    finally:
        handle.close()
        engine.close()
