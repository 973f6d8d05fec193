"""Push-based subscriptions: hundreds of concurrent subscribers, one wire.

The networked serving layer (:mod:`repro.net`) pushes one consolidated
result delta per engine commit to every subscriber, instead of having
each of them re-read the full result.  This benchmark measures that
fan-out at scale and asserts the two claims the design stands on:

* **Consistency at scale** — ``SUBSCRIBERS`` concurrent subscribers (200
  at default scale, all multiplexed on one event loop against one
  server) each start from the full result in their subscribe response
  and then apply only the pushed per-commit deltas.  After the writer
  finishes, *every* subscriber's mirrored state must equal the oracle's
  final result at the final version — the recorded ``consistency`` ratio
  (converged subscribers / subscribers) must be 1.0.
* **Bounded memory under backpressure** — one deliberately slow
  subscriber (tiny kernel buffers, queue bound of 1, and it simply stops
  reading while the writer runs) must be switched to the coalescing
  resync path: the server's per-subscriber queue never grows beyond the
  configured bound (asserted via the ``max_queue_depth`` high-water
  mark), at least one resync is recorded, and the slow subscriber still
  converges to the oracle once it resumes reading.

The recorded table reports fan-out throughput (delta frames pushed per
second) alongside the asserted ratios.
"""

import asyncio
import random
import socket
import threading
import time

import pytest

from repro import Database, HierarchicalEngine, Update
from repro.baselines.naive import NaiveRecomputeEngine
from repro.core.serving import EngineServer
from repro.net import AsyncEngineClient, ServerConfig, ServerThread
from repro.net.protocol import read_frame, unwire_pairs, write_frame
from benchmarks.conftest import scaled

QUERY = "Q(A, C) = R(A, B), S(B, C)"
DOM = 24
SUBSCRIBERS = max(40, scaled(200))
COMMITS = max(12, scaled(30))
BATCH_SIZE = 6
QUEUE_BOUND = 16
SEED = 4242


#: Result tuples a hot-key insert adds.  Sized in bytes, not tuples: a delta
#: frame must be wide enough (about 6 KB, 4 bytes a tuple in protocol 3's
#: column blocks) that the slow subscriber's stalled connection runs out
#: of kernel and transport buffering within the smoke run's 12 commits.
HOT_FANOUT = 1600


def seed_database() -> Database:
    """A join with a hot key so per-commit deltas have real fan-out."""
    rng = random.Random(SEED)
    database = Database()
    database.create_relation("R", ("A", "B"))
    database.create_relation("S", ("B", "C"))
    for c in range(HOT_FANOUT):
        database.relation("S").apply_delta((0, c), 1)
    for _ in range(150):
        database.relation("R").apply_delta(
            (rng.randrange(DOM), rng.randrange(DOM)), 1
        )
        database.relation("S").apply_delta(
            (rng.randrange(1, DOM), rng.randrange(DOM)), 1
        )
    return database


def commit_stream():
    """COMMITS mixed batches; each opens with a hot-key insert so every
    pushed delta frame has real width (the slow subscriber's stalled
    connection must overflow its queue within a few commits, not hide
    behind kernel buffering)."""
    rng = random.Random(SEED + 1)
    inserted = []
    batches = []
    for _ in range(COMMITS):
        batch = [Update("R", (rng.randrange(DOM), 0), 1)]
        for _ in range(BATCH_SIZE - 1):
            if inserted and rng.random() < 0.35:
                relation, tup = inserted.pop(rng.randrange(len(inserted)))
                batch.append(Update(relation, tup, -1))
            else:
                relation = rng.choice(("R", "S"))
                tup = (rng.randrange(DOM), rng.randrange(1, DOM))
                inserted.append((relation, tup))
                batch.append(Update(relation, tup, 1))
        batches.append(batch)
    return batches


class SlowSubscriber:
    """A raw-socket subscriber that stops reading while the writer runs."""

    def __init__(self, port: int) -> None:
        self.sock = socket.socket()
        self.sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)
        self.sock.connect(("127.0.0.1", port))
        write_frame(self.sock, {"op": "subscribe", "id": 1, "queue": 1})
        reply = read_frame(self.sock)
        assert reply.get("ok"), reply
        self.version = reply["version"]
        self.result = {tup: mult for tup, mult in unwire_pairs(reply["result"])}
        self.resyncs_seen = 0

    def catch_up(self, target_version: int, timeout: float = 60.0) -> None:
        self.sock.settimeout(timeout)
        deadline = time.perf_counter() + timeout
        while self.version < target_version and time.perf_counter() < deadline:
            message = read_frame(self.sock)
            if "sub" not in message:
                continue
            if message["kind"] == "delta":
                if message["version"] <= self.version:
                    continue
                for tup, mult in unwire_pairs(message["delta"]):
                    updated = self.result.get(tup, 0) + mult
                    if updated:
                        self.result[tup] = updated
                    else:
                        self.result.pop(tup, None)
                self.version = message["version"]
            elif message["kind"] == "resync":
                self.result = {
                    tup: mult for tup, mult in unwire_pairs(message["result"])
                }
                self.version = message["version"]
                self.resyncs_seen += 1

    def close(self) -> None:
        self.sock.close()


async def run_fanout(port: int, batches, oracle_final, final_version: dict):
    """Connect SUBSCRIBERS clients, subscribe all, then drive the writer."""
    clients = []
    for _ in range(SUBSCRIBERS):
        clients.append(await AsyncEngineClient.connect("127.0.0.1", port))
    subscriptions = await asyncio.gather(*(c.subscribe() for c in clients))

    writer = clients[0]
    started = time.perf_counter()
    for batch in batches:
        final_version["version"] = await writer.apply_batch(batch)
    write_seconds = time.perf_counter() - started

    waits = await asyncio.gather(
        *(
            sub.wait_for_version(final_version["version"], timeout=120.0)
            for sub in subscriptions
        )
    )
    fanout_seconds = time.perf_counter() - started
    converged = sum(
        1
        for sub, waited in zip(subscriptions, waits)
        if waited and sub.result == oracle_final
    )
    deltas_applied = sum(sub.deltas_applied for sub in subscriptions)
    await asyncio.gather(*(c.close() for c in clients))
    return {
        "converged": converged,
        "deltas_applied": deltas_applied,
        "write_seconds": write_seconds,
        "fanout_seconds": fanout_seconds,
    }


@pytest.mark.benchmark(group="subscriptions")
def test_subscription_fanout_and_backpressure(figure_report):
    engine = HierarchicalEngine(QUERY, epsilon=0.5).load(seed_database())
    oracle = NaiveRecomputeEngine(QUERY)
    oracle.load(seed_database())
    serving = EngineServer(engine)
    config = ServerConfig(
        max_connections=SUBSCRIBERS + 16,
        max_subscriptions=SUBSCRIBERS + 16,
        subscriber_queue_size=QUEUE_BOUND,
        executor_threads=4,
        # Tiny buffers: a subscriber that stops reading stalls its sender
        # within a few frames, exercising the coalescing resync path
        # instead of hiding behind megabytes of kernel buffering.
        send_buffer_bytes=8192,
    )
    batches = commit_stream()
    for batch in batches:
        for update in batch:
            oracle.update(update.relation, update.tuple, update.multiplicity)
    oracle_final = oracle.result()

    with ServerThread(serving, config) as handle:
        slow = SlowSubscriber(handle.port)
        final_version = {"version": 0}
        stats = asyncio.run(
            run_fanout(handle.port, batches, oracle_final, final_version)
        )
        # the writer is done and every fast subscriber has converged; now
        # let the deliberately slow subscriber drain and resync
        slow.catch_up(final_version["version"])
        slow_converged = slow.result == oracle_final
        slow.close()
        net = handle.server.stats.as_dict()

    engine.close()

    consistency = stats["converged"] / SUBSCRIBERS
    pushes_per_second = (
        net["deltas_pushed"] / stats["fanout_seconds"]
        if stats["fanout_seconds"] > 0
        else 0.0
    )
    figure_report.record(
        "Push-based subscription fan-out (one server, one event loop)",
        [
            {
                "subscribers": SUBSCRIBERS,
                "commits": COMMITS,
                "deltas_pushed": net["deltas_pushed"],
                "deltas_applied": stats["deltas_applied"],
                "pushes_per_s": round(pushes_per_second),
                "consistency": consistency,
                "resyncs": net["resyncs"],
                "max_queue_depth": net["max_queue_depth"],
                "queue_bound": QUEUE_BOUND,
                "slow_converged": slow_converged,
            }
        ],
    )

    # headline claims (mirrored in BENCH_trajectory.json)
    assert consistency == 1.0, (
        f"only {stats['converged']}/{SUBSCRIBERS} subscribers reproduced "
        "the oracle from pushed deltas"
    )
    assert net["max_queue_depth"] <= QUEUE_BOUND, (
        f"a subscriber queue reached {net['max_queue_depth']} frames, "
        f"above the configured bound of {QUEUE_BOUND}"
    )
    assert net["resyncs"] >= 1, (
        "the deliberately slow subscriber never triggered the "
        "coalescing resync path"
    )
    assert slow_converged, "the slow subscriber diverged after its resync"
