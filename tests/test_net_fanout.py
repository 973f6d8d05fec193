"""Ack before push: the order in which a commit's reply and its pushes leave.

The contract under test: the commit listener only hands ``(version,
delta)`` to the event loop, which builds each commit's payloads there and
fans the commit out after the reply of the wire request that made it —
pushes stay in version order and exactly once, no session's request holds
back the pushes of other commits, a commit with no request behind it goes
out at once, and a payload that cannot be built sends its subscribers to
resync and costs nothing else.
"""

from __future__ import annotations

import asyncio
import contextlib
import random
import socket
import sys
import threading
import time

import pytest

from repro import Database, HierarchicalEngine, Update
from repro.core.serving import EngineServer
from repro.net import EngineClient, ServerConfig, ServerThread
from repro.net.protocol import read_frame, wire_updates, write_frame
from repro.rings.spec import AggregateSpec
from tests.conftest import wait_until

QUERY = "Q(A, C) = R(A, B), S(B, C)"
DOMAIN = 8


def make_engine(seed: int = 5, rows: int = 40) -> HierarchicalEngine:
    rng = random.Random(seed)
    database = Database()
    database.create_relation("R", ("A", "B"))
    database.create_relation("S", ("B", "C"))
    for _ in range(rows):
        database.relation("R").apply_delta((rng.randrange(DOMAIN), rng.randrange(DOMAIN)), 1)
        database.relation("S").apply_delta((rng.randrange(DOMAIN), rng.randrange(DOMAIN)), 1)
    return HierarchicalEngine(QUERY, epsilon=0.5).load(database)


@contextlib.contextmanager
def serve(config=None):
    engine = make_engine()
    serving = EngineServer(engine)
    handle = ServerThread(serving, config or ServerConfig()).start()
    try:
        yield serving, handle
    finally:
        handle.close()
        engine.close()


def read_at_one_version(serving, subscription, timeout=10.0):
    """The served result and the mirror at one version, while other
    sessions may still commit: read a version, wait for the mirror to reach
    it, and try again if a commit moved the mirror past it meanwhile."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        ticket = serving.read()
        assert subscription.wait_for_version(ticket.version, timeout)
        mirrored = subscription.result()
        if subscription.version == ticket.version:  # the copy is of this version
            return ticket.result(), mirrored
    raise AssertionError(f"the served version did not hold still for {timeout} s")


def record_pushed_versions(subscription):
    """Every push frame's version, as it arrives, applied or not."""
    versions = []
    apply = subscription.state.apply

    def recording_apply(message):
        versions.append((message["kind"], message["version"]))
        return apply(message)

    subscription.state.apply = recording_apply
    return versions


def insert_batch(writer: int, step: int) -> list:
    """A batch no other writer's batch touches, so every commit changes the result."""
    return [Update("R", (100 + writer, step), 1), Update("S", (step, writer), 1)]


def test_a_commits_reply_arrives_before_its_push_on_the_same_connection():
    with serve() as (serving, handle):
        with socket.create_connection(("127.0.0.1", handle.port), timeout=10) as sock:
            write_frame(sock, {"op": "subscribe", "id": 1})
            subscribed = read_frame(sock)
            assert subscribed["ok"] and subscribed["version"] == serving.engine.version
            for step in range(10):
                write_frame(sock, {"op": "apply_batch", "id": 2 + step,
                                   "updates": wire_updates(insert_batch(0, step))})
                reply, push = read_frame(sock), read_frame(sock)
                assert reply.get("id") == 2 + step and reply["ok"], (reply, push)
                assert push["kind"] == "delta" and push["version"] == reply["version"]


def test_concurrent_writers_get_every_version_pushed_once_and_in_order():
    """More writers than cores, with a short switch interval to interleave
    the writer lane, the loop and the clients as often as possible."""
    writers, commits = 4, 50
    spec = AggregateSpec("sum", "C", ("A",))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with serve() as (serving, handle):
            with EngineClient("127.0.0.1", handle.port) as observer:
                plain = observer.subscribe()
                totals = observer.subscribe_aggregate(spec)
                start = plain.version
                assert totals.version == start
                pushed = [record_pushed_versions(plain), record_pushed_versions(totals)]
                acked = []

                def write(writer: int) -> None:
                    with EngineClient("127.0.0.1", handle.port) as client:
                        for step in range(commits):
                            acked.append(client.apply_batch(insert_batch(writer, step)))

                threads = [threading.Thread(target=write, args=(w,)) for w in range(writers)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(60)
                    assert not thread.is_alive()
                final = start + writers * commits
                assert sorted(acked) == list(range(start + 1, final + 1))
                tcp = handle.server
                assert not tcp._held and not tcp._pending  # nothing held after the last reply
                for mirror, versions in zip((plain, totals), pushed):
                    assert mirror.wait_for_version(final, 10.0)
                    assert versions == [("delta", v) for v in range(start + 1, final + 1)]
                assert plain.result() == serving.engine.result()
                assert totals.answers() == serving.engine.aggregate(spec)
                stats = tcp.stats.as_dict()
                assert stats["pushes_held"] == writers * commits
                assert stats["deltas_pushed"] == stats["agg_deltas_pushed"] == writers * commits
    finally:
        sys.setswitchinterval(interval)


def test_a_commit_without_a_request_reaches_subscribers_at_once():
    with serve() as (serving, handle):
        with EngineClient("127.0.0.1", handle.port) as client:
            subscription = client.subscribe()
            frames = handle.server.stats.as_dict()["frames_received"]
            version = serving.commit(Update("R", (100, 0), 1))
            serving.commit(Update("S", (0, 9), 1))  # from this thread, no wire request
            assert subscription.wait_for_version(version + 1, 10.0)
            assert subscription.result() == serving.engine.result()
            stats = handle.server.stats.as_dict()
            assert stats["frames_received"] == frames  # no wire traffic asked for it
            assert stats["pushes_held"] == 0


def test_stop_with_a_push_still_held_returns_cleanly():
    with serve() as (serving, handle):
        tcp = handle.server
        run = tcp._run

        async def stalling_run(fn, *args, write=False):
            result = await run(fn, *args, write=write)
            if write:  # committed, its push held, and its reply never written
                await asyncio.Event().wait()
            return result

        tcp._run = stalling_run
        with EngineClient("127.0.0.1", handle.port) as subscriber:
            subscription = subscriber.subscribe()
            writer = EngineClient("127.0.0.1", handle.port, timeout=2.0)
            with pytest.raises(TimeoutError):
                writer.apply_batch(insert_batch(0, 0))
            assert wait_until(lambda: len(tcp._held) == 1)
            assert subscription.version == serving.engine.version - 1
            thread = handle._thread
            handle.close()
            assert not thread.is_alive()
            assert not tcp._held and not tcp._pending
            writer.close()


def test_a_committer_that_never_reads_holds_back_no_other_push():
    """The reply is handed to the transport without waiting for the socket,
    so a session that commits but never reads cannot hold a push back."""
    config = ServerConfig(subscriber_queue_size=2, send_buffer_bytes=4096)
    with serve(config) as (serving, handle):
        with socket.socket() as wedged:
            wedged.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 4096)  # before connect
            wedged.connect(("127.0.0.1", handle.port))
            write_frame(wedged, {"op": "subscribe", "id": 1, "queue": 1})
            fan = [Update("S", (0, 1000 + c), 1) for c in range(300)]
            write_frame(wedged, {"op": "apply_batch", "id": 2, "updates": wire_updates(fan)})
            for step in range(40):  # each adds 300 result tuples; nothing is read
                batch = [Update("R", (1000 + step, 0), 1)]
                write_frame(wedged, {"op": "apply_batch", "id": 3 + step,
                                     "updates": wire_updates(batch)})
            with EngineClient("127.0.0.1", handle.port) as client:
                subscription = client.subscribe()
                for step in range(30):
                    version = client.apply_batch(insert_batch(1, step))
                    assert subscription.wait_for_version(version, 10.0), step
                served, mirrored = read_at_one_version(serving, subscription)
                assert mirrored == served


def test_a_payload_that_cannot_be_built_sends_only_its_subscribers_to_resync(monkeypatch):
    import repro.net.server as server_module

    fold = server_module.fold_delta

    def failing_fold(spec, head, pairs):
        if spec.ring.name == "sum":
            raise RuntimeError("cannot fold this commit")
        return fold(spec, head, pairs)

    monkeypatch.setattr(server_module, "fold_delta", failing_fold)
    sum_spec, count_spec = AggregateSpec("sum", "C", ("A",)), AggregateSpec("counting")
    with serve() as (serving, handle):
        with EngineClient("127.0.0.1", handle.port) as client:
            plain = client.subscribe()
            totals = client.subscribe_aggregate(sum_spec)
            counts = client.subscribe_aggregate(count_spec)
            for step in range(5):
                version = client.apply_batch(insert_batch(0, step))
            for mirror in (plain, totals, counts):
                assert mirror.wait_for_version(version, 10.0)
            assert plain.result() == serving.engine.result()
            assert totals.answers() == serving.engine.aggregate(sum_spec)
            assert counts.answers() == serving.engine.aggregate(count_spec)
            assert totals.state.resyncs >= 1 and counts.state.resyncs == 0
            stats = client.server_stats()["net"]
            assert stats["agg_resyncs"] >= 1 and stats["resyncs"] == 0
            assert client.ping()["version"] == version  # the loop lives on


def test_push_counters_stay_zero_without_subscribers_and_move_with_one():
    with serve() as (serving, handle):
        with EngineClient("127.0.0.1", handle.port) as client:
            for step in range(5):
                client.apply_batch(insert_batch(0, step))
            stats = client.server_stats()["net"]
            assert stats["push_build_us"] == 0 and stats["pushes_held"] == 0
            subscription = client.subscribe()
            for step in range(5, 10):
                version = client.apply_batch(insert_batch(0, step))
            assert subscription.wait_for_version(version, 10.0)
            stats = client.server_stats()["net"]
            assert stats["push_build_us"] > 0 and stats["pushes_held"] == 5
            text = client.metrics()
            assert "repro_net_push_build_us " in text
            assert "repro_net_pushes_held 5" in text
