"""The wire client exists once: ``AsyncEngineClient``, and ``EngineClient``
as the same client on a private loop thread.

* the contract test runs one scripted session through both and compares
  every reply and every ``RemoteError.kind``;
* the mirror's state machine is checked once per merge rule (tuple
  multiplicities, ring elements);
* a request after the connection is lost fails at once, a request that
  timed out or was cancelled leaves nothing behind, and ``read`` /
  ``snapshot_page`` refuse a ``limit`` that is not a positive integer.
"""

from __future__ import annotations

import asyncio
import inspect
import time

import pytest

from repro import HierarchicalEngine, Update
from repro.core.serving import EngineServer
from repro.net import (
    AsyncAggregateSubscription,
    AsyncEngineClient,
    AsyncSubscription,
    ConnectionClosedError,
    EngineClient,
    RemoteError,
    ServerConfig,
    ServerThread,
    wire_pairs,
)
from repro.rings import AggregateSpec
from tests.conftest import wait_until
from tests.test_net import PATH_QUERY, make_database, serve

HOST = "127.0.0.1"


# ----------------------------------------------------------------------
# one scripted session, two clients
# ----------------------------------------------------------------------
async def done(value):
    """The result of a client call: awaited if the client is the asyncio one."""
    return await value if inspect.isawaitable(value) else value


async def remote_error_kind(call) -> str:
    with pytest.raises(RemoteError) as info:
        await done(call())
    return info.value.kind


async def scripted_session(client) -> list:
    """Every op once; what is logged is free of versions, ids and counters
    that a second session on the same server would see differently (each
    insert is deleted again, versions are logged relative to the first)."""
    log = []
    hello = await done(client.ping())
    base = hello.pop("version")
    log.append(("ping", hello))
    version, pairs = await done(client.read())
    log.append(("read", version - base, pairs))
    version, page = await done(client.read(3))
    log.append(("read limit", version - base, page))
    log.append(("result", await done(client.result())))
    probe = pairs[0][0]
    log.append(("lookup", await done(client.lookup(probe)), await done(client.lookup((99, 99)))))
    spec = AggregateSpec("sum", "C", ("A",))
    log.append(("aggregate", await done(client.aggregate(spec))))
    version, elements = await done(client.aggregate_read("counting", maintained=False))
    log.append(("aggregate_read", version - base, elements))

    snap = await done(client.open_snapshot())
    page, finished = await done(snap.page(7))
    log.append(("page", snap.version - base, page, finished))
    log.append(("snapshot lookup", await done(snap.lookup(probe))))
    log.append(("snapshot result", await done(snap.result(11))))
    await done(snap.close())
    await done(snap.close())  # idempotent: no second request
    stale = lambda: client.request("snapshot_page", snap=snap.snap, limit=5)  # noqa: E731
    log.append(("stale handle", await remote_error_kind(stale)))
    log.append(("unknown op", await remote_error_kind(lambda: client.request("frobnicate"))))
    log.append(("bad limit", await remote_error_kind(lambda: client.read(0))))

    subscription = await done(client.subscribe(PATH_QUERY))
    aggregate = await done(client.subscribe_aggregate(spec, queue=4))
    mirror = getattr(subscription, "state", subscription)
    log.append(("subscribe", mirror.version - base, dict(mirror.result)))
    log.append(("subscribe_aggregate", await done(aggregate.answers())))
    version = await done(client.apply_update(Update("R", (90, 1), 1)))
    log.append(("apply_update", version - base))
    for step in range(4):
        batch = [Update("R", (91 + step, 2), 1), Update("S", (2, 91 + step), 1)]
        version = await done(client.apply_batch(batch))
    log.append(("apply_batch", version - base))
    for handle in (subscription, aggregate):
        assert await done(handle.wait_for_version(version, 10.0))
    log.append(("mirror", dict(mirror.result), mirror.deltas_applied, mirror.resyncs))
    log.append(("aggregate mirror", await done(aggregate.elements())))
    log.append(("rejected", await remote_error_kind(
        lambda: client.apply_batch([Update("R", (7, 7), -3)])
    )))
    await done(client.unsubscribe(subscription))
    await done(client.unsubscribe(aggregate))
    undo = [Update("R", (90, 1), -1)]
    for step in range(4):
        undo += [Update("R", (91 + step, 2), -1), Update("S", (2, 91 + step), -1)]
    await done(client.apply_batch(undo))
    assert not await done(subscription.wait_for_version(version + 1, 0.2))  # unsubscribed

    text = await done(client.metrics())
    log.append(("metrics", sorted({line.split()[2] for line in text.splitlines() if line.startswith("# TYPE")})))
    stats = await done(client.server_stats())
    log.append(("stats", sorted(stats), sorted(stats["net"]), stats["net"]["subscribers_current"]))
    return log


def test_both_clients_answer_one_scripted_session_alike():
    async def through_the_async_client(port: int) -> list:
        client = await AsyncEngineClient.connect(HOST, port)
        try:
            return await scripted_session(client)
        finally:
            await client.close()

    with serve() as (serving, handle):
        before = serving.engine.result()
        with EngineClient(HOST, handle.port) as client:
            blocking = asyncio.run(scripted_session(client))
        assert serving.engine.result() == before  # the session undid its writes
        through_async = asyncio.run(through_the_async_client(handle.port))
    assert len(blocking) == len(through_async) >= 20
    for ours, theirs in zip(blocking, through_async):
        assert repr(ours) == repr(theirs)


# ----------------------------------------------------------------------
# the mirror, once per merge rule
# ----------------------------------------------------------------------
COUNTING = AggregateSpec("counting", None, ("A",))


def tuple_mirror(version: int, state: dict) -> AsyncSubscription:
    return AsyncSubscription(1, version, wire_pairs(state.items()))


def aggregate_rows(state: dict) -> list:
    """``{group: count}`` as the counting ring's wire rows (support = element)."""
    return [[list(group), count, count] for group, count in state.items()]


def aggregate_mirror(version: int, state: dict) -> AsyncAggregateSubscription:
    return AsyncAggregateSubscription(1, version, aggregate_rows(state), COUNTING)


MERGE_RULES = [
    pytest.param(tuple_mirror, lambda d: wire_pairs(d.items()), lambda m: m.result, id="tuples"),
    pytest.param(
        aggregate_mirror,
        aggregate_rows,
        lambda m: {group: support for group, (support, _element) in m.elements().items()},
        id="ring-elements",
    ),
]


@pytest.mark.parametrize("mirror_of, payload, counts", MERGE_RULES)
def test_mirror_state_machine(mirror_of, payload, counts):
    mirror = mirror_of(4, {(1,): 2, (2,): 1})
    assert mirror.version == 4 and counts(mirror) == {(1,): 2, (2,): 1}
    # pushes overlapping the initial read deduplicate: not newer, not applied
    for version in (3, 4):
        assert not mirror.apply({"kind": "delta", "version": version, "delta": payload({(1,): 5})})
    assert counts(mirror) == {(1,): 2, (2,): 1} and mirror.deltas_applied == 0
    # a newer delta merges; an entry that reaches zero disappears
    assert mirror.apply({"kind": "delta", "version": 5, "delta": payload({(1,): -2, (3,): 4})})
    assert mirror.version == 5 and counts(mirror) == {(2,): 1, (3,): 4}
    # a resync replaces the state wholesale, at whatever version it carries
    assert mirror.apply({"kind": "resync", "version": 9, "result": payload({(7,): 1})})
    assert mirror.version == 9 and counts(mirror) == {(7,): 1}
    assert not mirror.apply({"kind": "delta", "version": 8, "delta": payload({(7,): 1})})
    assert (mirror.deltas_applied, mirror.resyncs) == (1, 1)
    if mirror_of is aggregate_mirror:
        assert mirror.answers() == {(7,): 1}

    async def waits():
        assert await mirror.wait_for_version(9, 0.05)
        started = time.monotonic()
        assert not await mirror.wait_for_version(10, 0.1)
        assert 0.05 < time.monotonic() - started < 2.0
        loop = asyncio.get_running_loop()
        loop.call_later(0.05, mirror.apply, {"kind": "delta", "version": 10, "delta": payload({})})
        assert await mirror.wait_for_version(10, 5.0)

    asyncio.run(waits())


# ----------------------------------------------------------------------
# what the two hand-copies had drifted apart on
# ----------------------------------------------------------------------
def test_a_request_after_the_connection_is_lost_fails_at_once():
    """Either client: ``ConnectionClosedError``, not a wait nobody ends."""

    async def async_client(port: int, stop) -> None:
        client = await AsyncEngineClient.connect(HOST, port)
        await client.request("ping")
        stop()
        await asyncio.wait({client._task}, timeout=10.0)  # the reader saw the EOF
        for _ in range(2):
            with pytest.raises(ConnectionClosedError):
                await asyncio.wait_for(client.request("ping"), 1.0)
        assert client._pending == {}
        await client.close()

    engine = HierarchicalEngine(PATH_QUERY).load(make_database())
    handle = ServerThread(EngineServer(engine), ServerConfig()).start()
    asyncio.run(async_client(handle.port, handle.close))

    handle = ServerThread(EngineServer(engine), ServerConfig()).start()
    client = EngineClient(HOST, handle.port)
    client.ping()
    handle.close()
    for _ in range(2):
        started = time.monotonic()
        with pytest.raises(ConnectionClosedError):
            client.ping()
        assert time.monotonic() - started < 1.0
    client.close()
    with pytest.raises(ConnectionClosedError, match="client closed"):
        client.ping()
    engine.close()


def test_a_timed_out_or_cancelled_request_leaves_nothing_pending():
    """The reply that comes late is dropped, and the connection lives on."""

    async def cancelled(port: int, serving) -> None:
        client = await AsyncEngineClient.connect(HOST, port)
        with serving._write_lock:  # the commit cannot start: no reply yet
            request = asyncio.ensure_future(
                client.request("apply_update", update=["R", [71, 1], 1])
            )
            await asyncio.sleep(0.1)
            assert len(client._pending) == 1
            request.cancel()
            await asyncio.wait({request})
            assert client._pending == {}
        assert (await client.ping())["query"]  # past the late reply
        await client.close()

    with serve() as (serving, handle):
        version = serving.engine.version
        with EngineClient(HOST, handle.port, timeout=0.3) as client:
            with serving._write_lock:
                with pytest.raises(TimeoutError):
                    client.apply_update(Update("R", (70, 1), 1))
                # (the timeout cancels the request on the client's loop thread)
                assert wait_until(lambda: client._async._pending == {}, 5.0)
            assert client.ping()["query"]
            assert client._async._pending == {}
        asyncio.run(cancelled(handle.port, serving))
        # both writes were only late, not lost
        assert serving.engine.version == version + 2


@pytest.mark.parametrize("limit", [0, -3, True, 2.0, "5"])
def test_read_and_page_limits_are_none_or_a_positive_integer(limit):
    with serve() as (serving, handle):
        with pytest.raises(ValueError):
            serving.read(limit)
        with EngineClient(HOST, handle.port) as client:
            snap = client.open_snapshot()
            for call in (lambda: client.read(limit), lambda: snap.page(limit)):
                with pytest.raises(RemoteError) as info:
                    call()
                assert info.value.kind == "ProtocolError"
            assert len(client.read(2)[1]) == len(snap.page(2)[0]) == 2
            # an absent or null page limit is the default page of 100
            assert len(client.request("snapshot_page", snap=snap.snap)["pairs"]) > 2


def test_the_client_coerces_specs_like_the_engines():
    with serve() as (_serving, handle):
        with EngineClient(HOST, handle.port) as client:
            spec = AggregateSpec("sum", "C", ("A",))
            for call in (client.aggregate, client.aggregate_read, client.subscribe_aggregate):
                with pytest.raises(ValueError, match="not both"):
                    call(spec, value="A")
            assert client.aggregate(spec) == client.aggregate("sum", "C", ("A",))
