"""Client library for the networked serving layer.

The wire protocol of :mod:`repro.net.protocol` has one client,
:class:`AsyncEngineClient`: one function sends a request frame
(:meth:`~AsyncEngineClient.request`), one routes an incoming frame
(responses, ``"id"``, resolve the waiting request; pushes, ``"sub"``, go to
the matching mirror), and every op of the server is a method on top of
those two.  Hundreds of them share one event loop cheaply
(``benchmarks/bench_subscriptions.py``).

:class:`EngineClient` is the same client for blocking callers — scripts,
tests, ``tools/serve_smoke.py``.  It owns one private event-loop thread
running an :class:`AsyncEngineClient`, and each of its methods forwards
one coroutine to that loop and waits for it.  It implements nothing of the
protocol itself.

A subscription is mirrored by one state machine, :class:`AsyncSubscription`,
which encodes the consistency contract:

* the subscribe response carries the full result at some version ``v0``;
* a ``delta`` push at version ``v`` is applied iff ``v`` is *newer* than
  the current version (pushes overlapping the initial read deduplicate);
* a ``resync`` push (the server's bounded-queue overflow path) *replaces*
  the state wholesale at its version.

Applying every push in arrival order therefore reproduces the served
result at every version the subscription observes.  The mirror runs on its
client's loop alone, so it takes no lock.

Aggregate subscriptions (:meth:`AsyncEngineClient.subscribe_aggregate`)
follow the identical contract through :class:`AsyncAggregateSubscription`,
which changes only what is merged: the mirrored state is ``{group:
(support, ring element)}`` and deltas merge by ring addition — the client
holds O(groups) state and re-derives answers locally with the spec's ring.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import itertools
import threading
import time
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.data.update import Update, UpdateBatch
from repro.ivm.delta import merge_delta
from repro.net.protocol import (
    ConnectionClosedError,
    RemoteError,
    encode_frame,
    iter_pairs,
    read_frame_async,
    unwire_pairs,
    wire_updates,
)
from repro.rings.spec import (
    AggregateSpec,
    Elements,
    answer_map,
    merge_elements,
    unwire_elements,
)

Pairs = List[Tuple[Tuple, int]]


# ----------------------------------------------------------------------
# the mirror
# ----------------------------------------------------------------------
class AsyncSubscription:
    """The version-gated mirror of one subscription (one event loop, no locks).

    ``result`` is the mirrored ``{tuple: multiplicity}``; nothing of a push
    is kept once it is applied — a caller that wants the pushed history
    wraps :meth:`apply` on the instance (the client's reader calls it
    through the instance attribute for that reason).
    """

    def __init__(self, sid: int, version: int, payload) -> None:
        self.sid = sid
        self.version = version
        self.result: Dict = self._unwire(payload)
        self.deltas_applied = 0
        self.resyncs = 0
        self._changed = asyncio.Event()

    def _unwire(self, table) -> Dict[Tuple, int]:
        return dict(iter_pairs(table))

    def _merge(self, table) -> None:
        merge_delta(self.result, iter_pairs(table))

    def apply(self, message: Dict) -> bool:
        """Apply one push frame; returns True when the state changed."""
        kind = message.get("kind")
        version = int(message["version"])
        if kind == "resync":
            self.result = self._unwire(message["result"])
            self.version = version
            self.resyncs += 1
        elif kind == "delta":
            if version <= self.version:
                return False
            self._merge(message["delta"])
            self.version = version
            self.deltas_applied += 1
        else:  # pragma: no cover - unknown push kind
            return False
        self._changed.set()
        return True

    async def wait_for_version(self, version: int, timeout: float = 60.0) -> bool:
        """Wait until the mirrored state reaches ``version`` (or time out)."""
        deadline = time.monotonic() + timeout
        while self.version < version:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                return False
            self._changed.clear()
            if self.version >= version:
                return True
            try:
                await asyncio.wait_for(self._changed.wait(), remaining)
            except asyncio.TimeoutError:
                return False
        return True


class AsyncAggregateSubscription(AsyncSubscription):
    """The same mirror over ``{group: (support, ring element)}``.

    That is the shape :class:`~repro.rings.spec.MaintainedAggregate` keeps
    server-side, and the server's folded group deltas merge into it with
    the same :func:`~repro.rings.spec.merge_elements`.  A group is present
    iff its support is positive; a zero element with live support stays
    (its answer is the ring's zero answer).
    """

    def __init__(self, sid: int, version: int, payload, spec: AggregateSpec) -> None:
        self.spec = spec
        super().__init__(sid, version, payload)

    def _unwire(self, rows) -> Elements:
        return unwire_elements(self.spec.ring, rows)

    def _merge(self, rows) -> None:
        ring = self.spec.ring
        merge_elements(ring, self.result, unwire_elements(ring, rows).items())

    def elements(self) -> Elements:
        """Raw ``{group: (support, element)}`` at the mirrored version."""
        return dict(self.result)

    def answers(self) -> Dict[Tuple, Any]:
        """User-facing ``{group: answer}`` at the mirrored version."""
        return answer_map(self.spec, self.result)


# ----------------------------------------------------------------------
# the protocol client
# ----------------------------------------------------------------------
class AsyncRemoteSnapshot:
    """Handle on a server-side pinned version (paged enumeration)."""

    def __init__(self, client: "AsyncEngineClient", snap: int, version: int) -> None:
        self._client = client
        self.snap = snap
        self.version = version
        self._closed = False

    async def page(self, limit: int = 100) -> Tuple[Pairs, bool]:
        """Fetch the next page; returns ``(pairs, done)``."""
        reply = await self._client.request(
            "snapshot_page", snap=self.snap, limit=limit
        )
        return unwire_pairs(reply["pairs"]), bool(reply["done"])

    async def result(self, page_size: int = 500) -> Dict[Tuple, int]:
        """The whole snapshot, fetched in pages."""
        result: Dict[Tuple, int] = {}
        done = False
        while not done:
            page, done = await self.page(page_size)
            result.update(page)
        return result

    async def lookup(self, tup) -> int:
        reply = await self._client.request(
            "snapshot_lookup", snap=self.snap, tuple=list(tup)
        )
        return int(reply["multiplicity"])

    async def close(self) -> None:
        if not self._closed:
            self._closed = True
            await self._client.request("snapshot_close", snap=self.snap)


class AsyncEngineClient:
    """The wire client of :class:`repro.net.server.EngineTCPServer`."""

    def __init__(self) -> None:
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._ids = itertools.count(1)
        self._pending: Dict[int, asyncio.Future] = {}
        self._subscriptions: Dict[int, AsyncSubscription] = {}
        #: Pushes that arrived before ``subscribe()`` registered its mirror
        #: (the reader outruns the coroutine its reply has just woken).
        self._orphan_pushes: Dict[int, List[Dict]] = {}
        self._task: Optional[asyncio.Task] = None
        self._write_lock = asyncio.Lock()
        #: Why no request can be answered any more: the reader's last
        #: error, or the client's own ``close()``.
        self._lost: Optional[BaseException] = None

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncEngineClient":
        client = cls()
        client._reader, client._writer = await asyncio.open_connection(host, port)
        client._task = asyncio.get_running_loop().create_task(client._reader_loop())
        return client

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    async def _reader_loop(self) -> None:
        """Route every incoming frame, until the connection ends."""
        try:
            while True:
                message = await read_frame_async(self._reader)
                if "id" in message and message["id"] is not None:
                    # a reply nobody waits for any more (its request timed
                    # out or was cancelled) is dropped
                    future = self._pending.pop(message["id"], None)
                    if future is not None and not future.done():
                        future.set_result(message)
                elif "sub" in message:
                    state = self._subscriptions.get(message["sub"])
                    if state is not None:
                        state.apply(message)
                    else:
                        self._orphan_pushes.setdefault(
                            message["sub"], []
                        ).append(message)
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001 - wakes all waiters
            self._lost = exc
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(self._connection_lost())
            self._pending.clear()

    def _connection_lost(self) -> ConnectionClosedError:
        error = ConnectionClosedError(f"connection lost: {self._lost}")
        error.__cause__ = self._lost
        return error

    async def request(self, op: str, **params) -> Dict[str, Any]:
        """Send one request frame and wait for its reply.

        Raises :class:`RemoteError` for an ``ok: false`` reply and
        :class:`ConnectionClosedError` once the connection is gone —
        at once, not after a wait nobody will end.
        """
        if self._lost is not None:
            raise self._connection_lost()
        request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        try:
            frame = encode_frame({"op": op, "id": request_id, **params})
            async with self._write_lock:
                self._writer.write(frame)
                await self._writer.drain()
            reply = await future
        finally:
            self._pending.pop(request_id, None)
        if not reply.get("ok", False):
            raise RemoteError(
                str(reply.get("error", "request failed")),
                kind=str(reply.get("kind", "ReproError")),
            )
        return reply

    def _register(self, state: AsyncSubscription) -> AsyncSubscription:
        self._subscriptions[state.sid] = state
        for push in self._orphan_pushes.pop(state.sid, []):
            state.apply(push)  # pushes that beat this registration
        return state

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    async def ping(self) -> Dict[str, Any]:
        return await self.request("ping")

    async def read(self, limit: Optional[int] = None) -> Tuple[int, Pairs]:
        """One served read: ``(version, pairs)``."""
        reply = await self.request("read", limit=limit)
        return int(reply["version"]), unwire_pairs(reply["pairs"])

    async def result(self) -> Dict[Tuple, int]:
        _, pairs = await self.read()
        return dict(pairs)

    async def lookup(self, tup) -> int:
        reply = await self.request("lookup", tuple=list(tup))
        return int(reply["multiplicity"])

    async def aggregate_read(
        self, ring, value=None, group_by=None, maintained: bool = True
    ) -> Tuple[int, Elements]:
        """One served aggregate read: ``(version, {group: (support, element)})``."""
        spec = AggregateSpec.coerce(ring, value, group_by)
        reply = await self.request(
            "aggregate", spec=spec.to_wire(), maintained=maintained
        )
        return int(reply["version"]), unwire_elements(spec.ring, reply["elements"])

    async def aggregate(
        self, ring, value=None, group_by=None, maintained: bool = True
    ) -> Dict[Tuple, Any]:
        """Served aggregate answers ``{group: answer}`` (like :meth:`result`)."""
        spec = AggregateSpec.coerce(ring, value, group_by)
        _, elements = await self.aggregate_read(spec, maintained=maintained)
        return answer_map(spec, elements)

    async def apply_batch(self, updates) -> int:
        """Apply one batch remotely; returns the post-commit version."""
        if isinstance(updates, UpdateBatch):
            updates = list(updates.updates())
        reply = await self.request("apply_batch", updates=wire_updates(updates))
        return int(reply["version"])

    async def apply_update(self, update: Update) -> int:
        reply = await self.request(
            "apply_update", update=wire_updates([update])[0]
        )
        return int(reply["version"])

    async def reshard(self, shards: int) -> int:
        """Reshard the served fleet online; returns the post-swap version.

        Returns once the swap has committed; open subscriptions ride
        through (they observe the post-reshard version with an empty
        delta, exactly like a retune).
        """
        reply = await self.request("reshard", shards=shards)
        return int(reply["version"])

    async def open_snapshot(self) -> AsyncRemoteSnapshot:
        reply = await self.request("snapshot_open")
        return AsyncRemoteSnapshot(self, int(reply["snap"]), int(reply["version"]))

    async def subscribe(
        self, query: Optional[str] = None, queue: Optional[int] = None
    ) -> AsyncSubscription:
        reply = await self.request("subscribe", query=query, queue=queue)
        return self._register(
            AsyncSubscription(
                int(reply["sub"]), int(reply["version"]), reply["result"]
            )
        )

    async def subscribe_aggregate(
        self, ring, value=None, group_by=None, queue: Optional[int] = None
    ) -> AsyncAggregateSubscription:
        """Subscribe to one aggregate: full elements now, folded group
        deltas per commit after (coalescing = ring addition)."""
        spec = AggregateSpec.coerce(ring, value, group_by)
        reply = await self.request(
            "subscribe_aggregate", spec=spec.to_wire(), queue=queue
        )
        return self._register(
            AsyncAggregateSubscription(
                int(reply["sub"]), int(reply["version"]), reply["result"], spec
            )
        )

    async def unsubscribe(self, subscription) -> None:
        await self.request("unsubscribe", sub=subscription.sid)
        self._subscriptions.pop(subscription.sid, None)

    async def metrics(self) -> str:
        return str((await self.request("metrics"))["text"])

    async def server_stats(self) -> Dict[str, Any]:
        return await self.request("stats")

    async def close(self) -> None:
        if self._lost is None:
            self._lost = ConnectionClosedError("client closed")
        if self._task is not None:
            self._task.cancel()
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass


# ----------------------------------------------------------------------
# the blocking façade
# ----------------------------------------------------------------------
class Subscription:
    """Blocking handle on one push subscription of an :class:`EngineClient`.

    ``state`` is the mirror, fed on the client's loop thread.  Reads copy
    it *on that thread*, between two pushes: a copy taken from here could
    see half of a delta applied.
    """

    def __init__(self, client: "EngineClient", state: AsyncSubscription) -> None:
        self._client = client
        self.state = state
        self.sid = state.sid

    @property
    def version(self) -> int:
        return self.state.version

    def _read(self, copy: Callable[[], Dict]) -> Dict:
        if self._client._closed:  # nothing feeds the mirror any more
            return copy()

        async def on_loop() -> Dict:
            return copy()

        return self._client._call(on_loop())

    def result(self) -> Dict:
        return self._read(lambda: dict(self.state.result))

    def elements(self) -> Elements:
        return self._read(self.state.elements)

    def answers(self) -> Dict[Tuple, Any]:
        return self._read(self.state.answers)

    def wait_for_version(self, version: int, timeout: float = 30.0) -> bool:
        """Block until the mirrored state reaches ``version`` (or time out)."""
        return self._client._call(
            self.state.wait_for_version(version, timeout),
            timeout + self._client.timeout,
        )

    def close(self) -> None:
        self._client.unsubscribe(self)


class RemoteSnapshot:
    """Blocking handle on a server-side pinned version."""

    def __init__(self, client: "EngineClient", remote: AsyncRemoteSnapshot) -> None:
        self._call = client._call
        self._remote = remote
        self.snap = remote.snap
        self.version = remote.version

    def page(self, limit: int = 100) -> Tuple[Pairs, bool]:
        """Fetch the next page; returns ``(pairs, done)``."""
        return self._call(self._remote.page(limit))

    def pairs(self, page_size: int = 100) -> Iterator[Tuple[Tuple, int]]:
        """Iterate the whole snapshot in pages."""
        done = False
        while not done:
            page, done = self.page(page_size)
            yield from page

    def result(self, page_size: int = 500) -> Dict[Tuple, int]:
        return self._call(self._remote.result(page_size))

    def lookup(self, tup) -> int:
        return self._call(self._remote.lookup(tup))

    def close(self) -> None:
        self._call(self._remote.close())

    def __enter__(self) -> "RemoteSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self.close()
        except (ConnectionClosedError, ConnectionError, OSError):
            pass


class EngineClient:
    """Blocking client: an :class:`AsyncEngineClient` on a private loop thread."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.timeout = timeout
        self._closed = False
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-net-client", daemon=True
        )
        self._thread.start()
        try:
            self._async: AsyncEngineClient = self._call(
                AsyncEngineClient.connect(host, port)
            )
        except BaseException:
            self._stop_loop()
            raise

    def _call(self, coroutine, timeout: Optional[float] = None):
        """Run ``coroutine`` on the loop thread and wait for its result; a
        wait that times out cancels it, so nothing of it stays behind."""
        if self._closed:
            coroutine.close()
            raise ConnectionClosedError("client closed")
        future = asyncio.run_coroutine_threadsafe(coroutine, self._loop)
        try:
            return future.result(self.timeout if timeout is None else timeout)
        except concurrent.futures.TimeoutError:
            future.cancel()
            raise TimeoutError("request timed out") from None

    def _stop_loop(self) -> None:
        self._loop.call_soon_threadsafe(self._loop.stop)
        self._thread.join(5.0)
        if not self._thread.is_alive():
            self._loop.close()

    def request(self, op: str, **params) -> Dict[str, Any]:
        return self._call(self._async.request(op, **params))

    def ping(self) -> Dict[str, Any]:
        return self._call(self._async.ping())

    def read(self, limit: Optional[int] = None) -> Tuple[int, Pairs]:
        return self._call(self._async.read(limit))

    def result(self) -> Dict[Tuple, int]:
        return self._call(self._async.result())

    def lookup(self, tup) -> int:
        return self._call(self._async.lookup(tup))

    def aggregate_read(
        self, ring, value=None, group_by=None, maintained: bool = True
    ) -> Tuple[int, Elements]:
        return self._call(
            self._async.aggregate_read(ring, value, group_by, maintained)
        )

    def aggregate(
        self, ring, value=None, group_by=None, maintained: bool = True
    ) -> Dict[Tuple, Any]:
        return self._call(self._async.aggregate(ring, value, group_by, maintained))

    def apply_batch(self, updates) -> int:
        return self._call(self._async.apply_batch(updates))

    def apply_update(self, update: Update) -> int:
        return self._call(self._async.apply_update(update))

    def reshard(self, shards: int) -> int:
        return self._call(self._async.reshard(shards))

    def open_snapshot(self) -> RemoteSnapshot:
        return RemoteSnapshot(self, self._call(self._async.open_snapshot()))

    def subscribe(
        self, query: Optional[str] = None, queue: Optional[int] = None
    ) -> Subscription:
        return Subscription(self, self._call(self._async.subscribe(query, queue)))

    def subscribe_aggregate(
        self, ring, value=None, group_by=None, queue: Optional[int] = None
    ) -> Subscription:
        return Subscription(
            self,
            self._call(self._async.subscribe_aggregate(ring, value, group_by, queue)),
        )

    def unsubscribe(self, subscription) -> None:
        self._call(self._async.unsubscribe(subscription))

    def metrics(self) -> str:
        return self._call(self._async.metrics())

    def server_stats(self) -> Dict[str, Any]:
        return self._call(self._async.server_stats())

    def close(self) -> None:
        if self._closed:
            return
        try:
            self._call(self._async.close())
        finally:
            self._closed = True
            self._stop_loop()

    def __enter__(self) -> "EngineClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
