"""Client library for the networked serving layer.

Two clients share the wire protocol of :mod:`repro.net.protocol`:

* :class:`EngineClient` — blocking, for scripts and tests.  A background
  reader thread demultiplexes incoming frames: responses (``"id"``) wake
  the waiting request, pushes (``"sub"``) are applied to the matching
  :class:`Subscription`.
* :class:`AsyncEngineClient` — :mod:`asyncio` flavour, used by
  ``benchmarks/bench_subscriptions.py`` to hold hundreds of concurrent
  subscriptions on one event loop.

Both apply subscription pushes through one shared state machine,
:class:`SubscriptionState`, which encodes the consistency contract:

* the subscribe response carries the full result at some version ``v0``;
* a ``delta`` push at version ``v`` is applied iff ``v`` is *newer* than
  the current version (pushes overlapping the initial read deduplicate);
* a ``resync`` push (the server's bounded-queue overflow path) *replaces*
  the state wholesale at its version.

Applying every push in arrival order therefore reproduces the served
result at every version the subscription observes.

Aggregate subscriptions (:meth:`EngineClient.subscribe_aggregate`) follow
the identical contract through :class:`AggregateSubscriptionState`, except
the mirrored state is ``{group: (support, ring element)}`` and deltas
merge by ring addition — the client holds O(groups) state and re-derives
answers locally with the spec's ring.
"""

from __future__ import annotations

import itertools
import socket
import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.data.update import Update, UpdateBatch
from repro.net.protocol import (
    ConnectionClosedError,
    RemoteError,
    iter_pairs,
    read_frame,
    unwire_pairs,
    wire_updates,
    write_frame,
)
from repro.rings.spec import AggregateSpec


class SubscriptionState:
    """The client-side result mirror of one subscription (thread-safe)."""

    def __init__(self, version: int, pairs) -> None:
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self.version = version
        self._result: Dict[Tuple, int] = dict(pairs)
        self.deltas_applied = 0
        self.deltas_skipped = 0
        self.resyncs = 0

    def apply(self, kind: str, version: int, pairs) -> bool:
        """Apply one push of decoded ``(tuple, multiplicity)`` pairs.

        ``pairs`` is any iterable of them; off the wire it is the push's
        pair table itself, read in place and iterable again by a caller
        that wraps this method to keep the pushed history (nothing of a
        push is kept here once it is applied).  Returns True when the state
        changed.
        """
        with self._changed:
            if kind == "resync":
                self._result = dict(pairs)
                self.version = version
                self.resyncs += 1
                self._changed.notify_all()
                return True
            if version <= self.version:
                self.deltas_skipped += 1
                return False
            result = self._result
            for tup, mult in pairs:
                updated = result.get(tup, 0) + mult
                if updated:
                    result[tup] = updated
                else:
                    result.pop(tup, None)
            self.version = version
            self.deltas_applied += 1
            self._changed.notify_all()
            return True

    def result(self) -> Dict[Tuple, int]:
        with self._lock:
            return dict(self._result)

    def wait_for_version(self, version: int, timeout: float = 30.0) -> bool:
        """Block until the mirrored state reaches ``version`` (or time out)."""
        import time

        deadline = time.monotonic() + timeout
        with self._changed:
            while self.version < version:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._changed.wait(remaining)
            return True

    def apply_push(self, message: Dict) -> None:
        kind = message.get("kind")
        if kind == "delta":
            self.apply(
                "delta", int(message["version"]), iter_pairs(message["delta"])
            )
        elif kind == "resync":
            self.apply(
                "resync", int(message["version"]), iter_pairs(message["result"])
            )


class AggregateSubscriptionState:
    """The client-side mirror of one aggregate subscription (thread-safe).

    Mirrors ``{group: (support, ring element)}`` — the same shape
    :class:`~repro.rings.spec.MaintainedAggregate` keeps server-side — by
    applying the server's folded group deltas with ring addition.  A group
    is present iff its support is positive; a zero element with live
    support stays (its answer is the ring's zero answer).  The consistency
    contract matches :class:`SubscriptionState` exactly: deltas apply iff
    newer than the current version, resyncs replace wholesale.
    """

    def __init__(self, spec: AggregateSpec, version: int, rows) -> None:
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)
        self.spec = spec
        self.ring = spec.ring
        self.version = version
        self._elements: Dict[Tuple, Tuple[int, Any]] = self._unwire(rows)
        self.deltas_applied = 0
        self.deltas_skipped = 0
        self.resyncs = 0

    def _unwire(self, rows) -> Dict[Tuple, Tuple[int, Any]]:
        ring = self.ring
        return {
            tuple(group): (int(support), ring.from_wire(element))
            for group, support, element in rows
        }

    def apply(self, kind: str, version: int, rows) -> bool:
        """Apply one push (raw wire rows); returns True on a state change."""
        with self._changed:
            if kind == "resync":
                self._elements = self._unwire(rows)
                self.version = version
                self.resyncs += 1
                self._changed.notify_all()
                return True
            if version <= self.version:
                self.deltas_skipped += 1
                return False
            ring = self.ring
            for group, support_delta, element_wire in rows:
                group = tuple(group)
                support, element = self._elements.get(group, (0, ring.zero()))
                support += int(support_delta)
                element = ring.add(element, ring.from_wire(element_wire))
                if support > 0:
                    self._elements[group] = (support, element)
                else:
                    self._elements.pop(group, None)
            self.version = version
            self.deltas_applied += 1
            self._changed.notify_all()
            return True

    def apply_push(self, message: Dict) -> None:
        kind = message.get("kind")
        if kind == "delta":
            self.apply("delta", int(message["version"]), message["delta"])
        elif kind == "resync":
            self.apply("resync", int(message["version"]), message["result"])

    def elements(self) -> Dict[Tuple, Tuple[int, Any]]:
        """Raw ``{group: (support, element)}`` at the mirrored version."""
        with self._lock:
            return dict(self._elements)

    def answers(self) -> Dict[Tuple, Any]:
        """User-facing ``{group: answer}`` at the mirrored version."""
        ring = self.ring
        with self._lock:
            return {
                group: ring.answer(element)
                for group, (_support, element) in self._elements.items()
            }

    def wait_for_version(self, version: int, timeout: float = 30.0) -> bool:
        """Block until the mirrored state reaches ``version`` (or time out)."""
        import time

        deadline = time.monotonic() + timeout
        with self._changed:
            while self.version < version:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._changed.wait(remaining)
            return True


class AggregateSubscription:
    """Handle on one aggregate push subscription."""

    def __init__(
        self,
        client: "EngineClient",
        sid: int,
        state: AggregateSubscriptionState,
    ) -> None:
        self._client = client
        self.sid = sid
        self.state = state

    @property
    def version(self) -> int:
        return self.state.version

    def elements(self) -> Dict[Tuple, Tuple[int, Any]]:
        return self.state.elements()

    def answers(self) -> Dict[Tuple, Any]:
        return self.state.answers()

    def wait_for_version(self, version: int, timeout: float = 30.0) -> bool:
        return self.state.wait_for_version(version, timeout)

    def close(self) -> None:
        self._client.unsubscribe(self)


class Subscription:
    """Handle on one push subscription held by an :class:`EngineClient`."""

    def __init__(self, client: "EngineClient", sid: int, state: SubscriptionState):
        self._client = client
        self.sid = sid
        self.state = state

    @property
    def version(self) -> int:
        return self.state.version

    def result(self) -> Dict[Tuple, int]:
        return self.state.result()

    def wait_for_version(self, version: int, timeout: float = 30.0) -> bool:
        return self.state.wait_for_version(version, timeout)

    def close(self) -> None:
        self._client.unsubscribe(self)


class RemoteSnapshot:
    """Handle on a server-side pinned version (paged enumeration)."""

    def __init__(self, client: "EngineClient", snap: int, version: int) -> None:
        self._client = client
        self.snap = snap
        self.version = version
        self._closed = False

    def page(self, limit: int = 100) -> Tuple[List[Tuple[Tuple, int]], bool]:
        """Fetch the next page; returns ``(pairs, done)``."""
        reply = self._client._request(
            "snapshot_page", snap=self.snap, limit=limit
        )
        return unwire_pairs(reply["pairs"]), bool(reply["done"])

    def pairs(self, page_size: int = 100) -> Iterator[Tuple[Tuple, int]]:
        """Iterate the whole snapshot in pages."""
        while True:
            page, done = self.page(page_size)
            yield from page
            if done:
                return

    def result(self, page_size: int = 500) -> Dict[Tuple, int]:
        return {tup: mult for tup, mult in self.pairs(page_size)}

    def lookup(self, tup) -> int:
        reply = self._client._request(
            "snapshot_lookup", snap=self.snap, tuple=list(tup)
        )
        return int(reply["multiplicity"])

    def close(self) -> None:
        if not self._closed:
            self._closed = True
            self._client._request("snapshot_close", snap=self.snap)

    def __enter__(self) -> "RemoteSnapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        try:
            self.close()
        except (ConnectionClosedError, ConnectionError, OSError):
            pass


class EngineClient:
    """Blocking client for :class:`repro.net.server.EngineTCPServer`."""

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self.timeout = timeout
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._sock.settimeout(None)  # the reader thread blocks indefinitely
        self._write_lock = threading.Lock()
        self._route_lock = threading.Lock()
        self._ids = itertools.count(1)
        self._pending: Dict[int, "_Waiter"] = {}
        self._subscriptions: Dict[int, SubscriptionState] = {}
        #: Pushes that arrived before the subscribe() caller registered
        #: its state object (the reader thread outruns the caller).
        self._orphan_pushes: Dict[int, List[Dict]] = {}
        self._closed = False
        self._reader_error: Optional[BaseException] = None
        self._reader = threading.Thread(
            target=self._reader_loop, name="repro-net-client", daemon=True
        )
        self._reader.start()

    # ------------------------------------------------------------------
    # plumbing
    # ------------------------------------------------------------------
    def _reader_loop(self) -> None:
        try:
            while True:
                message = read_frame(self._sock)
                if "id" in message and message["id"] is not None:
                    with self._route_lock:
                        waiter = self._pending.pop(message["id"], None)
                    if waiter is not None:
                        waiter.resolve(message)
                elif "sub" in message:
                    self._route_push(message)
        except BaseException as exc:  # noqa: BLE001 - wakes all waiters
            self._reader_error = exc
            with self._route_lock:
                pending, self._pending = self._pending, {}
            for waiter in pending.values():
                waiter.fail(exc)

    def _route_push(self, message: Dict) -> None:
        with self._route_lock:
            state = self._subscriptions.get(message["sub"])
            if state is None:
                self._orphan_pushes.setdefault(message["sub"], []).append(message)
                return
        self._apply_push(state, message)

    @staticmethod
    def _apply_push(state, message: Dict) -> None:
        # Both state flavours (result mirror, aggregate mirror) parse and
        # apply their own push payloads.
        state.apply_push(message)

    def _request(self, op: str, **params) -> Dict[str, Any]:
        if self._closed:
            raise ConnectionClosedError("client closed")
        request_id = next(self._ids)
        waiter = _Waiter()
        with self._route_lock:
            if self._reader_error is not None:
                raise ConnectionClosedError(
                    f"connection lost: {self._reader_error}"
                ) from self._reader_error
            self._pending[request_id] = waiter
        message = {"op": op, "id": request_id, **params}
        with self._write_lock:
            write_frame(self._sock, message)
        reply = waiter.wait(self.timeout)
        if not reply.get("ok", False):
            raise RemoteError(
                str(reply.get("error", "request failed")),
                kind=str(reply.get("kind", "ReproError")),
            )
        return reply

    # ------------------------------------------------------------------
    # ops
    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        return self._request("ping")

    def read(self, limit: Optional[int] = None) -> Tuple[int, List[Tuple[Tuple, int]]]:
        """One served read: ``(version, pairs)``."""
        reply = self._request("read", limit=limit)
        return int(reply["version"]), unwire_pairs(reply["pairs"])

    def result(self) -> Dict[Tuple, int]:
        _, pairs = self.read()
        return {tup: mult for tup, mult in pairs}

    def lookup(self, tup) -> int:
        reply = self._request("lookup", tuple=list(tup))
        return int(reply["multiplicity"])

    @staticmethod
    def _coerce_spec(ring, value, group_by) -> AggregateSpec:
        if isinstance(ring, AggregateSpec):
            if value is not None or group_by is not None:
                raise ValueError(
                    "pass either an AggregateSpec or ring/value/group_by, "
                    "not both"
                )
            return ring
        return AggregateSpec(ring, value, group_by)

    def aggregate_read(
        self, ring, value=None, group_by=None, maintained: bool = True
    ) -> Tuple[int, Dict[Tuple, Tuple[int, Any]]]:
        """One served aggregate read: ``(version, {group: (support, element)})``."""
        spec = self._coerce_spec(ring, value, group_by)
        reply = self._request(
            "aggregate", spec=spec.to_wire(), maintained=maintained
        )
        r = spec.ring
        elements = {
            tuple(group): (int(support), r.from_wire(element))
            for group, support, element in reply["elements"]
        }
        return int(reply["version"]), elements

    def aggregate(
        self, ring, value=None, group_by=None, maintained: bool = True
    ) -> Dict[Tuple, Any]:
        """Served aggregate answers ``{group: answer}`` (like :meth:`result`)."""
        spec = self._coerce_spec(ring, value, group_by)
        _, elements = self.aggregate_read(spec, maintained=maintained)
        r = spec.ring
        return {
            group: r.answer(element)
            for group, (_support, element) in elements.items()
        }

    def apply_batch(self, updates) -> int:
        """Apply one batch remotely; returns the post-commit version."""
        if isinstance(updates, UpdateBatch):
            updates = list(updates.updates())
        reply = self._request("apply_batch", updates=wire_updates(updates))
        return int(reply["version"])

    def apply_update(self, update: Update) -> int:
        reply = self._request("apply_update", update=wire_updates([update])[0])
        return int(reply["version"])

    def reshard(self, shards: int) -> int:
        """Reshard the served fleet online; returns the post-swap version.

        Blocks until the swap commits; open subscriptions ride through
        (they observe the post-reshard version with an empty delta,
        exactly like a retune).
        """
        reply = self._request("reshard", shards=shards)
        return int(reply["version"])

    def open_snapshot(self) -> RemoteSnapshot:
        reply = self._request("snapshot_open")
        return RemoteSnapshot(self, int(reply["snap"]), int(reply["version"]))

    def subscribe(
        self, query: Optional[str] = None, queue: Optional[int] = None
    ) -> Subscription:
        reply = self._request("subscribe", query=query, queue=queue)
        sid = int(reply["sub"])
        state = SubscriptionState(
            int(reply["version"]), iter_pairs(reply["result"])
        )
        with self._route_lock:
            self._subscriptions[sid] = state
            orphans = self._orphan_pushes.pop(sid, [])
        for push in orphans:  # pushes that beat this registration
            self._apply_push(state, push)
        return Subscription(self, sid, state)

    def subscribe_aggregate(
        self,
        ring,
        value=None,
        group_by=None,
        queue: Optional[int] = None,
    ) -> AggregateSubscription:
        """Subscribe to one aggregate: full elements now, folded group
        deltas per commit after (coalescing = ring addition)."""
        spec = self._coerce_spec(ring, value, group_by)
        reply = self._request(
            "subscribe_aggregate", spec=spec.to_wire(), queue=queue
        )
        sid = int(reply["sub"])
        state = AggregateSubscriptionState(
            spec, int(reply["version"]), reply["result"]
        )
        with self._route_lock:
            self._subscriptions[sid] = state
            orphans = self._orphan_pushes.pop(sid, [])
        for push in orphans:  # pushes that beat this registration
            self._apply_push(state, push)
        return AggregateSubscription(self, sid, state)

    def unsubscribe(self, subscription) -> None:
        self._request("unsubscribe", sub=subscription.sid)
        with self._route_lock:
            self._subscriptions.pop(subscription.sid, None)

    def metrics(self) -> str:
        return str(self._request("metrics")["text"])

    def server_stats(self) -> Dict[str, Any]:
        return self._request("stats")

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reader.join(5.0)

    def __enter__(self) -> "EngineClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class _Waiter:
    """One outstanding request: a threading-based future."""

    __slots__ = ("_event", "_reply", "_error")

    def __init__(self) -> None:
        self._event = threading.Event()
        self._reply: Optional[Dict] = None
        self._error: Optional[BaseException] = None

    def resolve(self, reply: Dict) -> None:
        self._reply = reply
        self._event.set()

    def fail(self, error: BaseException) -> None:
        self._error = error
        self._event.set()

    def wait(self, timeout: float) -> Dict:
        if not self._event.wait(timeout):
            raise TimeoutError("request timed out")
        if self._error is not None:
            raise ConnectionClosedError(
                f"connection lost: {self._error}"
            ) from self._error
        assert self._reply is not None
        return self._reply


# ----------------------------------------------------------------------
# asyncio client (the benchmark's workhorse)
# ----------------------------------------------------------------------
class AsyncSubscription:
    """Asyncio mirror of one subscription (single event loop, no locks)."""

    def __init__(self, sid: int, version: int, pairs) -> None:
        import asyncio

        self.sid = sid
        self.version = version
        self.result: Dict[Tuple, int] = dict(pairs)
        self.deltas_applied = 0
        self.resyncs = 0
        self.max_result_size = len(self.result)
        self._changed = asyncio.Event()

    def apply(self, message: Dict) -> None:
        kind = message.get("kind")
        version = int(message["version"])
        if kind == "resync":
            self.result = dict(iter_pairs(message["result"]))
            self.version = version
            self.resyncs += 1
        elif kind == "delta":
            if version <= self.version:
                return
            result = self.result
            for tup, mult in iter_pairs(message["delta"]):
                updated = result.get(tup, 0) + mult
                if updated:
                    result[tup] = updated
                else:
                    result.pop(tup, None)
            self.version = version
            self.deltas_applied += 1
        else:  # pragma: no cover - unknown push kind
            return
        self.max_result_size = max(self.max_result_size, len(self.result))
        self._changed.set()

    async def wait_for_version(self, version: int, timeout: float = 60.0) -> bool:
        import asyncio
        import time

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


class AsyncEngineClient:
    """Asyncio client; hundreds of these share one event loop cheaply."""

    def __init__(self) -> None:
        import asyncio

        self._reader: Optional[Any] = None
        self._writer: Optional[Any] = None
        self._ids = itertools.count(1)
        self._pending: Dict[int, Any] = {}
        self._subscriptions: Dict[int, AsyncSubscription] = {}
        self._orphan_pushes: Dict[int, List[Dict]] = {}
        self._task: Optional[asyncio.Task] = None
        self._write_lock = asyncio.Lock()

    @classmethod
    async def connect(cls, host: str, port: int) -> "AsyncEngineClient":
        import asyncio

        client = cls()
        client._reader, client._writer = await asyncio.open_connection(host, port)
        client._task = asyncio.get_running_loop().create_task(client._reader_loop())
        return client

    async def _reader_loop(self) -> None:
        import asyncio

        from repro.net.protocol import read_frame_async

        try:
            while True:
                message = await read_frame_async(self._reader)
                if "id" in message and message["id"] is not None:
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
            for future in self._pending.values():
                if not future.done():
                    future.set_exception(
                        ConnectionClosedError(f"connection lost: {exc}")
                    )
            self._pending.clear()

    async def request(self, op: str, **params) -> Dict[str, Any]:
        import asyncio

        from repro.net.protocol import encode_frame

        request_id = next(self._ids)
        future = asyncio.get_running_loop().create_future()
        self._pending[request_id] = future
        frame = encode_frame({"op": op, "id": request_id, **params})
        async with self._write_lock:
            self._writer.write(frame)
            await self._writer.drain()
        reply = await future
        if not reply.get("ok", False):
            raise RemoteError(
                str(reply.get("error", "request failed")),
                kind=str(reply.get("kind", "ReproError")),
            )
        return reply

    async def subscribe(
        self, query: Optional[str] = None, queue: Optional[int] = None
    ) -> AsyncSubscription:
        reply = await self.request("subscribe", query=query, queue=queue)
        sid = int(reply["sub"])
        state = AsyncSubscription(
            sid, int(reply["version"]), iter_pairs(reply["result"])
        )
        self._subscriptions[sid] = state
        for push in self._orphan_pushes.pop(sid, []):
            state.apply(push)
        return state

    async def apply_batch(self, updates) -> int:
        reply = await self.request("apply_batch", updates=wire_updates(updates))
        return int(reply["version"])

    async def read(self) -> Tuple[int, List[Tuple[Tuple, int]]]:
        reply = await self.request("read", limit=None)
        return int(reply["version"]), unwire_pairs(reply["pairs"])

    async def close(self) -> None:
        if self._task is not None:
            self._task.cancel()
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass
