"""Asyncio TCP front-end for an :class:`~repro.core.serving.EngineServer`.

:class:`EngineTCPServer` serves the length-prefixed frame protocol of
:mod:`repro.net.protocol` on one listening port.  Connections multiplex
three kinds of traffic:

* **Request/response ops** — ``ping``, ``read``, ``lookup``,
  ``aggregate``, ``apply_batch``/``apply_update``, snapshot paging
  (``snapshot_open``/``snapshot_page``/``snapshot_lookup``/
  ``snapshot_close``), ``subscribe``/``subscribe_aggregate``/
  ``unsubscribe``, ``metrics`` and ``stats``.  Each connection's
  requests are dispatched sequentially;
  blocking engine work runs on a thread pool (commits on one thread of
  their own) so the event loop never stalls on enumeration or maintenance.
* **Push-based subscriptions** — a subscription receives the full result
  once (in the ``subscribe`` response) and then one consolidated delta
  frame per engine commit, computed from the batch's net effect by the
  maintenance layer's result-delta capture and fanned out by the
  :meth:`~repro.core.serving.EngineServer.on_commit` hook.  *Aggregate*
  subscriptions ride the same contract with ring-folded payloads: the
  commit's tuple delta is folded per subscribed
  :class:`~repro.rings.spec.AggregateSpec` into per-group ``(support
  delta, ring-element delta)`` rows — usually a few groups instead of
  thousands of tuples — and a lagging subscriber resyncs from one
  O(groups) maintained read instead of a full enumeration.  Both flavours
  are one code path: ``_open_subscription`` registers, reads and replies,
  ``_read_full`` is the full read behind the reply and behind every
  resync, and a commit reaches the subscribers as one dict of payloads
  keyed ``None`` (the pair table) or ``spec.key()`` (folded rows).
* **Plain HTTP** — the server peeks the first four bytes of every
  connection; ``GET `` switches the connection to a minimal HTTP/1.0
  responder so ``GET /metrics`` (Prometheus text format, see
  :mod:`repro.net.metrics`) works from curl or a Prometheus scraper with
  no extra port.

Backpressure contract (the part that keeps memory bounded): every
subscriber owns a bounded send queue.  While the subscriber keeps up,
each commit enqueues one delta frame.  When the queue is full at commit
time the subscriber is marked *lagging*: its queue is cleared, a single
resync marker takes its place, and subsequent commits only bump the
server's ``latest_version`` (coalescing — nothing accumulates per lagging
subscriber).  The sender turns the marker into one full-state resync
frame, reading the engine repeatedly until the read's version has caught
up with ``latest_version`` (checked on the event loop, so no commit can
slip between the check and the subscriber re-arming).  A subscriber
therefore costs at most ``queue_size`` frames of memory no matter how
slow its socket drains.
"""

from __future__ import annotations

import asyncio
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Callable, Dict, Optional, Tuple

from repro.core.planner import coerce_query
from repro.core.serving import EngineServer, check_limit, take
from repro.exceptions import ReproError, UnsupportedQueryError
from repro.net.metrics import render_server_metrics
from repro.net.protocol import (
    HEADER,
    PROTOCOL_VERSION,
    ConnectionClosedError,
    ProtocolError,
    encode_frame,
    read_frame_async,
    unwire_tuple,
    unwire_updates,
    wire_pairs,
)
from repro.rings.spec import AggregateSpec, fold_delta, wire_elements


@dataclass(frozen=True)
class ServerConfig:
    """Tunables of one :class:`EngineTCPServer`."""

    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral; read the bound port from ``server.port``
    #: Connections above this limit receive an error frame and are closed.
    max_connections: int = 256
    #: Total concurrent subscriptions across all connections.
    max_subscriptions: int = 1024
    #: Snapshot handles (pinned versions) a single session may hold open.
    max_snapshots_per_session: int = 16
    #: Bound of each subscriber's send queue (frames); overflowing it
    #: switches the subscriber to the coalescing resync path.  A client
    #: may request a *smaller* queue in its subscribe op.
    subscriber_queue_size: int = 32
    #: Pool threads for blocking read-side work; commits have their own.
    executor_threads: int = 4
    #: When set, shrink each accepted connection's kernel send buffer and
    #: the asyncio transport's write high-water mark to this many bytes.
    #: Production servers leave it at ``None``; the backpressure tests and
    #: the subscription benchmark set it low so a non-reading subscriber
    #: stalls its sender (and overflows its queue) after a bounded number
    #: of frames instead of after megabytes of kernel buffering.
    send_buffer_bytes: Optional[int] = None


class NetServerStats:
    """Thread-safe counters of the TCP front-end (exported to /metrics)."""

    _FIELDS = (
        "connections_total",
        "connections_current",
        "connections_refused",
        "frames_received",
        "frames_sent",
        "requests_failed",
        "subscriptions_total",
        "subscribers_current",
        "deltas_pushed",
        "push_bytes",
        "resyncs",
        "commits_observed",
        "max_queue_depth",
        "http_requests",
        "aggregate_reads",
        "agg_subscriptions_total",
        "agg_subscribers_current",
        "agg_deltas_pushed",
        "agg_resyncs",
    )

    def __init__(self) -> None:
        self._lock = threading.Lock()
        for field in self._FIELDS:
            setattr(self, field, 0)
        # Aggregate delta frames enqueued, keyed by ring name — exported
        # as one labeled Prometheus family (per-ring traffic breakdown).
        self._ring_deltas: Dict[str, int] = {}

    def add(self, field: str, amount: int = 1) -> None:
        with self._lock:
            setattr(self, field, getattr(self, field) + amount)

    def add_ring_delta(self, ring_name: str, amount: int = 1) -> None:
        with self._lock:
            self._ring_deltas[ring_name] = self._ring_deltas.get(ring_name, 0) + amount

    def ring_deltas(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._ring_deltas)

    def note_queue_depth(self, depth: int) -> None:
        with self._lock:
            if depth > self.max_queue_depth:
                self.max_queue_depth = depth

    def as_dict(self) -> Dict[str, int]:
        with self._lock:
            return {field: getattr(self, field) for field in self._FIELDS}


class _Subscriber:
    """One push subscription: its bounded queue and sender task.

    ``spec`` distinguishes the two subscription flavours: ``None`` mirrors
    the full result (per-commit tuple deltas), an :class:`AggregateSpec`
    mirrors that aggregate (per-commit folded group deltas, coalesced by
    ring addition on overflow via the same resync path).
    """

    __slots__ = ("sid", "session", "queue", "lagging", "task", "spec")

    def __init__(
        self,
        sid: int,
        session: "_Session",
        queue_size: int,
        spec: Optional[AggregateSpec] = None,
    ) -> None:
        self.sid = sid
        self.session = session
        self.queue: "asyncio.Queue[Tuple]" = asyncio.Queue(maxsize=queue_size)
        self.lagging = False
        self.task: Optional[asyncio.Task] = None
        self.spec = spec


class _Session:
    """Per-connection state: writer, open snapshots, subscriptions."""

    __slots__ = ("writer", "write_lock", "snapshots", "iterators", "subscribers")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self.writer = writer
        # One frame writer at a time: StreamWriter.drain() does not support
        # concurrent waiters on every Python version, and senders run
        # concurrently with the request dispatcher.
        self.write_lock = asyncio.Lock()
        self.snapshots: Dict[int, Any] = {}
        self.iterators: Dict[int, Any] = {}
        self.subscribers: Dict[int, _Subscriber] = {}


class EngineTCPServer:
    """Serve one :class:`EngineServer` over TCP (see module docstring)."""

    def __init__(
        self, serving: EngineServer, config: Optional[ServerConfig] = None
    ) -> None:
        self.serving = serving
        self.config = config or ServerConfig()
        self.stats = NetServerStats()
        self._server: Optional[asyncio.base_events.Server] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._writer: Optional[ThreadPoolExecutor] = None
        self._sessions: Dict[int, _Session] = {}
        self._subscribers: Dict[int, _Subscriber] = {}
        self._next_session = 0
        self._next_snapshot = 0
        self._next_subscription = 0
        #: Distinct aggregate specs with live subscribers:
        #: ``{spec.key(): [spec, refcount]}``.  Mutated only on the event
        #: loop; the committing thread snapshots it with ``list()`` (atomic
        #: under the GIL) to fold each commit's delta once per spec.
        self._agg_specs: Dict[Tuple, list] = {}
        #: Highest committed version observed by the push hub; lagging
        #: subscribers resync against this ratchet.
        self.latest_version = 0
        self._closed = False
        self._listener_installed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "EngineTCPServer":
        """Bind the listening socket and install the commit listener."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        self._pool = ThreadPoolExecutor(
            max_workers=self.config.executor_threads,
            thread_name_prefix="repro-net",
        )
        self._writer = ThreadPoolExecutor(1, thread_name_prefix="repro-net-writer")
        self._closed = False
        if not self._listener_installed:
            # EngineServer keeps listeners for its lifetime; ``_closed``
            # turns this one into a no-op after stop().
            self.serving.on_commit(self._on_engine_commit)
            self._listener_installed = True
        self.latest_version = getattr(self.serving.engine, "version", 0)
        self._server = await asyncio.start_server(
            self._handle_connection, self.config.host, self.config.port
        )
        return self

    @property
    def port(self) -> int:
        """The bound TCP port (useful with the ephemeral ``port=0``)."""
        if self._server is None:
            raise RuntimeError("server not started")
        return self._server.sockets[0].getsockname()[1]

    @property
    def address(self) -> Tuple[str, int]:
        return (self.config.host, self.port)

    async def stop(self) -> None:
        """Stop accepting, tear down every session, release the pool."""
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for session in list(self._sessions.values()):
            await self._teardown_session(session)
        self._sessions.clear()
        for lane in (self._pool, self._writer):
            if lane is not None:
                lane.shutdown(wait=True)
        self._pool = self._writer = None

    # ------------------------------------------------------------------
    # commit fan-out (the push hub)
    # ------------------------------------------------------------------
    def _on_engine_commit(self, version: int, delta: Dict) -> None:
        """EngineServer commit listener: runs in the committing thread.

        Besides wiring the tuple delta, folds it once per distinct
        subscribed aggregate spec (ring addition over the commit's net
        result delta) — the fold happens here, in the committing thread,
        so the event-loop fan-out stays O(subscribers) and the folded
        group deltas are exact no matter how the engine maintains its own
        aggregate state.  The fold does not raise for a value a ring
        cannot lift (:class:`~repro.rings.spec.Unliftable`), so no
        subscription can fail the commit it is told about.
        """
        if self._closed:
            return
        loop = self._loop
        if loop is None:
            return
        # The commit's pair table is built here, once, whatever the number
        # of subscribers: its column blocks are the bytes every one of
        # their frames carries, and a sender only formats the small header
        # around them.  Here and not on the event loop, because the loop is
        # what every session's reads and acks wait for.
        # Nobody to serialise the tuple delta for?  Then do not: this runs
        # under the engine's write lock.  A plain subscriber that registers
        # after this check needs no frame for this commit — the commit is
        # already published, and ``_op_subscribe`` registers before it
        # reads, so its initial read is at this version or a later one.
        # (``list`` snapshots the dict the event loop mutates.)
        payloads: Dict[Optional[Tuple], Any] = {}
        if any(sub.spec is None for sub in list(self._subscribers.values())):
            payloads[None] = wire_pairs(delta.items())
        if self._agg_specs:
            head = tuple(self.serving.engine.query.head)
            items = list(delta.items())
            for key, (spec, _count) in list(self._agg_specs.items()):
                payloads[key] = wire_elements(
                    spec.ring, fold_delta(spec, head, items)
                )
        try:
            loop.call_soon_threadsafe(self._publish_commit, version, payloads)
        except RuntimeError:  # pragma: no cover - loop torn down mid-commit
            pass

    def _publish_commit(self, version: int, payloads: Dict) -> None:
        """Fan one commit out to every subscriber; runs on the event loop.

        ``payloads`` holds the commit's pair table under ``None`` and one
        folded row list per subscribed aggregate under its ``spec.key()``.
        """
        if version > self.latest_version:
            self.latest_version = version
        self.stats.add("commits_observed")
        wire_delta = payloads.get(None)
        for sub in list(self._subscribers.values()):
            if sub.lagging:
                # Coalesced: the pending resync marker covers this commit,
                # because the resync ratchet reads at >= latest_version.
                continue
            if sub.spec is None:
                if wire_delta is None:
                    continue  # registered after the commit thread's check
                item = ("delta", version, wire_delta)
            else:
                # A spec registered after this commit was folded simply has
                # no payload here; the subscriber's initial read covers it.
                item = ("delta", version, payloads.get(sub.spec.key(), []))
            try:
                sub.queue.put_nowait(item)
            except asyncio.QueueFull:
                sub.lagging = True
                while True:
                    try:
                        sub.queue.get_nowait()
                    except asyncio.QueueEmpty:
                        break
                sub.queue.put_nowait(("resync",))
                self.stats.add("resyncs" if sub.spec is None else "agg_resyncs")
            else:
                if sub.spec is None:
                    self.stats.add("deltas_pushed")
                else:
                    self.stats.add("agg_deltas_pushed")
                    self.stats.add_ring_delta(sub.spec.ring.name)
                self.stats.note_queue_depth(sub.queue.qsize())

    async def _read_full(self, sub: _Subscriber) -> Tuple[int, Any]:
        """One full read of what ``sub`` mirrors, ``(version, wire result)``:
        the subscribe response and every resync frame carry one."""
        if sub.spec is None:
            ticket = await self._run(self.serving.read)
            return ticket.version, wire_pairs(ticket.pairs)
        version, elements = await self._run(self.serving.aggregate, sub.spec)
        self.stats.add("aggregate_reads")
        return version, wire_elements(sub.spec.ring, elements)

    async def _subscription_sender(self, sub: _Subscriber) -> None:
        """Drain one subscriber's queue onto its connection."""
        try:
            while True:
                item = await sub.queue.get()
                if item[0] == "delta":
                    _, version, wire_delta = item
                    sent = await self._send(
                        sub.session,
                        {
                            "sub": sub.sid,
                            "kind": "delta",
                            "version": version,
                            "delta": wire_delta,
                        },
                    )
                    self.stats.add("push_bytes", sent)
                else:  # resync marker
                    while True:
                        version, result = await self._read_full(sub)
                        if self.latest_version <= version:
                            # Checked on the event loop with no await
                            # before the flag flip: no commit can land in
                            # between, so re-arming here is gap-free.
                            sub.lagging = False
                            break
                    await self._send(
                        sub.session,
                        {
                            "sub": sub.sid,
                            "kind": "resync",
                            "version": version,
                            "result": result,
                        },
                    )
        except asyncio.CancelledError:
            raise
        except (ConnectionClosedError, ConnectionError, OSError):
            pass  # the connection loop handles session teardown

    # ------------------------------------------------------------------
    # connection handling
    # ------------------------------------------------------------------
    async def _run(self, fn: Callable, *args, write: bool = False) -> Any:
        """Run blocking engine work off the loop: reads on the pool, commits
        (``write``) on the one writer thread.  The write lock serializes
        commits anyway, and made by one thread the writer's large copies
        (:mod:`repro.snapshot.cow`) reuse each other's space — malloc keeps
        an arena per thread, so with commits hopping between pool threads
        peak RSS differed by 10 MB between identical runs.  A read that
        finds the server cold runs there too: it captures version 0 and
        makes the first copies, the ones the writer goes on to roll forward
        and replace (docs/architecture.md, Section 13)."""
        assert self._loop is not None and self._pool is not None
        lane = self._writer if write or self.serving.cold else self._pool
        return await self._loop.run_in_executor(lane, fn, *args)

    async def _send(self, session: _Session, message: Dict[str, Any]) -> int:
        """Write one frame to the session; returns its size in bytes."""
        data = encode_frame(message)
        async with session.write_lock:
            session.writer.write(data)
            await session.writer.drain()
        self.stats.add("frames_sent")
        return len(data)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._closed:
            writer.close()
            return
        if self.config.send_buffer_bytes is not None:
            import socket as socket_module

            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(
                    socket_module.SOL_SOCKET,
                    socket_module.SO_SNDBUF,
                    self.config.send_buffer_bytes,
                )
            writer.transport.set_write_buffer_limits(
                high=self.config.send_buffer_bytes
            )
        if len(self._sessions) >= self.config.max_connections:
            self.stats.add("connections_refused")
            try:
                writer.write(
                    encode_frame(
                        {
                            "ok": False,
                            "kind": "ServerBusy",
                            "error": (
                                "connection limit reached "
                                f"({self.config.max_connections})"
                            ),
                        }
                    )
                )
                await writer.drain()
            except (ConnectionError, OSError):
                pass
            writer.close()
            return
        self._next_session += 1
        session = _Session(writer)
        self._sessions[self._next_session] = session
        session_id = self._next_session
        self.stats.add("connections_total")
        self.stats.add("connections_current")
        try:
            try:
                first = await reader.readexactly(HEADER.size)
            except asyncio.IncompleteReadError:
                return  # EOF before the first complete header
            if first == b"GET ":
                await self._serve_http(first, reader, writer)
                return
            header: Optional[bytes] = first
            while True:
                message = await read_frame_async(reader, header=header)
                header = None
                self.stats.add("frames_received")
                await self._dispatch(session, message)
        except ConnectionClosedError:
            pass
        except (ConnectionError, OSError, ProtocolError):
            pass
        finally:
            self._sessions.pop(session_id, None)
            self.stats.add("connections_current", -1)
            await self._teardown_session(session)

    async def _teardown_session(self, session: _Session) -> None:
        """Release everything a session holds; must survive *any* exit path.

        Runs after clean EOFs but also after reader-task death, mid-page
        disconnects, server shutdown (which *cancels* connection tasks —
        ``CancelledError`` is not an ``Exception`` and used to abandon
        the remaining handles), and pool teardown (``_run`` then fails).
        Every engine-side snapshot handle must be released regardless:
        they pin shard-local snapshot registries and copy-on-write state,
        so a crash-looping client that leaks a few per connection would
        otherwise grow the engine without bound while new sessions are
        still admitted against fresh limit counters.
        """
        for sub in list(session.subscribers.values()):
            self._drop_subscriber(sub)
        session.subscribers.clear()
        remaining = list(session.snapshots.values())
        session.snapshots.clear()
        session.iterators.clear()
        cancelled: Optional[BaseException] = None
        while remaining:
            snapshot = remaining.pop()
            try:
                await self._run(snapshot.close)
            except asyncio.CancelledError as exc:
                # The task was cancelled mid-teardown: finish releasing
                # synchronously (no more awaits), then re-raise.
                cancelled = exc
                self._close_snapshot_sync(snapshot)
                for leftover in remaining:
                    self._close_snapshot_sync(leftover)
                remaining = []
            except Exception:  # noqa: BLE001 - pool gone or close failed
                self._close_snapshot_sync(snapshot)
        try:
            session.writer.close()
        except (ConnectionError, OSError):  # pragma: no cover
            pass
        if cancelled is not None:
            raise cancelled

    @staticmethod
    def _close_snapshot_sync(snapshot) -> None:
        """Last-resort snapshot release on the caller's thread."""
        try:
            snapshot.close()
        except Exception:  # noqa: BLE001 - nothing left to do with it
            pass

    def _drop_subscriber(self, sub: _Subscriber) -> None:
        if self._subscribers.pop(sub.sid, None) is not None:
            if sub.spec is None:
                self.stats.add("subscribers_current", -1)
            else:
                self.stats.add("agg_subscribers_current", -1)
                entry = self._agg_specs.get(sub.spec.key())
                if entry is not None:
                    entry[1] -= 1
                    if entry[1] <= 0:
                        self._agg_specs.pop(sub.spec.key(), None)
        sub.session.subscribers.pop(sub.sid, None)
        if sub.task is not None:
            sub.task.cancel()

    # ------------------------------------------------------------------
    # the HTTP side door
    # ------------------------------------------------------------------
    def _metrics_text(self) -> str:
        """The Prometheus exposition, for ``GET /metrics`` and the ``metrics`` op."""
        return render_server_metrics(
            self.serving, self.stats.as_dict(), ring_deltas=self.stats.ring_deltas()
        )

    async def _serve_http(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Answer one plain HTTP request (``GET /metrics``) and close."""
        self.stats.add("http_requests")
        try:
            request_line = first + await reader.readline()
            while True:  # drain headers up to the blank line
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1").split()
            path = parts[1] if len(parts) >= 2 else "/"
            if path.split("?")[0] == "/metrics":
                body = self._metrics_text().encode("utf-8")
                status = "200 OK"
                content_type = "text/plain; version=0.0.4; charset=utf-8"
            else:
                body = b"not found; try /metrics\n"
                status = "404 Not Found"
                content_type = "text/plain; charset=utf-8"
            writer.write(
                (
                    f"HTTP/1.0 {status}\r\n"
                    f"Content-Type: {content_type}\r\n"
                    f"Content-Length: {len(body)}\r\n"
                    "Connection: close\r\n\r\n"
                ).encode("latin-1")
                + body
            )
            await writer.drain()
        except (ConnectionError, OSError):  # pragma: no cover
            pass

    # ------------------------------------------------------------------
    # request dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, session: _Session, message: Dict[str, Any]) -> None:
        request_id = message.get("id")
        op = message.get("op")
        try:
            handler = getattr(self, f"_op_{op}", None)
            if handler is None or not isinstance(op, str) or op.startswith("_"):
                raise ProtocolError(f"unknown op {op!r}")
            reply = await handler(session, message)
            if reply is not None:
                reply["id"] = request_id
                reply["ok"] = True
                await self._send(session, reply)
        except (ConnectionClosedError, ConnectionError, OSError):
            raise
        except asyncio.CancelledError:
            raise
        except BaseException as exc:  # noqa: BLE001 - reported to the peer
            self.stats.add("requests_failed")
            kind = type(exc).__name__ if isinstance(exc, (ReproError, ValueError, KeyError)) else "InternalError"
            await self._send(
                session,
                {"id": request_id, "ok": False, "kind": kind, "error": str(exc)},
            )

    async def _op_ping(self, session: _Session, message: Dict) -> Dict:
        engine = self.serving.engine
        return {
            "protocol": PROTOCOL_VERSION,
            "query": str(engine.query),
            "mode": getattr(engine, "mode", None),
            "epsilon": getattr(engine, "epsilon", None),
            "shards": getattr(engine, "shards", 1),
            "version": getattr(engine, "version", 0),
        }

    async def _op_read(self, session: _Session, message: Dict) -> Dict:
        limit = check_limit(message.get("limit"), ProtocolError)
        ticket = await self._run(self.serving.read, limit)
        return {"version": ticket.version, "pairs": wire_pairs(ticket.pairs)}

    async def _op_lookup(self, session: _Session, message: Dict) -> Dict:
        self.serving.check_writer()
        tup = unwire_tuple(message.get("tuple"))
        with await self._pin() as pinned:
            multiplicity = await self._run(pinned.snapshot.lookup, tup)
            return {"version": pinned.version, "multiplicity": multiplicity}

    async def _op_aggregate(self, session: _Session, message: Dict) -> Dict:
        """One consistent aggregate read: ``{group: (support, element)}`` rows.

        The client re-derives user-facing answers locally with the spec's
        ring, so one wire shape serves reads, subscription snapshots, and
        resyncs alike.
        """
        spec = AggregateSpec.from_wire(message.get("spec") or {})
        maintained = bool(message.get("maintained", True))
        version, elements = await self._run(
            self.serving.aggregate, spec, maintained
        )
        self.stats.add("aggregate_reads")
        return {
            "version": version,
            "elements": wire_elements(spec.ring, elements),
        }

    async def _op_apply_batch(self, session: _Session, message: Dict) -> Dict:
        updates = unwire_updates(message.get("updates"))
        await self._run(self.serving.commit, updates, write=True)
        return {"version": getattr(self.serving.engine, "version", 0)}

    async def _op_apply_update(self, session: _Session, message: Dict) -> Dict:
        updates = unwire_updates([message.get("update")])
        await self._run(self.serving.commit, updates[0], write=True)
        return {"version": getattr(self.serving.engine, "version", 0)}

    async def _op_reshard(self, session: _Session, message: Dict) -> Dict:
        """Reshard the served fleet online; subscribers ride through it.

        Runs on the pool, not on the writer thread, so commits and reads
        keep flowing during the build phase; the serving layer publishes the
        post-swap version with an empty delta (same contract as a retune).
        """
        shards = message.get("shards")
        if not isinstance(shards, int) or isinstance(shards, bool) or shards <= 0:
            raise ProtocolError(f"shards must be a positive integer, got {shards!r}")
        await self._run(self.serving.reshard, shards)
        engine = self.serving.engine
        return {
            "shards": getattr(engine, "shards", 1),
            "version": getattr(engine, "version", 0),
        }

    # -- snapshot paging ------------------------------------------------
    async def _pin(self):
        """``EngineServer.pin()``: right here on the loop once a version is
        published (it takes no write lock), off the loop while cold (it may
        wait for a commit)."""
        if not self.serving.cold:
            return self.serving.pin()
        return await self._run(self.serving.pin)

    async def _op_snapshot_open(self, session: _Session, message: Dict) -> Dict:
        self.serving.check_writer()
        if len(session.snapshots) >= self.config.max_snapshots_per_session:
            raise ProtocolError(
                "session snapshot limit reached "
                f"({self.config.max_snapshots_per_session}); close one first"
            )
        pinned = await self._pin()
        self._next_snapshot += 1
        sid = self._next_snapshot
        session.snapshots[sid] = pinned
        session.iterators[sid] = iter(pinned.snapshot.enumerate())
        return {"snap": sid, "version": pinned.version}

    def _session_snapshot(self, session: _Session, message: Dict):
        sid = message.get("snap")
        snapshot = session.snapshots.get(sid)
        if snapshot is None:
            raise ProtocolError(f"unknown snapshot handle {sid!r}")
        return sid, snapshot

    async def _op_snapshot_page(self, session: _Session, message: Dict) -> Dict:
        sid, snapshot = self._session_snapshot(session, message)
        limit = check_limit(message.get("limit"), ProtocolError) or 100
        page = await self._run(take, session.iterators[sid], limit)
        return {
            "snap": sid,
            "version": snapshot.version,
            "pairs": wire_pairs(page),
            "done": len(page) < limit,  # the cursor ran out inside this page
        }

    async def _op_snapshot_lookup(self, session: _Session, message: Dict) -> Dict:
        sid, pinned = self._session_snapshot(session, message)
        tup = unwire_tuple(message.get("tuple"))
        multiplicity = await self._run(pinned.snapshot.lookup, tup)
        return {"snap": sid, "version": pinned.version, "multiplicity": multiplicity}

    async def _op_snapshot_close(self, session: _Session, message: Dict) -> Dict:
        sid, snapshot = self._session_snapshot(session, message)
        session.snapshots.pop(sid, None)
        session.iterators.pop(sid, None)
        await self._run(snapshot.close)
        return {"snap": sid, "closed": True}

    # -- subscriptions --------------------------------------------------
    async def _op_subscribe(self, session: _Session, message: Dict) -> None:
        engine = self.serving.engine
        requested = message.get("query")
        if requested is not None and coerce_query(requested) != engine.query:
            raise UnsupportedQueryError(
                f"this server serves {str(engine.query)!r}; subscribe to it "
                f"(got {requested!r})"
            )
        await self._open_subscription(session, message, None)

    async def _op_subscribe_aggregate(self, session: _Session, message: Dict) -> None:
        """Open one aggregate subscription: full elements now, folded
        group deltas per commit after (see :meth:`_on_engine_commit`)."""
        spec = AggregateSpec.from_wire(message.get("spec") or {})
        await self._open_subscription(session, message, spec)

    async def _open_subscription(
        self, session: _Session, message: Dict, spec: Optional[AggregateSpec]
    ) -> None:
        """Register a subscriber, answer with the full state, start its sender."""
        self.serving.check_writer()
        engine = self.serving.engine
        if getattr(engine, "mode", None) != "dynamic":
            raise UnsupportedQueryError(
                "subscriptions require a dynamic engine; this server fronts "
                f"a {getattr(engine, 'mode', 'unknown')!r}-mode engine with "
                "no per-commit delta capture"
            )
        if len(self._subscribers) >= self.config.max_subscriptions:
            raise ProtocolError(
                f"subscription limit reached ({self.config.max_subscriptions})"
            )
        queue_size = self.config.subscriber_queue_size
        requested_queue = message.get("queue")
        if requested_queue is not None:
            if type(requested_queue) is not int or requested_queue <= 0:
                raise ProtocolError(
                    f"queue must be a positive integer, got {requested_queue!r}"
                )
            queue_size = min(requested_queue, queue_size)
        self._next_subscription += 1
        sub = _Subscriber(self._next_subscription, session, queue_size, spec)
        # Register FIRST — subscriber and spec in one event-loop step — then
        # read: every commit after this point is queued (the committing
        # thread folds the spec for it), and the read observes at least
        # every commit before it.  The client skips pushed versions <= the
        # initial version, so the overlap is deduplicated and there is no gap.
        self._subscribers[sub.sid] = sub
        session.subscribers[sub.sid] = sub
        if spec is None:
            self.stats.add("subscriptions_total")
            self.stats.add("subscribers_current")
        else:
            self._agg_specs.setdefault(spec.key(), [spec, 0])[1] += 1
            self.stats.add("agg_subscriptions_total")
            self.stats.add("agg_subscribers_current")
        try:
            version, result = await self._read_full(sub)
        except BaseException:
            self._drop_subscriber(sub)
            raise
        # The response goes out here, before the sender could race it.
        await self._send(
            session,
            {
                "id": message.get("id"),
                "ok": True,
                "sub": sub.sid,
                "version": version,
                "result": result,
            },
        )
        assert self._loop is not None
        sub.task = self._loop.create_task(self._subscription_sender(sub))

    async def _op_unsubscribe(self, session: _Session, message: Dict) -> Dict:
        sid = message.get("sub")
        sub = session.subscribers.get(sid)
        if sub is None:
            raise ProtocolError(f"unknown subscription {sid!r}")
        self._drop_subscriber(sub)
        return {"sub": sid, "closed": True}

    # -- introspection --------------------------------------------------
    async def _op_metrics(self, session: _Session, message: Dict) -> Dict:
        return {"text": self._metrics_text()}

    async def _op_stats(self, session: _Session, message: Dict) -> Dict:
        serving = self.serving.stats
        return {
            "net": self.stats.as_dict(),
            "serving": {
                "batches_applied": serving.batches_applied,
                "reads_served": serving.reads_served,
                "retunes_applied": serving.retunes_applied,
                "reshards_applied": serving.reshards_applied,
            },
            "shards": getattr(self.serving.engine, "shards", 1),
            "version": getattr(self.serving.engine, "version", 0),
            "latest_pushed_version": self.latest_version,
        }


class ServerThread:
    """Run an :class:`EngineTCPServer` on a dedicated event-loop thread.

    The blocking-world adapter used by :mod:`tools.serve`, the smoke test,
    and any test that drives the server from synchronous code::

        handle = ServerThread(serving_server).start()
        client = EngineClient("127.0.0.1", handle.port)
        ...
        handle.close()
    """

    def __init__(
        self, serving: EngineServer, config: Optional[ServerConfig] = None
    ) -> None:
        self.serving = serving
        self.config = config or ServerConfig()
        self.server: Optional[EngineTCPServer] = None
        self.port: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._ready = threading.Event()
        self._error: Optional[BaseException] = None

    def start(self, timeout: float = 10.0) -> "ServerThread":
        if self._thread is not None:
            raise RuntimeError("server thread already started")
        self._thread = threading.Thread(
            target=self._thread_main, name="repro-net-server", daemon=True
        )
        self._thread.start()
        if not self._ready.wait(timeout):  # pragma: no cover - startup hang
            raise RuntimeError("networked server did not start in time")
        if self._error is not None:
            raise self._error
        return self

    def _thread_main(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # pragma: no cover - loop crash
            self._error = exc
            self._ready.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        server = EngineTCPServer(self.serving, self.config)
        try:
            await server.start()
        except BaseException as exc:
            self._error = exc
            self._ready.set()
            return
        self.server = server
        self.port = server.port
        self._ready.set()
        try:
            await self._stop_event.wait()
        finally:
            await server.stop()

    def close(self, timeout: float = 10.0) -> None:
        """Stop the server and join its thread."""
        loop, stop_event = self._loop, self._stop_event
        if loop is not None and stop_event is not None:
            try:
                loop.call_soon_threadsafe(stop_event.set)
            except RuntimeError:  # pragma: no cover - loop already gone
                pass
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None

    def __enter__(self) -> "ServerThread":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()
