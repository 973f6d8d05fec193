"""Asyncio TCP front-end for an :class:`~repro.core.serving.EngineServer`.

:class:`EngineTCPServer` serves the length-prefixed frame protocol of
:mod:`repro.net.protocol` on one listening port.  Connections multiplex
three kinds of traffic:

* **Request/response ops** — ``ping``, ``read``, ``lookup``,
  ``aggregate``, ``apply_batch``/``apply_update``, snapshot paging
  (``snapshot_open``/``snapshot_page``/``snapshot_lookup``/
  ``snapshot_close``), ``subscribe``/``subscribe_aggregate``/
  ``unsubscribe``, ``metrics`` and ``stats``.  Each connection's
  requests are dispatched sequentially; blocking engine work runs on a
  thread pool (commits on one thread of their own) so the event loop never
  stalls on maintenance or a whole enumeration — a single engine's
  snapshot page, O(limit) with constant delay like its encoding, is taken
  on the loop; a sharded one runs shard rounds, so it goes to the pool.
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
  resync, and ``_push`` builds a commit's payloads — the pair table once,
  one fold per subscribed spec — on the event loop.
* **Ack before push** — the committing thread only hands ``(version,
  delta)`` to the loop.  The loop fans commits out in version order, and a
  commit made by a wire request only after that request's reply is
  written, so a writer never waits for the push of its own commit.  Any
  other commit (an in-process ``EngineServer.commit``, a reshard) fans out
  as soon as every commit before it has.
* **Plain HTTP** — the server peeks the first four bytes of every
  connection; ``GET `` switches the connection to a minimal HTTP/1.0
  responder so ``GET /metrics`` (Prometheus text format, see
  :mod:`repro.net.metrics`) works from curl or a Prometheus scraper with
  no extra port.

Backpressure contract (the part that keeps memory bounded): every
subscriber owns a bounded send queue.  While the subscriber keeps up, each
commit enqueues one delta frame.  When the queue is full at fan-out (or
the payload cannot be built) the subscriber is marked *lagging*: its queue
is cleared, a single resync marker takes its place, and subsequent commits
only bump the server's ``latest_version`` (coalescing — nothing accumulates
per lagging subscriber).  The sender turns the marker into one full-state
resync frame, reading the engine repeatedly until the read's version has
caught up with ``latest_version`` (checked on the event loop, so no commit
can slip between the check and the subscriber re-arming).  A subscriber
therefore costs at most ``queue_size`` frames of memory no matter how slow
its socket drains.
"""

from __future__ import annotations

import asyncio
import logging
import socket
import threading
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Optional, Set, Tuple

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
from repro.stats import LockedFamily, metric

LOGGER = logging.getLogger("repro.net")


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


@dataclass(eq=False)
class NetServerStats(LockedFamily):
    """Thread-safe counters of the TCP front-end (``repro_net_*`` on /metrics)."""

    PREFIX = "repro_net"

    aggregate_reads: int = metric(
        "Aggregate reads served (one-shot ops, subscription snapshots, and resyncs).",
        name="repro_aggregate_reads_total",
    )
    connections_total: int = metric("TCP connections accepted since server start.")
    connections_current: int = metric("TCP connections currently open.", "gauge")
    connections_refused: int = metric("Connections refused at the connection limit.")
    frames_received: int = metric("Protocol frames received across all connections.")
    frames_sent: int = metric("Protocol frames sent across all connections.")
    requests_failed: int = metric("Requests answered with an error frame.")
    subscriptions_total: int = metric("Subscriptions opened since server start.")
    subscribers_current: int = metric("Subscriptions currently active.", "gauge")
    deltas_pushed: int = metric("Per-commit delta frames enqueued to subscribers.")
    resyncs: int = metric("Slow-subscriber resyncs (queue overflow coalescing).")
    commits_observed: int = metric("Engine commits observed by the push hub.")
    max_queue_depth: int = metric("High-water mark of any subscriber send queue.", "gauge")
    http_requests: int = metric("Plain HTTP requests served on the shared port.")
    agg_subscriptions_total: int = metric("Aggregate subscriptions opened since start.")
    agg_subscribers_current: int = metric("Aggregate subscriptions currently active.", "gauge")
    agg_deltas_pushed: int = metric("Folded aggregate delta frames enqueued.")
    agg_resyncs: int = metric("Slow aggregate-subscriber resyncs (queue overflow).")
    push_build_us: int = metric("Event-loop microseconds spent building push payloads.")
    pushes_held: int = metric("Commits whose push waited for the reply to their request.")
    push_bytes: int = metric(
        "Bytes of per-commit delta frames written to subscribers.",
        name="repro_net_push_bytes_total",
    )
    #: Aggregate delta frames enqueued, keyed by ring name — exported as one
    #: labeled Prometheus family (per-ring traffic breakdown).
    _ring_deltas: Dict[str, int] = field(default_factory=dict, repr=False)

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


class _Subscriber:
    """One push subscription: its bounded queue and sender task.

    ``spec`` distinguishes the two subscription flavours: ``None`` mirrors
    the full result (per-commit tuple deltas), an :class:`AggregateSpec`
    mirrors that aggregate (per-commit folded group deltas, coalesced by
    ring addition on overflow via the same resync path).
    """

    __slots__ = ("sid", "session", "queue", "lagging", "task", "spec")

    def __init__(
        self, sid: int, session: "_Session", queue_size: int, spec: Optional[AggregateSpec]
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
        # One drain at a time: StreamWriter.drain() does not support
        # concurrent waiters on every Python version, and senders run
        # concurrently with the request dispatcher.  Writes take no lock.
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
        #: Commits handed to the loop and not yet fanned out, in version
        #: order, and the versions among them whose reply is not written.
        self._pending: Deque[Tuple[int, Optional[Dict]]] = deque()
        self._held: Set[int] = set()
        #: The writer lane's ``held`` list while it commits for a request.
        self._tls = threading.local()
        #: Highest committed version observed by the push hub; lagging
        #: subscribers resync against this ratchet.
        self.latest_version = 0
        self._closed = False
        self._listener_installed = False
        self._sharded = hasattr(serving.engine, "begin_reshard")

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> "EngineTCPServer":
        """Bind the listening socket and install the commit listener."""
        if self._server is not None:
            raise RuntimeError("server already started")
        self._loop = asyncio.get_running_loop()
        self._pool = ThreadPoolExecutor(self.config.executor_threads, thread_name_prefix="repro-net")
        self._writer = ThreadPoolExecutor(1, thread_name_prefix="repro-net-writer")
        self._closed = False
        if not self._listener_installed:
            # EngineServer keeps listeners for its lifetime; ``_closed``
            # turns this one into a no-op after stop().
            self.serving.on_commit(self._on_engine_commit)
            self._listener_installed = True
        self.latest_version = self.serving.engine.version
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
        self._pending.clear()
        self._held.clear()

    # ------------------------------------------------------------------
    # commit fan-out (the push hub)
    # ------------------------------------------------------------------
    def _on_engine_commit(self, version: int, delta: Optional[Dict]) -> None:
        """EngineServer commit listener: hands ``(version, delta)`` to the loop.

        It runs in the committing thread under the engine's write lock, so
        it builds nothing; :meth:`_push` does, on the loop.  A commit made
        for a request (:meth:`_held_commit` set ``_tls.held``) is held until
        the request's reply is written.
        """
        if self._closed or self._loop is None:
            return
        held = getattr(self._tls, "held", None)
        if held is not None:
            self._tls.held = None  # a reshard the commit sets off is not held
            held.append(version)
        try:
            self._loop.call_soon_threadsafe(
                self._publish_commit, version, delta, held is not None
            )
        except RuntimeError:  # pragma: no cover - loop torn down mid-commit
            pass

    def _publish_commit(self, version: int, delta: Optional[Dict], held: bool) -> None:
        """Take one commit in on the event loop, then fan out what is ready."""
        if version > self.latest_version:
            self.latest_version = version
        self.stats.count("commits_observed")
        if held:
            self._held.add(version)
            if self._subscribers:
                self.stats.count("pushes_held")
        self._pending.append((version, delta))
        self._release(())

    def _release(self, versions) -> None:
        """Unhold ``versions`` (their reply is written), then push the
        pending commits in version order up to the first one still held.

        A held commit waits for its own reply only, and a reply is written
        without waiting on the socket (:meth:`_write`).
        """
        self._held.difference_update(versions)
        pending, held = self._pending, self._held
        while pending and pending[0][0] not in held:
            self._push(*pending.popleft())

    def _push(self, version: int, delta: Optional[Dict]) -> None:
        """Enqueue one commit for every subscriber that keeps up, building
        its payloads once per flavour: the pair table under ``None``, one
        folded row list per aggregate spec under ``spec.key()``.  A value a
        ring cannot lift folds (:class:`~repro.rings.spec.Unliftable`); a
        payload that fails to build sends its subscribers to resync, and so
        does a commit whose delta the engine lost (``delta is None``)."""
        if delta is None:
            for sub in self._subscribers.values():
                if not sub.lagging:
                    self._lag(sub)
            return
        payloads: Dict[Optional[Tuple], Any] = {}
        head, build_ns = tuple(self.serving.engine.query.head), 0
        for sub in self._subscribers.values():
            if sub.lagging:
                # Coalesced: the pending resync marker covers this commit,
                # because the resync ratchet reads at >= latest_version.
                continue
            key = None if sub.spec is None else sub.spec.key()
            if key not in payloads:
                started = time.perf_counter_ns()
                try:
                    payloads[key] = wire_pairs(delta) if key is None else wire_elements(
                        sub.spec.ring, fold_delta(sub.spec, head, delta.items())
                    )
                except Exception:  # noqa: BLE001 - its subscribers resync instead
                    LOGGER.exception("cannot build the push of version %d", version)
                    payloads[key] = None
                build_ns += time.perf_counter_ns() - started
            payload = payloads[key]
            if payload is None:
                self._lag(sub)
                continue
            try:
                sub.queue.put_nowait(("delta", version, payload))
            except asyncio.QueueFull:
                self._lag(sub)
                continue
            if sub.spec is None:
                self.stats.count("deltas_pushed")
            else:
                self.stats.count("agg_deltas_pushed")
                self.stats.add_ring_delta(sub.spec.ring.name)
            self.stats.note_queue_depth(sub.queue.qsize())
        if payloads:
            self.stats.count("push_build_us", build_ns // 1000)

    def _lag(self, sub: _Subscriber) -> None:
        """Coalesce ``sub``: one resync marker replaces its whole queue."""
        sub.lagging = True
        while not sub.queue.empty():
            sub.queue.get_nowait()
        sub.queue.put_nowait(("resync",))
        self.stats.count("resyncs" if sub.spec is None else "agg_resyncs")

    async def _read_full(self, sub: _Subscriber) -> Tuple[int, Any]:
        """One full read of what ``sub`` mirrors, ``(version, wire result)``:
        the subscribe response and every resync frame carry one."""
        if sub.spec is None:
            ticket = await self._run(self.serving.read)
            return ticket.version, wire_pairs(ticket.pairs)
        version, elements = await self._run(self.serving.aggregate, sub.spec)
        self.stats.count("aggregate_reads")
        return version, wire_elements(sub.spec.ring, elements)

    async def _subscription_sender(self, sub: _Subscriber) -> None:
        """Drain one subscriber's queue onto its connection."""
        try:
            while True:
                item = await sub.queue.get()
                if item[0] == "delta":
                    _, version, wire_delta = item
                    push = {"sub": sub.sid, "kind": "delta", "version": version, "delta": wire_delta}
                    self.stats.count("push_bytes", await self._send(sub.session, push))
                else:  # resync marker
                    while True:
                        version, result = await self._read_full(sub)
                        if self.latest_version <= version:
                            # Checked on the event loop with no await
                            # before the flag flip: no commit can land in
                            # between, so re-arming here is gap-free.
                            sub.lagging = False
                            break
                    resync = {"sub": sub.sid, "kind": "resync", "version": version, "result": result}
                    await self._send(sub.session, resync)
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
        if write:  # a commit for a request: its push waits for the reply
            fn, args = self._held_commit, (fn, *args)
        return await self._loop.run_in_executor(lane, fn, *args)

    def _held_commit(self, commit: Callable, event) -> int:
        """``commit(event)`` on the writer lane, its push held for the reply.

        The listener adds the commit's version to ``_tls.held``.  If the
        call fails after that, no reply will release the push, so this does.
        """
        self._tls.held = held = []
        try:
            return commit(event)
        except BaseException:
            self._loop.call_soon_threadsafe(self._release, held)
            raise
        finally:
            self._tls.held = None

    def _write(self, session: _Session, message: Dict[str, Any]) -> int:
        """Hand one whole frame to the session's transport; returns its size.

        It never waits: frames cannot interleave (each is one ``write``),
        and a reply is never stuck behind a push its peer has not read.
        """
        data = encode_frame(message)
        session.writer.write(data)
        self.stats.count("frames_sent")
        return len(data)

    async def _send(self, session: _Session, message: Dict[str, Any]) -> int:
        """Write one frame to the session and wait for it to drain."""
        sent = self._write(session, message)
        async with session.write_lock:
            await session.writer.drain()
        return sent

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        if self._closed:
            writer.close()
            return
        buffer_bytes = self.config.send_buffer_bytes
        if buffer_bytes is not None:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, buffer_bytes)
            writer.transport.set_write_buffer_limits(high=buffer_bytes)
        if len(self._sessions) >= self.config.max_connections:
            self.stats.count("connections_refused")
            error = f"connection limit reached ({self.config.max_connections})"
            writer.write(encode_frame({"ok": False, "kind": "ServerBusy", "error": error}))
            writer.close()  # after the frame: a transport flushes before it closes
            return
        self._next_session += 1
        session = _Session(writer)
        self._sessions[self._next_session] = session
        session_id = self._next_session
        self.stats.count("connections_total")
        self.stats.count("connections_current")
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
                self.stats.count("frames_received")
                await self._dispatch(session, message)
        except ConnectionClosedError:
            pass
        except (ConnectionError, OSError, ProtocolError):
            pass
        finally:
            self._sessions.pop(session_id, None)
            self.stats.count("connections_current", -1)
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
                self.stats.count("subscribers_current", -1)
            else:
                self.stats.count("agg_subscribers_current", -1)
        sub.session.subscribers.pop(sub.sid, None)
        if sub.task is not None:
            sub.task.cancel()

    # ------------------------------------------------------------------
    # the HTTP side door
    # ------------------------------------------------------------------
    def _metrics_text(self) -> str:
        """The Prometheus exposition, for ``GET /metrics`` and the ``metrics`` op."""
        return render_server_metrics(self.serving, self.stats)

    async def _serve_http(
        self,
        first: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        """Answer one plain HTTP request (``GET /metrics``) and close."""
        self.stats.count("http_requests")
        try:
            request_line = first + await reader.readline()
            while True:  # drain headers up to the blank line
                line = await reader.readline()
                if line in (b"\r\n", b"\n", b""):
                    break
            parts = request_line.decode("latin-1").split()
            path = parts[1] if len(parts) >= 2 else "/"
            if path.split("?")[0] == "/metrics":
                body = (await self._run(self._metrics_text)).encode("utf-8")
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
            self.stats.count("requests_failed")
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
            "mode": engine.mode,
            "epsilon": engine.epsilon,
            "shards": getattr(engine, "shards", 1),
            "version": engine.version,
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
        self.stats.count("aggregate_reads")
        return {
            "version": version,
            "elements": wire_elements(spec.ring, elements),
        }

    async def _op_apply_batch(self, session: _Session, message: Dict) -> None:
        await self._commit(session, message, unwire_updates(message.get("updates")))

    async def _op_apply_update(self, session: _Session, message: Dict) -> None:
        await self._commit(session, message, unwire_updates([message.get("update")])[0])

    async def _commit(self, session: _Session, message: Dict, event) -> None:
        """Commit ``event`` for a request: its reply is written before its push."""
        version = await self._run(self.serving.commit, event, write=True)
        try:
            self._write(session, {"id": message.get("id"), "ok": True, "version": version})
        finally:
            self._release((version,))
        async with session.write_lock:
            await session.writer.drain()

    async def _op_reshard(self, session: _Session, message: Dict) -> Dict:
        """Reshard the served fleet online; subscribers ride through it.

        Runs on the pool, not on the writer thread, so commits and reads
        keep flowing during the build phase; the serving layer publishes the
        post-swap version with an empty delta (same contract as a retune).
        The reply carries the version the swap published, not whatever
        commit has landed since.
        """
        shards = message.get("shards")
        if not isinstance(shards, int) or isinstance(shards, bool) or shards <= 0:
            raise ProtocolError(f"shards must be a positive integer, got {shards!r}")
        version = await self._run(self.serving.reshard, shards)
        return {"shards": shards, "version": version}

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
        # On the loop, which encodes the page anyway: a pool thread would wait
        # twice more for the interpreter lock, behind the commit in flight.
        # A sharded page runs shard rounds, so it goes off the loop.
        iterator = session.iterators[sid]
        page = await self._run(take, iterator, limit) if self._sharded else take(iterator, limit)
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
        group deltas per commit after (see :meth:`_push`)."""
        spec = AggregateSpec.from_wire(message.get("spec") or {})
        await self._open_subscription(session, message, spec)

    async def _open_subscription(
        self, session: _Session, message: Dict, spec: Optional[AggregateSpec]
    ) -> None:
        """Register a subscriber, answer with the full state, start its sender."""
        self.serving.check_writer()
        engine = self.serving.engine
        if engine.mode != "dynamic":
            raise UnsupportedQueryError(
                "subscriptions require a dynamic engine; this server fronts "
                f"a {engine.mode!r}-mode engine with no per-commit delta capture"
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
        # Register FIRST, then read: every commit fanned out after this point
        # is queued for it, and the read observes at least every commit
        # before it.  The client skips pushed versions <= the initial
        # version, so the overlap is deduplicated and there is no gap.
        self._subscribers[sub.sid] = sub
        session.subscribers[sub.sid] = sub
        if spec is None:
            self.stats.count("subscriptions_total")
            self.stats.count("subscribers_current")
        else:
            self.stats.count("agg_subscriptions_total")
            self.stats.count("agg_subscribers_current")
        try:
            version, result = await self._read_full(sub)
        except BaseException:
            self._drop_subscriber(sub)
            raise
        # The response goes out here, before the sender could race it.
        reply = {"sub": sub.sid, "version": version, "result": result}
        await self._send(session, {"id": message.get("id"), "ok": True, **reply})
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
        return {"text": await self._run(self._metrics_text)}

    async def _op_stats(self, session: _Session, message: Dict) -> Dict:
        return {
            "net": self.stats.as_dict(),
            "serving": self.serving.stats.as_dict(),
            "shards": getattr(self.serving.engine, "shards", 1),
            "version": self.serving.engine.version,
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
