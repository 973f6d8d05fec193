"""Shard executors: serial, thread-pool, and multiprocessing backends.

The sharded engine talks to its shards through a tiny command set — one
mutating command, ``commit`` (the shard's part of one update, batch or
retune event, see :mod:`repro.data.update`), plus ``validate`` (its
dry-run), ``enumerate`` (sorted), ``export``, ``check`` (engine invariants
+ placement), ``stats``, ``view_size``, ``size``, ``threshold``,
``version``, ``epsilon``,
the aggregate pair ``register_aggregate`` / ``aggregate`` (per-shard
partial aggregates as raw supports and ring elements, merged at the
facade with :func:`repro.rings.spec.merge_elements`),
plus the snapshot quartet
``snapshot`` / ``snap_enumerate`` / ``snap_lookup`` / ``snap_release``
(shard-local :class:`repro.snapshot.Snapshot` handles held in a per-worker
registry and addressed by integer id, so they work identically in-process
and across a worker pipe) — so the same facade drives three deployments:

* :class:`SerialExecutor` — per-shard engines in-process, commands run in a
  loop.  Zero overhead, no parallelism; the default for small databases and
  the conformance harness (where determinism and cheap setup matter more
  than wall-clock).
* :class:`ThreadExecutor` — the same in-process engines behind a
  ``ThreadPoolExecutor``.  Pure-Python maintenance holds the GIL, so this
  buys overlap only around any C-level work, but it exercises the
  concurrent dispatch path with none of the serialization cost.
* :class:`ProcessExecutor` — one long-lived worker process per shard, each
  owning its engine for the whole session; commands and replies cross
  ``multiprocessing`` pipes as plain tuples.  This is the scale-out
  backend: per-shard maintenance runs on separate interpreters (and
  separate cores when the host has them).

Every executor is deterministic from the engine's point of view: shard
state depends only on the sub-stream routed to that shard, and enumeration
merges per-shard results sorted by the canonical order, so scheduling can
never leak into results.
"""

from __future__ import annotations

import builtins
import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import repro.exceptions as repro_exceptions
from repro.core.api import HierarchicalEngine
from repro.data.database import Database, DatabaseRows
from repro.durability.crashpoints import (
    SimulatedCrashError,
    _injector_from_env,
    install_injector,
)
from repro.durability.manager import DurabilityConfig
from repro.enumeration.union import sort_shard_result
from repro.exceptions import WorkerDiedError
from repro.ivm.rebalance import RebalanceStats
from repro.rings.spec import AggregateSpec
from repro.sharding.router import ShardRouter


class _ShardServer:
    """Executes shard commands against one engine (shared by all backends)."""

    def __init__(
        self,
        query_text: str,
        engine_kwargs: Dict[str, Any],
        shard_index: int,
        shard_count: int,
        shard_key: Optional[str] = None,
        engine: Optional[HierarchicalEngine] = None,
    ) -> None:
        # recovery hands over an already-rebuilt engine; the normal path
        # constructs a fresh one from the facade's kwargs
        self.engine = engine or HierarchicalEngine(query_text, **engine_kwargs)
        self.router = ShardRouter(self.engine.query, shard_count, shard_key)
        self.shard_index = shard_index
        # Shard-local snapshot registry: handles cannot cross a process
        # pipe, so the facade holds integer ids and reads through the
        # snap_* commands below.  Entries are ``[snapshot, sorted_result]``
        # — snapshots are immutable, so the canonical enumeration is
        # computed once and replayed on every later read of the same id.
        self._snapshots: Dict[int, List[Any]] = {}
        self._snapshot_seq = 0

    def handle(self, command: str, payload: Any) -> Any:
        if command == "commit":
            # the shard's part of one facade event — an Update, a sub-batch
            # or a Retune — through the shard engine's own public commit,
            # which re-validates a sub-batch (a walk far cheaper than the
            # apply it precedes) and, when durable, logs it as one WAL record
            self.engine.commit(payload)
            return None
        if command == "validate":
            # dry-run over-delete check: the first phase of the sharded
            # engine's two-phase (validate, then apply) batch ingestion.
            # The payload is an UpdateBatch — in-process executors hand it
            # over as-is, the process executor pickles it across the pipe.
            # (Relation membership needs no re-check here: routing already
            # rejected updates to relations outside the query.)
            self.engine._require_dynamic()
            payload.validate_against(self.engine.database)
            return None
        if command == "enumerate":
            return sort_shard_result(self.engine.enumerate())
        if command == "export":
            # Reshard cut: the shard's full base data as a picklable
            # payload.  The caller stops routing writes to this fleet
            # before exporting, so the payload is a consistent cut.
            return self.engine.database.to_rows()
        if command == "snapshot":
            self._snapshot_seq += 1
            self._snapshots[self._snapshot_seq] = [self.engine.snapshot(), None]
            return (self._snapshot_seq, self.engine.version)
        if command == "snap_enumerate":
            entry = self._snapshot(payload)
            if entry[1] is None:
                entry[1] = sort_shard_result(entry[0].enumerate())
            return entry[1]
        if command == "snap_lookup":
            snapshot_id, tup = payload
            return self._snapshot(snapshot_id)[0].lookup(tuple(tup))
        if command == "snap_release":
            entry = self._snapshots.pop(payload, None)
            if entry is not None:
                entry[0].close()
            return None
        if command == "set_delta_capture":
            self.engine.set_delta_capture(bool(payload))
            return None
        if command == "drain_delta":
            # per-shard net result delta since the last drain; the facade
            # sums the shard dicts (shard results are disjoint up to
            # shard-key collisions, which summing handles like the k-way
            # merge does)
            return list(self.engine.drain_result_delta().items())
        if command == "register_aggregate":
            # Install the maintained state for one spec on this shard; the
            # facade re-broadcasts its registry on load/recover/reshard so
            # rebuilt workers maintain the same aggregates.
            self.engine.register_aggregate(AggregateSpec.from_wire(payload))
            return None
        if command == "aggregate":
            # One shard's partial aggregate: supports and ring elements,
            # NOT answers — partials from different shards must still
            # merge at the facade (min of mins is lawful, but only the ring
            # knows that; answers in general do not compose).
            spec_wire, maintained = payload
            return self.engine.aggregate_elements(
                AggregateSpec.from_wire(spec_wire), maintained=maintained
            )
        if command == "version":
            return self.engine.version
        if command == "epsilon":
            return self.engine.epsilon
        if command == "check":
            self.engine.check_invariants()
            self.router.check_placement(self.engine.database, self.shard_index)
            return None
        if command == "stats":
            stats = self.engine.rebalance_stats
            return stats.as_dict() if stats is not None else None
        if command == "view_size":
            return self.engine.view_size()
        if command == "size":
            return self.engine.database.size
        if command == "threshold":
            return self.engine.threshold
        raise ValueError(f"unknown shard command {command!r}")

    def _snapshot(self, snapshot_id: int):
        try:
            return self._snapshots[snapshot_id]
        except KeyError as exc:
            raise repro_exceptions.StaleStateError(
                f"shard {self.shard_index} holds no snapshot {snapshot_id} "
                "(released, or the engine was re-loaded)"
            ) from exc


def _load_server(
    query_text: str,
    engine_kwargs: Dict[str, Any],
    shard_index: int,
    shard_count: int,
    shard_key: Optional[str],
    database: Optional[Database],
    durability: Optional[DurabilityConfig] = None,
) -> _ShardServer:
    """Build one shard server — fresh from ``database``, or recovered.

    ``database=None`` is recovery mode: the shard engine is rebuilt from
    its own per-shard durability directory (checkpoint + WAL tail) and
    resumes committing there.  A fresh load with durability starts a new
    durable history in that directory instead.
    """
    shard_config = (
        durability.for_shard(shard_index) if durability is not None else None
    )
    if database is None:
        if shard_config is None:
            raise repro_exceptions.DurabilityError(
                f"shard {shard_index} cannot recover without a durability "
                "directory"
            )
        from repro.durability.recovery import recover_engine

        engine, _report = recover_engine(shard_config.directory, shard_config)
        return _ShardServer(
            query_text,
            engine_kwargs,
            shard_index,
            shard_count,
            shard_key,
            engine=engine,
        )
    kwargs = dict(engine_kwargs)
    if shard_config is not None:
        kwargs["durability"] = shard_config
    server = _ShardServer(
        query_text, kwargs, shard_index, shard_count, shard_key
    )
    server.engine.load(database)
    return server


def _worker_main(
    connection,
    query_text: str,
    engine_kwargs: Dict[str, Any],
    shard_index: int,
    shard_count: int,
    shard_key: Optional[str],
    payload: Optional[DatabaseRows],
    durability: Optional[DurabilityConfig] = None,
) -> None:
    """Entry point of one shard worker process: a command loop over a pipe.

    ``payload=None`` starts the worker in recovery mode (see
    :func:`_load_server`).  A :class:`SimulatedCrashError` escaping a
    command kills the process for real (``os._exit``) — fault-injection
    tests arm ``REPRO_CRASH_POINT`` and get a genuine worker death at an
    exact durability site, ack unsent, pipe broken.
    """
    # Re-arm fault injection from the environment here rather than relying
    # on the import-time hook: forked workers inherit the parent's already-
    # imported modules, where the env var was not yet set.
    env_injector = _injector_from_env()
    if env_injector is not None:
        install_injector(env_injector)
    try:
        server = _load_server(
            query_text,
            engine_kwargs,
            shard_index,
            shard_count,
            shard_key,
            None if payload is None else Database.from_rows(payload),
            durability,
        )
        connection.send(("ok", None))
    except Exception as exc:  # noqa: BLE001 - shipped to the coordinator
        connection.send(("error", type(exc).__name__, str(exc)))
        connection.close()
        return
    while True:
        try:
            command, command_payload = connection.recv()
        except EOFError:
            break
        if command == "close":
            connection.send(("ok", None))
            break
        try:
            connection.send(("ok", server.handle(command, command_payload)))
        except SimulatedCrashError:  # pragma: no cover - dies in the child
            os._exit(1)
        except Exception as exc:  # noqa: BLE001 - shipped to the coordinator
            connection.send(("error", type(exc).__name__, str(exc)))
    connection.close()


def _raise_remote(name: str, message: str) -> None:
    """Re-raise a worker-side failure as its original exception type."""
    exc_type = getattr(repro_exceptions, name, None) or getattr(
        builtins, name, None
    )
    if not (isinstance(exc_type, type) and issubclass(exc_type, BaseException)):
        exc_type = repro_exceptions.ReproError
        message = f"{name}: {message}"
    raise exc_type(message)


class ShardExecutor:
    """Common interface: run one command on one shard or on many shards."""

    shard_count: int = 0

    def start(
        self,
        query_text: str,
        engine_kwargs: Dict[str, Any],
        databases: Sequence[Optional[Database]],
        shard_key: Optional[str] = None,
        durability: Optional[DurabilityConfig] = None,
    ) -> None:
        raise NotImplementedError

    def call(self, shard_index: int, command: str, payload: Any = None) -> Any:
        raise NotImplementedError

    def restart_shard(self, shard_index: int) -> None:
        """Replace one shard's worker with a fresh one recovered from disk.

        Only meaningful when the executor was started with a durability
        config — the replacement worker rebuilds its engine from the
        shard's checkpoint + WAL instead of a database payload.  Other
        shards are untouched and keep serving throughout.
        """
        raise NotImplementedError

    def dead_shards(self) -> List[int]:
        """Shards whose workers are known dead (always live in-process)."""
        return []

    def map(
        self, commands: Dict[int, Tuple[str, Any]]
    ) -> Dict[int, Any]:
        """Run ``{shard: (command, payload)}``, one command per shard."""
        raise NotImplementedError

    def broadcast(self, command: str, payload: Any = None) -> List[Any]:
        """Run the same command on every shard; results in shard order."""
        results = self.map(
            {index: (command, payload) for index in range(self.shard_count)}
        )
        return [results[index] for index in range(self.shard_count)]

    def close(self) -> None:
        raise NotImplementedError

    def stats(self) -> List[Optional[RebalanceStats]]:
        return [
            None if raw is None else RebalanceStats.from_dict(raw)
            for raw in self.broadcast("stats")
        ]


class SerialExecutor(ShardExecutor):
    """In-process shard engines, commands executed in a plain loop."""

    name = "serial"

    def start(
        self, query_text, engine_kwargs, databases, shard_key=None, durability=None
    ) -> None:
        self.shard_count = len(databases)
        self._start_args = (query_text, dict(engine_kwargs), shard_key, durability)
        # in-process executors take the split databases as-is:
        # split_database already produced private copies, so no
        # payload round-trip is needed
        self._servers = [
            _load_server(
                query_text,
                engine_kwargs,
                index,
                self.shard_count,
                shard_key,
                database,
                durability,
            )
            for index, database in enumerate(databases)
        ]

    def restart_shard(self, shard_index: int) -> None:
        # in-process workers cannot die on their own; this path exists so
        # recovery-mode reload is testable without a process executor
        query_text, engine_kwargs, shard_key, durability = self._start_args
        self._servers[shard_index] = _load_server(
            query_text,
            engine_kwargs,
            shard_index,
            self.shard_count,
            shard_key,
            None,
            durability,
        )

    def call(self, shard_index, command, payload=None):
        return self._servers[shard_index].handle(command, payload)

    def map(self, commands):
        return {
            index: self.call(index, command, payload)
            for index, (command, payload) in commands.items()
        }

    def close(self) -> None:
        self._servers = []


class ThreadExecutor(SerialExecutor):
    """In-process shard engines dispatched through a thread pool."""

    name = "thread"

    def start(
        self, query_text, engine_kwargs, databases, shard_key=None, durability=None
    ) -> None:
        super().start(query_text, engine_kwargs, databases, shard_key, durability)
        self._pool = ThreadPoolExecutor(
            max_workers=max(1, self.shard_count),
            thread_name_prefix="repro-shard",
        )

    def map(self, commands):
        if len(commands) < 2:
            return super().map(commands)  # nothing to overlap: skip the pool hop
        futures = {
            index: self._pool.submit(self.call, index, command, payload)
            for index, (command, payload) in commands.items()
        }
        return {index: future.result() for index, future in futures.items()}

    def close(self) -> None:
        pool = getattr(self, "_pool", None)
        if pool is not None:
            pool.shutdown(wait=True)
            self._pool = None
        super().close()


class ProcessExecutor(ShardExecutor):
    """One persistent worker process per shard, commands over pipes.

    Workers are forked (or spawned, per the platform's default start
    method) once at ``start`` with their shard's database payload, then
    serve commands until ``close``.  ``map`` sends every command before
    collecting any reply, so per-shard work genuinely overlaps.
    """

    name = "process"

    def start(
        self, query_text, engine_kwargs, databases, shard_key=None, durability=None
    ) -> None:
        self.shard_count = len(databases)
        self._context = multiprocessing.get_context()
        self._start_args = (query_text, dict(engine_kwargs), shard_key, durability)
        self._connections = []
        self._processes = []
        # One lock per pipe: concurrent reader sessions (snapshot reads) and
        # the writer would otherwise interleave send/recv pairs on the same
        # connection and desynchronize it.  ``map`` acquires locks in sorted
        # shard order, so overlapping multi-shard commands cannot deadlock.
        self._conn_locks = [threading.Lock() for _ in databases]
        for index, database in enumerate(databases):
            connection, process = self._spawn_worker(
                index, None if database is None else database.to_rows()
            )
            self._connections.append(connection)
            self._processes.append(process)
        for connection in self._connections:
            self._receive(connection)

    def _spawn_worker(self, index: int, payload: Optional[DatabaseRows]):
        """Fork one shard worker (``payload=None`` → recovery mode)."""
        query_text, engine_kwargs, shard_key, durability = self._start_args
        parent_end, child_end = self._context.Pipe()
        process = self._context.Process(
            target=_worker_main,
            args=(
                child_end,
                query_text,
                dict(engine_kwargs),
                index,
                self.shard_count,
                shard_key,
                payload,
                durability,
            ),
            daemon=True,
        )
        process.start()
        child_end.close()
        return parent_end, process

    def restart_shard(self, shard_index: int) -> None:
        process = self._processes[shard_index]
        if process.is_alive():  # pragma: no cover - defensive: forced restart
            process.terminate()
        process.join(timeout=5)
        try:
            self._connections[shard_index].close()
        except OSError:  # pragma: no cover - already torn down
            pass
        with self._conn_locks[shard_index]:
            connection, process = self._spawn_worker(shard_index, None)
            self._connections[shard_index] = connection
            self._processes[shard_index] = process
            self._receive(connection)

    def dead_shards(self) -> List[int]:
        return [
            index
            for index, process in enumerate(self._processes)
            if not process.is_alive()
        ]

    def _receive(self, connection) -> Any:
        reply = connection.recv()
        if reply[0] == "error":
            _raise_remote(reply[1], reply[2])
        return reply[1]

    def call(self, shard_index, command, payload=None):
        with self._conn_locks[shard_index]:
            connection = self._connections[shard_index]
            try:
                connection.send((command, payload))
                reply = connection.recv()
            except (BrokenPipeError, EOFError, OSError) as exc:
                raise WorkerDiedError([shard_index]) from exc
        if reply[0] == "error":
            _raise_remote(reply[1], reply[2])
        return reply[1]

    def map(self, commands):
        ordered = sorted(commands)
        held = set()
        results: Dict[int, Any] = {}
        first_error: Optional[Tuple[str, str]] = None
        dead: List[int] = []
        # Every acquired lock is released exactly once even when a pipe
        # dies mid-round (BrokenPipeError on send, EOFError on recv): a
        # leaked lock would deadlock every later command on that shard
        # instead of surfacing the worker failure.
        try:
            for index in ordered:
                command, payload = commands[index]
                self._conn_locks[index].acquire()
                held.add(index)
                try:
                    self._connections[index].send((command, payload))
                except (BrokenPipeError, OSError):
                    dead.append(index)
            # Drain every reply before raising: leaving a queued reply
            # behind would desynchronize that shard's pipe and corrupt
            # every later command on it.  A dead pipe mid-drain must not
            # abort the round either — the remaining shards' replies are
            # still queued, and skipping them would desynchronize every
            # *surviving* pipe.  Worker deaths collect into one
            # WorkerDiedError so a supervisor can restart exactly the
            # affected shards; a worker-side error is re-raised only when
            # every worker survived.
            for index in ordered:
                if index in dead:
                    self._conn_locks[index].release()
                    held.discard(index)
                    continue
                reply = None
                try:
                    reply = self._connections[index].recv()
                except (EOFError, OSError):
                    dead.append(index)
                finally:
                    self._conn_locks[index].release()
                    held.discard(index)
                if reply is None:
                    continue
                if reply[0] == "error":
                    if first_error is None:
                        first_error = (reply[1], reply[2])
                else:
                    results[index] = reply[1]
        finally:
            for index in held:
                self._conn_locks[index].release()
        if dead:
            raise WorkerDiedError(dead)
        if first_error is not None:
            _raise_remote(*first_error)
        return results

    def close(self) -> None:
        for connection in getattr(self, "_connections", []):
            try:
                connection.send(("close", None))
                connection.recv()
            except (BrokenPipeError, EOFError, OSError):
                pass
            connection.close()
        for process in getattr(self, "_processes", []):
            process.join(timeout=5)
            if process.is_alive():  # pragma: no cover - defensive teardown
                process.terminate()
        self._connections = []
        self._processes = []


EXECUTORS: Dict[str, Callable[[], ShardExecutor]] = {
    "serial": SerialExecutor,
    "thread": ThreadExecutor,
    "process": ProcessExecutor,
}
