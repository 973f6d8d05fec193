"""The ladder: one workload replayed in-process through successively taller stacks.

Each rung replays the identical operation prefix, single-threaded, through
a stack built only from public constructors::

    data -> ivm -> ivm.capture -> snapshot -> core.serving    (durability: beside snapshot)

and every operation at every rung records a span
``[layer, workload, op_index, start_ns, end_ns, parent_layer]`` (times
relative to the start of the ladder).  A layer's self time is its rung
minus the rung below; the codec calls, the first-page reads and the sharded
replays are timed beside the rungs, outside any operation's span.  One
rung is alive at a time, as one engine is in the served process: with all
of them resident the collector's full passes, which walk every live
container, cost each rung several times what the served engine pays.
Nothing under ``src/`` is instrumented: every number is the wall-clock of
a call into a layer's public function, so the rungs do not see thread
hand-offs, the event loop or the socket — ``trace.unattributed_share`` is
what that leaves out.
"""

from __future__ import annotations

import gc
import json
import os
import statistics
import time
from contextlib import nullcontext
from itertools import islice
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.timing import measure_enumeration_delay
from repro.core.api import HierarchicalEngine
from repro.core.serving import EngineServer
from repro.data.relation import storage_backend
from repro.durability.manager import DurabilityConfig
from repro.net.protocol import (
    HEADER,
    decode_payload,
    encode_frame,
    unwire_pairs,
    unwire_updates,
    wire_pairs,
    wire_updates,
)
from repro.sharding import ShardedEngine
from repro.workloads.scenarios import get_scenario

from benchmarks.e2e.workloads import DATABASE_SEED, PAGE_LIMIT, Inputs, Op, apply_ops

DELAY_LIMIT = 1_000
#: First-page reads of the published snapshot per ladder, spread evenly.
#: Few, because a snapshot that has been read is cheaper for the next
#: commit to copy away from: reading at every commit flatters the rung.
SNAPSHOT_READS = 10

clock = time.perf_counter_ns


class SpanLog:
    """Spans kept in memory; written out once, when the benchmark ends."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.origin = clock()
        self.rows: List[Tuple] = []

    def add(self, layer: str, op: int, start: int, end: int, parent: Optional[str]) -> None:
        self.rows.append(
            (layer, self.workload, op, start - self.origin, end - self.origin, parent)
        )

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for row in self.rows:
                handle.write(json.dumps(row, separators=(",", ":")) + "\n")


def _applier(target, single: bool) -> Callable[[Op], None]:
    """One operation through an engine, a sharded engine or an EngineServer."""
    one = getattr(target, "apply_update", None) or target.apply
    if single:
        return lambda op: one(op[0])
    return target.apply_batch


def _push_frame(version: int, delta: Dict) -> bytes:
    """The frame a subscriber receives for one commit's result delta."""
    return encode_frame(
        {"sub": 1, "kind": "delta", "version": version, "delta": wire_pairs(delta.items())}
    )


def _first_page_ns(enumerate_fn: Callable) -> int:
    started = clock()
    for _ in islice(enumerate_fn(), PAGE_LIMIT):
        pass
    return clock() - started


class DataRung:
    """The operations' deltas applied to a bare database, no engine."""

    def __init__(self, ladder: "Ladder", backend: Optional[str]) -> None:
        scenario = get_scenario(ladder.inputs.workload.scenario)
        self.spans = ladder.spans if backend is None else None
        self.total = 0
        with storage_backend(backend) if backend else nullcontext():
            self.database = scenario.make_database(DATABASE_SEED, ladder.inputs.database_scale)

    def step(self, index: int, op: Op) -> None:
        started = clock()
        apply_ops(self.database, (op,))
        ended = clock()
        if self.spans is not None:
            self.spans.add("data", index, started, ended, "ivm")
        self.total += ended - started

    def close(self) -> None:
        pass


class EngineRung:
    """``engine.apply*`` per op, optionally with capture, snapshots, a WAL."""

    def __init__(
        self,
        ladder: "Ladder",
        layer: str,
        parent: str,
        capture: bool = False,
        snapshots: bool = False,
        wal: Optional[str] = None,
    ) -> None:
        self.ladder = ladder
        self.layer = layer
        self.parent = parent
        self.capture = capture
        self.snapshots = snapshots
        self.engine = ladder.engine(wal)
        self.apply = _applier(self.engine, ladder.single)
        if capture:
            self.engine.set_delta_capture(True)
        self.held = None
        self.total = 0
        self.snapshot_total = 0
        #: Measured beside the ops, outside their spans (capture rung only).
        self.codecs = capture and not snapshots and wal is None
        self.codec_totals = dict.fromkeys(
            ("request_codec", "request_bytes", "push_codec", "push_bytes", "delta_tuples"), 0
        )
        #: First-page reads of the snapshot just published (snapshot rung only).
        self.read_every = max(1, len(ladder.ops) // SNAPSHOT_READS) if layer == "snapshot" else 0
        self.page_reads: List[int] = []

    def step(self, index: int, op: Op) -> None:
        spans = self.ladder.spans
        started = clock()
        self.apply(op)
        delta = self.engine.drain_result_delta() if self.capture else None
        applied = clock()
        ended = applied
        if self.snapshots:
            fresh = self.engine.snapshot()
            if self.held is not None:
                self.held.close()
            self.held = fresh
            ended = clock()
            spans.add("snapshot.capture", index, applied, ended, self.layer)
            self.snapshot_total += ended - applied
        spans.add(self.layer, index, started, ended, self.parent)
        self.total += ended - started
        if self.codecs:
            self._codecs(index, op, delta)
        if self.read_every and index % self.read_every == 0:
            began = clock()
            self.page_reads.append(_first_page_ns(self.held.enumerate))
            spans.add("snapshot.read", index, began, clock(), None)

    def _codecs(self, index: int, op: Op, delta: Dict) -> None:
        """Both directions of the wire format for one commit, both sides."""
        totals = self.codec_totals
        started = clock()
        if self.ladder.single:
            frame = encode_frame({"op": "apply_update", "id": index, "update": wire_updates(op)[0]})
            unwire_updates([decode_payload(frame[HEADER.size :])["update"]])
        else:
            frame = encode_frame({"op": "apply_batch", "id": index, "updates": wire_updates(op)})
            unwire_updates(decode_payload(frame[HEADER.size :])["updates"])
        middle = clock()
        push = _push_frame(index, delta)
        unwire_pairs(decode_payload(push[HEADER.size :])["delta"])
        ended = clock()
        self.ladder.spans.add("net.request_codec", index, started, middle, "net")
        self.ladder.spans.add("net.push_codec", index, middle, ended, "net")
        totals["request_codec"] += middle - started
        totals["request_bytes"] += len(frame)
        totals["push_codec"] += ended - middle
        totals["push_bytes"] += len(push)
        totals["delta_tuples"] += len(delta)

    def close(self) -> None:
        if self.held is not None:
            self.held.close()
        self.engine.close()


class ServingRung:
    """``EngineServer.apply*`` with a listener that encodes the push frame."""

    def __init__(self, ladder: "Ladder") -> None:
        self.spans = ladder.spans
        self.engine = ladder.engine(None)
        server = EngineServer(self.engine, mode="snapshot")
        server.on_commit(self._encode_push)
        self.apply = _applier(server, ladder.single)
        self.total = 0
        self.encoding = 0  # time inside the listener, part of ``total``

    def _encode_push(self, version: int, delta: Dict) -> None:
        started = clock()
        _push_frame(version, delta)
        self.encoding += clock() - started

    def step(self, index: int, op: Op) -> None:
        started = clock()
        self.apply(op)
        ended = clock()
        self.spans.add("core.serving", index, started, ended, "net")
        self.total += ended - started

    def close(self) -> None:
        self.engine.close()


class ShardedRung:
    """The same operations through a four-shard engine, in-process."""

    def __init__(self, ladder: "Ladder", executor: str) -> None:
        self.engine = ShardedEngine(ladder.inputs.query, shards=4, executor=executor)
        self.engine.load(ladder.inputs.database)
        self.apply = _applier(self.engine, ladder.single)
        self.total = 0

    def step(self, index: int, op: Op) -> None:
        started = clock()
        self.apply(op)
        self.total += clock() - started

    def close(self) -> None:
        self.engine.close()


class Ladder:
    """Replays ``ops`` through every rung and turns the totals into metrics."""

    def __init__(self, inputs: Inputs, ops: Sequence[Op], work_dir: Path) -> None:
        self.inputs = inputs
        self.ops = ops
        self.work_dir = work_dir
        self.single = inputs.workload.batch_size == 1
        self.spans = SpanLog(inputs.workload.name)

    def engine(self, wal: Optional[str]) -> HierarchicalEngine:
        durability = None
        if wal is not None:
            durability = DurabilityConfig(os.path.join(self.work_dir, wal))
        engine = HierarchicalEngine(self.inputs.query, durability=durability)
        return engine.load(self.inputs.database)

    def _replay(self, rung, probe: Optional[Callable] = None):
        """Every operation through one rung; ``probe`` sees it before it closes."""
        gc.collect()  # the previous rung's garbage is not this rung's cost
        try:
            for index, op in enumerate(self.ops):
                rung.step(index, op)
            if probe is not None:
                probe(rung)
        finally:
            rung.close()
        return rung

    def run(self) -> Dict[str, float]:
        commits = len(self.ops)
        updates = sum(len(op) for op in self.ops)
        values: Dict[str, float] = {}

        def probe_durability(rung: EngineRung) -> None:
            stats = rung.engine.durability_stats
            values["durability.wal_bytes_per_commit"] = stats.wal_bytes / commits
            values["durability.checkpoints"] = stats.checkpoints_written

        data = self._replay(DataRung(self, None))
        data_dict = self._replay(DataRung(self, "dict"))
        ivm = self._replay(
            EngineRung(self, "ivm", "ivm.capture"),
            lambda rung: values.update(self._probe_live_engine(rung.engine)),
        )
        capture = self._replay(EngineRung(self, "ivm.capture", "snapshot", capture=True))
        snapshot = self._replay(
            EngineRung(self, "snapshot", "core.serving", capture=True, snapshots=True)
        )
        # The WAL rung stands beside the ladder, not in it: fsync and
        # checkpoint times are too uneven to subtract a rung above them.
        # It is measured on every workload so the layer's cost is known
        # everywhere; only a durable workload's served run pays it.
        wal = self._replay(
            EngineRung(self, "durability", "core.serving", capture=True, snapshots=True, wal="wal"),
            probe_durability,
        )
        serving = self._replay(ServingRung(self))
        serial = self._replay(ShardedRung(self, "serial"))
        threads = self._replay(ShardedRung(self, "thread"))

        durability = wal.total - snapshot.total
        codec = capture.codec_totals
        per_commit = 1 / commits / 1e3  # ns totals -> us per commit
        per_update = 1 / updates / 1e3
        values.update(
            {
                "data.apply_us_per_update": data.total * per_update,
                "data.dict_apply_us_per_update": data_dict.total * per_update,
                "ivm.maintain_us_per_update": ivm.total * per_update,
                "ivm.capture_us_per_commit": (capture.total - ivm.total) * per_commit,
                "ivm.delta_tuples_per_commit": codec["delta_tuples"] / commits,
                "snapshot.capture_us_per_commit": snapshot.snapshot_total * per_commit,
                "snapshot.cow_us_per_commit": (
                    snapshot.total - snapshot.snapshot_total - capture.total
                ) * per_commit,
                "snapshot.read_first_page_us": statistics.median(snapshot.page_reads) / 1e3,
                "durability.commit_us_per_commit": durability * per_commit,
                "core.serving.commit_us_per_commit": (
                    serving.total - serving.encoding - snapshot.total
                ) * per_commit,
                "net.request_codec_us_per_commit": codec["request_codec"] * per_commit,
                "net.request_bytes_per_commit": codec["request_bytes"] / commits,
                "net.push_codec_us_per_commit": codec["push_codec"] * per_commit,
                "net.push_bytes_per_commit": codec["push_bytes"] / commits,
                "sharding.serial_us_per_update": serial.total * per_update,
                "sharding.thread_us_per_update": threads.total * per_update,
                # What the rungs explain of one served commit: the serving
                # rung (push encoding counted once, with the codec), the
                # WAL where the served engine has one, and both codecs.
                "_attributed_us_per_commit": (
                    (serving.total - serving.encoding)
                    + (durability if self.inputs.workload.durable else 0)
                    + codec["request_codec"]
                    + codec["push_codec"]
                ) * per_commit,
            }
        )
        return values

    @staticmethod
    def _probe_live_engine(engine: HierarchicalEngine) -> Dict[str, float]:
        """Enumeration, view size and rebalance counts after the bare replay."""
        pages = [_first_page_ns(engine.enumerate) for _ in range(5)]
        delay, _ = measure_enumeration_delay(engine, limit=DELAY_LIMIT)
        stats = engine.rebalance_stats
        return {
            "enumeration.first_page_us": statistics.median(pages) / 1e3,
            "enumeration.delay_p50_us": delay.median * 1e6,
            "enumeration.delay_max_us": delay.maximum * 1e6,
            "views.view_tuples": engine.view_size(),
            "ivm.minor_rebalances": stats.minor_rebalances,
            "ivm.major_rebalances": stats.major_rebalances,
        }
