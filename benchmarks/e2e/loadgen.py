"""The load generator: starts the served child and drives it over TCP.

One thread, one asyncio loop, exactly two ``AsyncEngineClient`` connections.
The *writer* is a closed loop of one client: the next operation is sent
after the previous acknowledgement, because callers of this API wait for
the returned version.  The *observer* holds one subscription (its mirror's
version stamps give push freshness) and issues first-page reads on a fixed
schedule — an open loop, each read timed from the instant it was due.
A session sends every operation of its fixed list: how fast the program is
decides how long that takes, never how much work is measured.
"""

from __future__ import annotations

import asyncio
import bisect
import json
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.exceptions import ReproError
from repro.net.client import AsyncEngineClient
from repro.net.protocol import unwire_pairs, wire_updates

from benchmarks.e2e.probe import UNIT_S
from benchmarks.e2e.workloads import DATABASE_SEED, PAGE_LIMIT, Inputs, Op

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
HOST = "127.0.0.1"
#: The observer's open-loop read schedule: one first-page read every 100 ms.
#: (Every 200 ms gave 75 reads a run, and the median of 75 draws from a
#: distribution as wide as a commit is long does not repeat within a tenth.)
READ_INTERVAL_S = 0.1


PUSH_TIMEOUT_S = 30.0
CHILD_TIMEOUT_S = 60.0


class ServerChild:
    """The served engine as a child process (see ``server_main.py``)."""

    def __init__(self, inputs: Inputs, wal_dir: Optional[str] = None) -> None:
        command = [
            sys.executable,
            "-m",
            "benchmarks.e2e.server_main",
            "--scenario",
            inputs.workload.scenario,
            "--seed",
            str(DATABASE_SEED),
            "--scale",
            repr(inputs.database_scale),
        ]
        if wal_dir is not None:
            command += ["--wal-dir", wal_dir]
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
        #: ``perf_counter`` stamps around the child's start, for the speed probe.
        self.spawned = time.perf_counter()
        self._process = subprocess.Popen(
            command,
            cwd=ROOT,
            env=env,
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            hello = self._read_report()
        except BaseException:
            self._process.kill()
            self._process.wait()
            raise
        self.listening = time.perf_counter()
        self.port: int = hello["port"]
        self.setup_s: float = hello["setup_s"]

    def _read_report(self) -> Dict:
        line = self._process.stdout.readline()
        if not line:
            raise RuntimeError(
                f"served child exited early (code {self._process.wait()})"
            )
        return json.loads(line)

    def stop(self) -> Dict:
        """EOF on stdin, read the exit report, wait for the process."""
        try:
            self._process.stdin.close()
            report = self._read_report()
            self._process.wait(timeout=CHILD_TIMEOUT_S)
        except BaseException:
            self._process.kill()
            self._process.wait()
            raise
        finally:
            self._process.stdout.close()
        return report


class SpeedProbe:
    """``probe.py`` as a child process; ``stop()`` turns it into speed factors."""

    def __init__(self) -> None:
        self._process = subprocess.Popen(
            [sys.executable, str(HERE / "probe.py")],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._starts: List[float] = []
        self._durations: List[float] = []

    def stop(self) -> None:
        try:
            samples, _ = self._process.communicate(input="", timeout=CHILD_TIMEOUT_S)
        except BaseException:
            self._process.kill()
            self._process.wait()
            raise
        for started, duration in json.loads(samples):
            self._starts.append(started)
            self._durations.append(duration)

    def factor(self, start: float, end: float) -> float:
        """Median unit time between two ``perf_counter`` stamps, over ``UNIT_S``.

        1.0 on an undisturbed seed-state machine, 1.5 where everything
        takes half as long again.  A window too short to hold a unit takes
        the unit nearest to it.
        """
        low = bisect.bisect_left(self._starts, start)
        high = bisect.bisect_right(self._starts, end)
        if low == high:
            low = max(0, min(low, len(self._starts) - 1))
            high = low + 1
        return statistics.median(self._durations[low:high]) / UNIT_S


@dataclass
class Drive:
    """Raw samples of one served session (seconds unless named otherwise)."""

    ops_acked: int = 0
    updates_acked: int = 0  # in the measured window
    measured_from: int = 0  # index of the first measured operation
    started: float = 0.0  # ``perf_counter`` stamps of the measured window
    ended: float = 0.0
    wall_s: float = 0.0
    commit_s: List[float] = field(default_factory=list)
    push_s: List[float] = field(default_factory=list)
    read_s: List[float] = field(default_factory=list)
    read_lag_s: List[float] = field(default_factory=list)
    ping_s: List[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    notes: List[str] = field(default_factory=list)
    mirror: Dict[Tuple, int] = field(default_factory=dict)
    final_page: List[Tuple[Tuple, int]] = field(default_factory=list)

    def fail(self, note: str, operations: int = 1) -> None:
        self.failed += operations
        self.notes.append(note)


async def _first_page(client: AsyncEngineClient) -> Tuple[List, bool, float]:
    """``snapshot_open`` + one page; returns when the page arrived."""
    opened = await client.request("snapshot_open")
    page = await client.request("snapshot_page", snap=opened["snap"], limit=PAGE_LIMIT)
    arrived = time.perf_counter()
    await client.request("snapshot_close", snap=opened["snap"])
    return unwire_pairs(page["pairs"]), bool(page["done"]), arrived


def _page_is_sound(pairs: List, done: bool) -> bool:
    distinct = len({tup for tup, _ in pairs}) == len(pairs)
    return distinct and all(m > 0 for _, m in pairs) and (done or len(pairs) == PAGE_LIMIT)


async def _drive(port: int, inputs: Inputs, ops: List[Op], guard_s: float, pings: int) -> Drive:
    clock = time.perf_counter
    workload = inputs.workload
    out = Drive()
    writer = await AsyncEngineClient.connect(HOST, port)
    observer = await AsyncEngineClient.connect(HOST, port)
    try:
        mirror = await observer.subscribe()
        base_version = mirror.version
        seen: List[Tuple[int, float]] = []
        apply_push = mirror.apply

        def stamped_apply(message: Dict) -> None:
            apply_push(message)
            seen.append((mirror.version, clock()))

        mirror.apply = stamped_apply

        for _ in range(pings):
            started = clock()
            await writer.request("ping")
            out.ping_s.append(clock() - started)

        async def send(index: int) -> None:
            op = ops[index]
            if workload.batch_size == 1:
                reply = await writer.request("apply_update", update=wire_updates(op)[0])
            else:
                reply = await writer.request("apply_batch", updates=wire_updates(op))
            out.attempted += 1
            if int(reply["version"]) != base_version + index + 1:
                out.fail(f"op {index}: acked version {reply['version']}")

        stop_reads = asyncio.Event()

        async def read_on_schedule(origin: float) -> None:
            tick = 0
            while True:
                due = origin + tick * READ_INTERVAL_S
                tick += 1
                try:
                    await asyncio.wait_for(stop_reads.wait(), max(0.0, due - clock()))
                    return
                except asyncio.TimeoutError:
                    pass
                sent = clock()
                out.attempted += 1
                try:
                    pairs, done, arrived = await _first_page(observer)
                except ReproError as exc:
                    out.fail(f"read {tick}: {exc}")
                    continue
                if not _page_is_sound(pairs, done):
                    out.fail(f"read {tick}: malformed first page")
                    continue
                out.read_s.append(arrived - due)
                out.read_lag_s.append(sent - due)

        warmup = min(int(workload.warmup_ops * inputs.scale), len(ops) - 1)
        index = 0
        while index < warmup:
            await send(index)
            index += 1
        out.measured_from = warmup
        sent_at: List[float] = []
        first_send = clock()
        reader = asyncio.get_running_loop().create_task(read_on_schedule(first_send))
        try:
            try:
                while index < len(ops):
                    started = clock()
                    if started - first_send > guard_s:
                        # The list is fixed; only a program several times
                        # slower than the seed state gets here.
                        out.attempted += len(ops) - index
                        out.fail(
                            f"{len(ops) - index} of {len(ops)} operations not sent "
                            f"within {guard_s:.0f} s",
                            len(ops) - index,
                        )
                        break
                    await send(index)
                    out.commit_s.append(clock() - started)
                    sent_at.append(started)
                    index += 1
            except ReproError as exc:
                out.attempted += 1
                out.fail(f"op {index}: {exc}")
            last_ack = clock()
            out.ops_acked = index
            out.updates_acked = sum(len(op) for op in ops[warmup:index])
            if not await mirror.wait_for_version(base_version + index, PUSH_TIMEOUT_S):
                out.fail(f"mirror stuck at version {mirror.version}")
        finally:
            stop_reads.set()
            await reader
        out.started = first_send
        out.ended = max(last_ack, seen[-1][1] if seen else last_ack)
        out.wall_s = out.ended - out.started

        cursor = 0
        for offset, started in enumerate(sent_at):
            version = base_version + warmup + offset + 1
            while cursor < len(seen) and seen[cursor][0] < version:
                cursor += 1
            if cursor == len(seen):
                out.fail(f"op {warmup + offset}: never pushed")
                break
            out.push_s.append(seen[cursor][1] - started)

        out.final_page, _, _ = await _first_page(observer)
        out.mirror = dict(mirror.result)
    finally:
        await writer.close()
        await observer.close()
    return out


def drive(port: int, inputs: Inputs, ops: List[Op], guard_s: float, pings: int = 0) -> Drive:
    """One served session: every operation of ``ops`` against a listening child.

    The first ``warmup_ops`` are untimed.  ``guard_s`` only bounds the run
    time of a program that has become several times slower: operations
    not sent by then are failed.
    """
    return asyncio.run(_drive(port, inputs, ops, guard_s, pings))
