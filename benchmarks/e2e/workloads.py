"""The four named workloads: inputs from a seed, and the oracle they are checked against.

A workload is a registered :mod:`repro.workloads.scenarios` scenario plus a
fixed way of cutting its update stream into operations.  Everything here is
a pure function of ``(workload, seed, seconds, scale)``: the parent process
builds the operation lists, the served child rebuilds only the initial
database, and the oracle replays a list onto a private copy.

A run is :data:`SESSIONS` served sessions, each a fresh child fed its own
fixed-length operation list.  The *number* of operations is set by the
workload and ``--seconds`` alone, never by how fast the program is, so the
work measured is identical on both sides of any later comparison.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

from repro.core.planner import coerce_query
from repro.data.database import Database
from repro.data.update import Update
from repro.engine.evaluator import evaluate_query_naive
from repro.workloads.scenarios import get_scenario

Op = List[Update]

#: A "first page" is this many result tuples, over the wire and in the ladder.
PAGE_LIMIT = 100

#: Served sessions per run: each a fresh child (one ``setup_s`` and one
#: ``server_rss_mb`` sample) fed its own operation list.
SESSIONS = 3

#: The initial database is one fixed data set per scenario; ``--seed`` varies
#: the traffic.  The scenarios' generators put most of their variance into
#: the data (hub degrees, how close the hot key starts to the threshold), and
#: a benchmark whose inputs differ twofold between seeds cannot resolve a 10 %
#: change in the program.
DATABASE_SEED = 7


@dataclass(frozen=True)
class Workload:
    """One traffic mix.  ``batch_size == 1`` means ``apply_update`` ops."""

    name: str
    scenario: str
    #: Multiplier on the scenario's row counts.
    scale: float
    batch_size: int
    durable: bool
    #: Operations acknowledged per second at the seed state.  It only sizes
    #: the lists (``ops_per_second * seconds`` measured operations per run),
    #: so that a run at the seed state measures for about ``--seconds``.
    ops_per_second: float
    #: Operations each ladder rung replays per second of ``--seconds``.
    trace_ops_per_second: float
    #: Untimed operations before a session's measured window opens.
    warmup_ops: int
    why: str


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="single_durable",
            scenario="retail",
            scale=1.0,
            batch_size=1,
            durable=True,
            ops_per_second=400,
            trace_ops_per_second=100,
            warmup_ops=100,
            why=(
                "single-tuple commits with the WAL on: fixed per-commit costs "
                "(net, serving, snapshot, durability) dominate, ivm is minor"
            ),
        ),
        Workload(
            name="batch_ingest",
            scenario="adversarial",
            scale=1.0,
            batch_size=100,
            durable=False,
            ops_per_second=140,
            trace_ops_per_second=15,
            warmup_ops=10,
            why=(
                "heavy/light flip-flop in batches of 100: per-commit costs "
                "amortise 100x, so ivm/data and minor rebalancing dominate"
            ),
        ),
        Workload(
            name="fanout_delta",
            scenario="fraud",
            # At 1.0 the subscriber's initial full read alone takes 12 s
            # (130k tuples at ~90 us each) and a commit 0.3 s, so a run
            # holds too few commits for a median that repeats.  At 0.25 a
            # commit of five flags still changes ~3k result tuples (a 45 KB
            # push frame) and a run holds ~600 of them.
            scale=0.25,
            # Not single flags: a quarter of them hit the one hub transaction
            # (2.2k result tuples), the median one a mid-rank transaction
            # whose fan-out is a step function of the seed.  Five flags per
            # commit put the median commit inside the "one hub hit" mode.
            batch_size=5,
            durable=False,
            ops_per_second=43,
            trace_ops_per_second=6,
            warmup_ops=4,
            why=(
                "five flags per commit on a delta-2 star, each commit changing "
                "thousands of result tuples: delta capture, push encoding, the subscriber path"
            ),
        ),
        Workload(
            name="read_while_write",
            scenario="hot_shard",
            scale=1.0,
            # Single updates, not batches: the stream deletes at random from
            # what it has inserted so far, so inside a batch a seed-dependent
            # share of the updates cancel before they reach the engine (a
            # third in batches of 50; in batches of 10 the net updates per
            # commit still differ by 8 % between streams, and commit time
            # with them).  A single update cannot cancel, and the
            # per-commit snapshot work this workload is about weighs most.
            batch_size=1,
            durable=False,
            ops_per_second=100,
            trace_ops_per_second=25,
            warmup_ops=20,
            why=(
                "open-loop first-page reads over a 140k-tuple result while "
                "single updates rewrite it: snapshot copy-on-write and enumeration"
            ),
        ),
    )
}


@dataclass
class Inputs:
    """Everything generated from ``(workload, seed, seconds, scale)``.

    ``scale`` shrinks the database for smoke passes (1.0 otherwise): it is
    built at ``database_scale = workload.scale * scale``.  ``sessions[i]`` is
    the operation list of the run's i-th served session, warm-up first.
    """

    workload: Workload
    seed: int
    scale: float
    query: str
    database: Database
    sessions: List[List[Op]]

    @property
    def database_scale(self) -> float:
        return self.workload.scale * self.scale

    def sha256(self) -> str:
        """Digest of the operation lists (stamped into full-run results)."""
        digest = hashlib.sha256()
        for ops in self.sessions:
            for op in ops:
                for u in op:
                    digest.update(repr((u.relation, u.tuple, u.multiplicity)).encode())
                digest.update(b"|")
            digest.update(b"#")
        return digest.hexdigest()


def build_inputs(workload: Workload, seed: int, seconds: float, scale: float = 1.0) -> Inputs:
    """``SESSIONS`` independent streams over the one database.

    Each session starts from the initial database, so each gets a stream of
    its own (sub-seed ``seed * SESSIONS + i``): a run then covers
    ``SESSIONS`` times as much distinct traffic as one list replayed.
    """
    scenario = get_scenario(workload.scenario)
    database = scenario.make_database(DATABASE_SEED, workload.scale * scale)
    measured = max(1, round(workload.ops_per_second * seconds / SESSIONS))
    size = workload.batch_size
    count = (workload.warmup_ops + measured) * size
    sessions = []
    for index in range(SESSIONS):
        stream = list(scenario.make_stream(database, count, seed * SESSIONS + index))
        if len(stream) < count:
            raise ValueError(f"{workload.scenario} made {len(stream)} of {count} updates")
        sessions.append([stream[i : i + size] for i in range(0, count, size)])
    return Inputs(workload, seed, scale, scenario.query, database, sessions)


def apply_ops(database: Database, ops: Sequence[Op]) -> None:
    """Apply operations to a bare database (no engine), in order."""
    for op in ops:
        for u in op:
            database.relation(u.relation).apply_delta(u.tuple, u.multiplicity)


def oracle_result(inputs: Inputs, ops: Sequence[Op]) -> Dict[Tuple, int]:
    """The naive query result after ``ops`` on the initial database."""
    database = inputs.database.copy()
    apply_ops(database, ops)
    return dict(evaluate_query_naive(coerce_query(inputs.query), database).items())
