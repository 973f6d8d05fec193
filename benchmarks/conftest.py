"""Shared infrastructure for the benchmark suite.

Every benchmark reproduces one figure of the paper.  Besides the
pytest-benchmark timings, each benchmark computes the figure's rows/series
and records them through the :func:`figure_report` fixture; the recorded
tables are printed in the terminal summary (so they appear in
``bench_output.txt``) and, at full scale only, written to
``benchmarks/results/<name>.txt``.

Benchmarks are sized to finish in a few minutes on a laptop; the sizes can be
scaled through the ``REPRO_BENCH_SCALE`` environment variable (a float
multiplier applied to database sizes).  The committed tables under
``benchmarks/results/`` are the full-scale (1.0) ones that
``BENCH_trajectory.json`` cites: a run at any other scale — ``make
bench-gate``, ``make bench-smoke`` — prints its tables and leaves them alone.
"""

from __future__ import annotations

import os
from pathlib import Path
from typing import Dict, List, Mapping, Sequence

import pytest

from repro.bench.reporting import format_table

RESULTS_DIR = Path(__file__).resolve().parent / "results"

_RECORDED: List[str] = []


def bench_scale() -> float:
    """Global size multiplier for the benchmark workloads."""
    try:
        return float(os.environ.get("REPRO_BENCH_SCALE", "1.0"))
    except ValueError:  # pragma: no cover - defensive
        return 1.0


def scaled(size: int) -> int:
    """Scale a workload size by the global multiplier (at least 10)."""
    return max(10, int(size * bench_scale()))


class FigureReport:
    """Collects the tables of one benchmark module."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.sections: List[str] = []

    def record(self, title: str, rows: Sequence[Mapping[str, object]]) -> str:
        text = format_table(rows, title=title)
        self.sections.append(text)
        _RECORDED.append(text)
        if bench_scale() == 1.0:
            RESULTS_DIR.mkdir(exist_ok=True)
            path = RESULTS_DIR / f"{self.name}.txt"
            path.write_text("\n\n".join(self.sections) + "\n")
        return text


def make_update_cycler(engine, relation: str, arity: int, domain: int, seed: int = 0):
    """A zero-argument callable applying one safe single-tuple update per call.

    pytest-benchmark invokes the callable an unbounded number of times, so
    replaying a finite recorded stream would eventually issue rejected
    deletes.  The cycler instead alternates inserts of fresh random tuples
    with deletes of tuples it inserted earlier: every call is valid and the
    database size stays roughly constant across rounds.
    """
    import random

    rng = random.Random(seed)
    inserted: List[tuple] = []
    state = {"i": 0}

    def one_update() -> None:
        index = state["i"]
        state["i"] += 1
        if inserted and index % 2 == 1:
            tup = inserted.pop()
            engine.update(relation, tup, -1)
        else:
            tup = tuple(rng.randrange(domain) for _ in range(arity))
            inserted.append(tup)
            engine.update(relation, tup, 1)

    return one_update


def make_batch_cycler(
    engine, relation: str, arity: int, domain: int, batch_size: int, seed: int = 0
):
    """A zero-argument callable applying one safe consolidated batch per call.

    The batched analogue of :func:`make_update_cycler`: each call builds a
    batch of ``batch_size`` alternating fresh inserts and deletes of tuples
    inserted by *previous* batches and ingests it through ``apply_batch``.
    Deleting only pre-batch tuples matters: an insert/delete pair of the
    same tuple inside one batch would cancel during consolidation, and the
    benchmark would be timing empty batches.  After the first (insert-only)
    call the database size stays roughly constant across rounds.
    """
    import random

    from repro.data.update import Update, UpdateBatch

    rng = random.Random(seed)
    inserted: List[tuple] = []
    state = {"i": 0}

    def one_batch() -> None:
        batch = UpdateBatch()
        deletable = len(inserted)  # tuples that predate this batch
        for _ in range(batch_size):
            index = state["i"]
            state["i"] += 1
            if deletable > 0 and index % 2 == 1:
                deletable -= 1
                batch.add(Update(relation, inserted.pop(0), -1))
            else:
                tup = tuple(rng.randrange(domain) for _ in range(arity))
                inserted.append(tup)
                batch.add(Update(relation, tup, 1))
        engine.apply_batch(batch)

    return one_batch


@pytest.fixture(scope="module")
def figure_report(request) -> FigureReport:
    """One report collector per benchmark module."""
    module_name = request.module.__name__.split(".")[-1]
    return FigureReport(module_name)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Print every recorded figure table at the end of the run."""
    if not _RECORDED:
        return
    terminalreporter.section("paper figure reproductions")
    for text in _RECORDED:
        terminalreporter.write_line("")
        for line in text.splitlines():
            terminalreporter.write_line(line)
