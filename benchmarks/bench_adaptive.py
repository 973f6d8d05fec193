"""Adaptive ε retuning vs every fixed ε on phase-shifting traffic.

The paper's ε knob is a per-phase decision, not a per-deployment one: a
write burst wants small ε (updates ``O(N^{δε})``), a read-heavy serving
phase wants large ε (delay ``O(N^{1−ε})``).  The ``phase_shift`` scenario
alternates the two over hot join keys sized so that *every* fixed ε loses
some phase — small ε serves pages through the all-heavy regime's per-tuple
lookups, large ε pays ``O(degree)`` view propagation per hot-key update.

The adaptive engine runs the same op sequence with an
:class:`~repro.adaptive.AdaptiveController` consulted after every op: EWMA
telemetry detects the phase, the ``expected_exponents`` cost model prices
the candidate grid, and a hysteresis bar decides when a retune (one
major-rebalance pass) is worth it.

The recorded table asserts the headline claims on ``phase_shift``:

* adaptive total wall-clock is at least **2× better than the worst fixed
  ε**, and
* within **20% of the best fixed ε** (in the recorded runs it beats the
  best outright: the write phases run at the small-ε rate, the read phases
  at the large-ε rate, and a handful of retunes is cheaper than the gap).

A second table records the ``read_burst`` scenario — one regime change —
where a single retune must rescue an ingestion-tuned engine.
"""

import time

import pytest

from repro import AdaptiveController, HierarchicalEngine
from repro.workloads import (
    PHASE_SHIFT_QUERY,
    phase_shift_database,
    phase_shift_ops,
    read_burst_ops,
)
from benchmarks.conftest import scaled

SIZE = scaled(1200)
# Never scaled below the default: each phase change costs the adaptive engine
# one slow read and one retune (~0.25 s a run, whatever the scale), and what
# pays for them is writing at the small-ε rate — ~0.04 ms saved per write on
# this database, so the saving only shows over several thousand writes.
WRITES_PER_PHASE = max(scaled(4000), 4000)
READS_PER_PHASE = 25
# Re-anchored when enumeration was compiled per view-tree shape: a page of
# 100 used to cost the all-heavy regime ~90 ms, nearly all of it opening
# (and re-opening) every bucket, which the compiled plans do once and
# lazily.  What is left is the delay the paper bounds, O(N^{1-ε}) per
# *tuple*, so the pages are long enough for it to weigh against
# WRITES_PER_PHASE writes again; the event count, which the controller's
# cooldown is sized by, is unchanged.
READ_LIMIT = 2000
PHASES = 4
EPSILON_GRID = (0.0, 0.5, 1.0)
# The adaptive grid keeps the interior point: the cost model scales
# observed costs by asymptotic N^Δ ratios, which over-estimates far moves
# (deliberate damping), so ε = 0.5 is the stepping stone that lets the
# controller escape the all-heavy regime as soon as reads appear.
ADAPTIVE_GRID = EPSILON_GRID
ADAPTIVE_START = 0.5
ATTEMPTS = 2  # best-of-N: noise on a busy host only ever inflates a run


def _consume(engine, limit):
    produced = 0
    for _ in engine.enumerate():
        produced += 1
        if produced >= limit:
            break


def _run_ops(epsilon, database, ops, adaptive):
    engine = HierarchicalEngine(PHASE_SHIFT_QUERY, epsilon=epsilon)
    engine.load(database)
    controller = (
        # cooldown > the read-phase event count: at most one retune per
        # phase, so the controller cannot thrash inside a mixed phase
        AdaptiveController(
            engine, epsilons=ADAPTIVE_GRID, hysteresis=2.0, cooldown=48
        )
        if adaptive
        else None
    )
    started = time.perf_counter()
    for kind, payload in ops:
        if kind == "write":
            engine.apply(payload)
        else:
            _consume(engine, payload)
        if controller is not None:
            controller.maybe_retune()
    elapsed = time.perf_counter() - started
    return elapsed, engine, controller


def _best_of(epsilon, database, ops, adaptive):
    """Fastest of ATTEMPTS fresh runs (scheduling spikes only slow a run)."""
    best = None
    for _ in range(ATTEMPTS):
        attempt = _run_ops(epsilon, database, ops, adaptive)
        if best is None or attempt[0] < best[0]:
            best = attempt
    return best


def _ops_table(database, ops, figure_report, title):
    writes = sum(1 for kind, _payload in ops if kind == "write")
    reads = len(ops) - writes
    rows = []
    for epsilon in EPSILON_GRID:
        elapsed, engine, _controller = _best_of(epsilon, database, ops, False)
        rows.append(
            {
                "engine": f"fixed(eps={epsilon})",
                "total_s": elapsed,
                "final_eps": engine.epsilon,
                "retunes": engine.rebalance_stats.retunes,
                "major_rebalances": engine.rebalance_stats.major_rebalances,
                "read_s": engine.telemetry.read_seconds,
                "write_s": engine.telemetry.update_seconds,
            }
        )
    elapsed, engine, controller = _best_of(ADAPTIVE_START, database, ops, True)
    rows.append(
        {
            "engine": f"adaptive(start={ADAPTIVE_START})",
            "total_s": elapsed,
            "final_eps": engine.epsilon,
            "retunes": engine.rebalance_stats.retunes,
            "major_rebalances": engine.rebalance_stats.major_rebalances,
            "read_s": engine.telemetry.read_seconds,
            "write_s": engine.telemetry.update_seconds,
        }
    )
    fixed_totals = [row["total_s"] for row in rows[:-1]]
    for row in rows:
        row["vs_best_fixed"] = row["total_s"] / min(fixed_totals)
        row["vs_worst_fixed"] = row["total_s"] / max(fixed_totals)
    figure_report.record(
        f"{title} ({writes} writes, {reads} page reads of {READ_LIMIT}, "
        f"N={database.size}, grid={EPSILON_GRID})",
        rows,
    )
    return rows


@pytest.fixture(scope="module")
def phase_shift_rows(figure_report):
    database = phase_shift_database(size=SIZE, seed=101)
    ops = phase_shift_ops(
        database,
        phases=PHASES,
        writes_per_phase=WRITES_PER_PHASE,
        reads_per_phase=READS_PER_PHASE,
        read_limit=READ_LIMIT,
        seed=102,
    )
    return _ops_table(
        database, ops, figure_report, "Adaptive vs fixed epsilon on phase_shift"
    )


@pytest.fixture(scope="module")
def read_burst_rows(figure_report):
    database = phase_shift_database(size=SIZE, seed=111)
    ops = read_burst_ops(
        database,
        writes=2 * WRITES_PER_PHASE,
        reads=2 * READS_PER_PHASE,
        read_limit=READ_LIMIT,
        seed=112,
    )
    return _ops_table(
        database, ops, figure_report, "Adaptive vs fixed epsilon on read_burst"
    )


def _by_engine(rows):
    return {row["engine"]: row for row in rows}


def test_adaptive_beats_worst_fixed_by_2x(phase_shift_rows, benchmark):
    benchmark(lambda: None)
    adaptive = phase_shift_rows[-1]
    worst = max(row["total_s"] for row in phase_shift_rows[:-1])
    assert adaptive["engine"].startswith("adaptive")
    assert worst >= 2.0 * adaptive["total_s"]


def test_adaptive_within_20pct_of_best_fixed(phase_shift_rows, benchmark):
    benchmark(lambda: None)
    adaptive = phase_shift_rows[-1]
    best = min(row["total_s"] for row in phase_shift_rows[:-1])
    assert adaptive["total_s"] <= 1.2 * best


def test_adaptive_actually_retuned(phase_shift_rows, benchmark):
    """The win must come from retuning, not from a lucky fixed start."""
    benchmark(lambda: None)
    adaptive = phase_shift_rows[-1]
    assert adaptive["retunes"] >= PHASES - 1
    for row in phase_shift_rows[:-1]:
        assert row["retunes"] == 0


def test_read_burst_recovered_by_retuning(read_burst_rows, benchmark):
    """One regime change: adaptive must escape the slow-read regime."""
    benchmark(lambda: None)
    adaptive = read_burst_rows[-1]
    worst = max(row["total_s"] for row in read_burst_rows[:-1])
    assert adaptive["retunes"] >= 1
    assert worst >= 1.5 * adaptive["total_s"]
