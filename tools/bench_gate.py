"""Benchmark gate: re-run the asserted throughput claims so they cannot rot.

Eight benchmark modules assert headline performance ratios and record their
tables under ``benchmarks/results/``:

* ``bench_batch_updates``      — batched ingestion ≥ 2× single-update path;
* ``bench_sharded_scaling``    — 4 shards ≥ 2× 1 shard on ``hot_shard``;
* ``bench_concurrent_serving`` — 4 snapshot readers ≥ 2× the serialized
  read-after-write loop;
* ``bench_adaptive``           — adaptive ε ≥ 2× the worst fixed ε and
  within 20% of the best fixed ε on ``phase_shift``;
* ``bench_durability``         — WAL-on batched ingestion ≤ 1.3× per tuple,
  checkpointed recovery ≤ 0.5× replaying the whole WAL;
* ``bench_subscriptions``      — every one of 200 concurrent push
  subscribers reproduces the oracle from per-commit deltas (ratio 1.0),
  with per-subscriber queue memory bounded under backpressure;
* ``bench_reshard``            — online 2→4 reshard under a live writer:
  longest writer stall ≤ 0.6× the reshard wall-clock, and post-reshard
  ingest throughput ≥ 0.8× a fleet loaded fresh at 4 shards;
* ``bench_aggregates``         — maintained ring-aggregate reads ≥ 5× the
  enumerate-and-fold path at 10k-group scale on the iot sliding-window
  workload, with maintenance cost staying inside ingestion and aggregate
  push frames never outweighing plain result-delta frames.

Committed result files are claims about the code, and nothing in the unit
suite re-checks them.  This gate replays the benchmark assertions::

    python tools/bench_gate.py             # full-scale (minutes)
    python tools/bench_gate.py --smoke     # CI mode: scaled-down workloads

``--smoke`` sets ``REPRO_BENCH_SCALE=0.2`` (the serving benchmark pins its
own lower bounds, so its fixed-wall-clock windows stay meaningful) and is
wired into CI after ``make test``.  Exit status is non-zero as soon as any
benchmark assertion fails.

The machine-readable perf history lives in ``BENCH_trajectory.json`` at
the repo root: one entry per asserted claim, with the PR that introduced
it, the asserted threshold, and the recorded value.  The gate first
cross-checks that file against its own benchmark list — every gated claim
must name a module the gate runs, and every gated module must carry at
least one claim — so the trajectory cannot silently drift from what is
actually asserted.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

GATED_BENCHMARKS = (
    "benchmarks/bench_batch_updates.py",
    "benchmarks/bench_sharded_scaling.py",
    "benchmarks/bench_concurrent_serving.py",
    "benchmarks/bench_adaptive.py",
    "benchmarks/bench_durability.py",
    "benchmarks/bench_subscriptions.py",
    "benchmarks/bench_reshard.py",
    "benchmarks/bench_aggregates.py",
)

TRAJECTORY_FILE = REPO_ROOT / "BENCH_trajectory.json"

SMOKE_SCALE = "0.2"


def check_trajectory(path: Path = TRAJECTORY_FILE) -> int:
    """Validate BENCH_trajectory.json against the gated benchmark list."""
    try:
        trajectory = json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        print(f"bench-gate: cannot read {path.name}: {exc}")
        return 1
    problems = []
    claimed_modules = set()
    for claim in trajectory.get("claims", ()):
        label = claim.get("id", "<missing id>")
        module = claim.get("module", "")
        for key in ("id", "pr", "module", "metric", "threshold", "recorded"):
            if key not in claim:
                problems.append(f"claim {label!r} lacks the {key!r} field")
        if module and not (REPO_ROOT / module).exists():
            problems.append(f"claim {label!r} names missing module {module!r}")
        if claim.get("gated"):
            claimed_modules.add(module)
            if module not in GATED_BENCHMARKS:
                problems.append(
                    f"claim {label!r} is marked gated but {module!r} is not "
                    "in the gate's benchmark list"
                )
        threshold = claim.get("threshold", {})
        if threshold.get("kind") not in ("min_ratio", "max_ratio"):
            problems.append(f"claim {label!r} has unknown threshold kind")
    for module in GATED_BENCHMARKS:
        if module not in claimed_modules:
            problems.append(f"gated module {module!r} carries no claim")
    if problems:
        for problem in problems:
            print(f"bench-gate: {path.name}: {problem}")
        return 1
    print(
        f"bench-gate: {path.name} consistent "
        f"({len(trajectory.get('claims', ()))} claims over "
        f"{len(GATED_BENCHMARKS)} gated modules)"
    )
    return 0


def run_gate(smoke: bool, benchmarks=GATED_BENCHMARKS) -> int:
    if check_trajectory() != 0:
        return 1
    return _run_benchmarks(smoke, benchmarks)


def _run_benchmarks(smoke: bool, benchmarks) -> int:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if smoke:
        env["REPRO_BENCH_SCALE"] = SMOKE_SCALE
    failed = []
    for module in benchmarks:
        print(f"bench-gate: {module} ({'smoke' if smoke else 'full'} scale)", flush=True)
        result = subprocess.run(
            [sys.executable, "-m", "pytest", module, "-q", "--no-header"],
            cwd=REPO_ROOT,
            env=env,
        )
        if result.returncode != 0:
            failed.append(module)
    if failed:
        print(f"bench-gate: FAILED — {', '.join(failed)}")
        return 1
    print(f"bench-gate: all {len(benchmarks)} benchmark assertion sets hold")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="re-run the asserted benchmark claims (see module docstring)"
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"scaled-down CI mode (REPRO_BENCH_SCALE={SMOKE_SCALE})",
    )
    parser.add_argument(
        "--only",
        metavar="SUBSTR",
        help="run only the gated benchmarks whose path contains SUBSTR",
    )
    args = parser.parse_args(argv)
    benchmarks = GATED_BENCHMARKS
    if args.only:
        benchmarks = tuple(b for b in GATED_BENCHMARKS if args.only in b)
        if not benchmarks:
            parser.error(f"no gated benchmark matches {args.only!r}")
    return run_gate(args.smoke, benchmarks)


if __name__ == "__main__":
    sys.exit(main())
