"""Profile the maintenance and read hot paths across every registered scenario.

Runs each scenario in :data:`repro.workloads.scenarios.SCENARIOS` through a
freshly loaded :class:`~repro.core.api.HierarchicalEngine` under
:mod:`cProfile` — the same update streams the conformance fuzzer and the
benchmarks replay — then reads the result it left (a first page of 100
tuples and one full enumeration) under a second profiler, and writes a
top-N hot-function report for each.  The committed copy
(``benchmarks/results/profile_hotpath.txt``, refreshed by ``make profile``)
documents where maintenance and enumeration time actually go, so a storage,
propagation or enumeration change can be judged against the real call
profile instead of intuition::

    python tools/profile_hotpath.py                  # full run, writes report
    python tools/profile_hotpath.py --smoke          # CI: tiny streams, stdout
    python tools/profile_hotpath.py --backend dict   # profile the dict backend

Per-scenario throughput and read numbers in the report are measured *under
the profiler* and are only comparable to each other, not to the un-profiled
benchmarks.
"""

from __future__ import annotations

import argparse
import cProfile
import io
import os
import pstats
import sys
import time
from itertools import islice
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

DEFAULT_OUTPUT = REPO_ROOT / "benchmarks" / "results" / "profile_hotpath.txt"
DEFAULT_COUNT = 4000
SMOKE_COUNT = 200
SEED = 7
PAGE = 100
#: Tuples the smoke run's "full" enumeration stops at (a million-tuple
#: result under the profiler is most of a minute in CI).
SMOKE_READ = 20_000


def _top(profile: cProfile.Profile, top: int) -> str:
    buffer = io.StringIO()
    stats = pstats.Stats(profile, stream=buffer)
    stats.strip_dirs().sort_stats("tottime").print_stats(top)
    return buffer.getvalue().rstrip()


def profile_scenarios(count: int, top: int, backend: str, read_limit=None) -> str:
    from repro.core.api import HierarchicalEngine
    from repro.data import storage_backend
    from repro.workloads.scenarios import SCENARIOS, get_scenario

    profile = cProfile.Profile()
    reads = cProfile.Profile()
    read_lines = [
        "",
        f"Read hot-path profile — the result each stream left: a first page of "
        f"{PAGE}, then one full enumeration"
        + (f" (cut at {read_limit} tuples)." if read_limit else "."),
        "",
        f"  {'scenario':<14} {'tuples':>8} {'page ms':>9} {'full s':>9} {'us/tuple':>9}",
    ]
    lines = [
        f"Maintenance hot-path profile — backend={backend}, "
        f"{count} updates per scenario, top {top} functions by total time.",
        "",
        "Per-scenario ingestion under the profiler (relative only):",
        "",
        f"  {'scenario':<14} {'updates':>8} {'seconds':>9} {'updates/s':>10}",
    ]
    with storage_backend(backend):
        for name in sorted(SCENARIOS):
            scenario = get_scenario(name)
            database = scenario.make_database(seed=SEED, scale=1.0)
            updates = list(scenario.make_stream(database, count=count, seed=SEED))
            engine = HierarchicalEngine(scenario.query).load(database)
            started = time.perf_counter()
            profile.enable()
            for update in updates:
                engine.apply(update)
            profile.disable()
            elapsed = time.perf_counter() - started
            lines.append(
                f"  {name:<14} {len(updates):>8} {elapsed:>9.3f} "
                f"{len(updates) / elapsed:>10.0f}"
            )
            started = time.perf_counter()
            reads.enable()
            for _ in islice(engine.enumerate(), PAGE):
                pass
            paged = time.perf_counter()
            tuples = sum(1 for _ in islice(engine.enumerate(), read_limit))
            reads.disable()
            full = time.perf_counter() - paged
            read_lines.append(
                f"  {name:<14} {tuples:>8} {(paged - started) * 1e3:>9.3f} "
                f"{full:>9.3f} {full / max(tuples, 1) * 1e6:>9.2f}"
            )
    lines += ["", _top(profile, top), *read_lines, "", _top(reads, top), ""]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="profile scenario ingestion (see module docstring)"
    )
    parser.add_argument(
        "--count",
        type=int,
        default=None,
        help=f"updates per scenario (default {DEFAULT_COUNT})",
    )
    parser.add_argument(
        "--top", type=int, default=30, help="functions to report (default 30)"
    )
    parser.add_argument(
        "--backend",
        default=os.environ.get("REPRO_STORAGE", "columnar"),
        choices=("dict", "columnar"),
        help="storage backend to profile (default: active backend)",
    )
    parser.add_argument(
        "--output",
        default=None,
        help=f"report path (default {DEFAULT_OUTPUT.relative_to(REPO_ROOT)}; "
        "'-' for stdout)",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help=f"CI mode: {SMOKE_COUNT} updates per scenario, print to stdout "
        "instead of touching the committed report",
    )
    args = parser.parse_args(argv)
    count = args.count if args.count is not None else (
        SMOKE_COUNT if args.smoke else DEFAULT_COUNT
    )
    report = profile_scenarios(
        count, args.top, args.backend, SMOKE_READ if args.smoke else None
    )
    output = args.output
    if output is None:
        output = "-" if args.smoke else str(DEFAULT_OUTPUT)
    if output == "-":
        print(report)
    else:
        path = Path(output)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report)
        print(f"profile-hotpath: wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
