"""The system under test: one served engine in a process of its own.

Builds the scenario database from ``(scenario, seed, scale)``, constructs
and loads a default :class:`HierarchicalEngine` (durable when ``--wal-dir``
is given), and serves it through ``EngineServer(mode="snapshot")`` behind a
default ``ServerThread``.  Prints one JSON line with the bound port and the
set-up time, serves until stdin reaches EOF, then prints one JSON line with
the peak RSS and the engine's own counters and exits.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

from repro.core.api import HierarchicalEngine
from repro.core.serving import EngineServer
from repro.durability.manager import DurabilityConfig
from repro.net.server import ServerConfig, ServerThread
from repro.workloads.scenarios import get_scenario


def peak_rss_mb() -> float:
    """Peak resident set of this process image.

    ``VmHWM`` starts afresh at exec; ``ru_maxrss`` would also carry the size
    of the load generator that forked us, so it is only the fallback.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0  # KiB
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--scenario", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--wal-dir", default=None)
    args = parser.parse_args()

    scenario = get_scenario(args.scenario)
    database = scenario.make_database(args.seed, args.scale)
    durability = DurabilityConfig(args.wal_dir) if args.wal_dir else None

    started = time.perf_counter()
    engine = HierarchicalEngine(scenario.query, durability=durability).load(database)
    handle = ServerThread(EngineServer(engine, mode="snapshot"), ServerConfig()).start()
    setup_s = time.perf_counter() - started
    try:
        print(json.dumps({"port": handle.port, "setup_s": setup_s}), flush=True)
        sys.stdin.read()
    finally:
        handle.close()
        engine.close()
    rebalance = engine.rebalance_stats
    print(
        json.dumps(
            {
                "rss_mb": peak_rss_mb(),
                "version": engine.version,
                "minor_rebalances": rebalance.minor_rebalances,
                "major_rebalances": rebalance.major_rebalances,
            }
        ),
        flush=True,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
