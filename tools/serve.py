"""Serve a scenario's engine over TCP: the networked-serving entry point.

Builds one scenario from the workload matrix, loads it into a
:class:`~repro.core.api.HierarchicalEngine` (or a
:class:`~repro.sharding.ShardedEngine` with ``--shards > 1``), fronts it
with an :class:`~repro.core.serving.EngineServer`, and serves the frame
protocol of :mod:`repro.net` until interrupted.  ``GET /metrics`` on the
same port answers in Prometheus text format.

Examples::

    # serve the retail scenario on an ephemeral port
    PYTHONPATH=src python tools/serve.py --scenario retail

    # serve on a fixed port, with a background writer ingesting the
    # scenario's update stream in 50-tuple batches, 4 batches/second
    PYTHONPATH=src python tools/serve.py --scenario social --port 7711 \
        --drive 10000 --batch-size 50 --rate 4

    # then, from any Python with src/ on the path:
    #   from repro.net import EngineClient
    #   client = EngineClient("127.0.0.1", 7711)
    #   sub = client.subscribe()          # full result + per-commit deltas

Adding ``--controller`` attaches the adaptive epsilon controller, so the
served engine retunes itself as the read/write mix shifts; subscribers
simply see the commits keep flowing (retunes never change the result).
"""

from __future__ import annotations

import argparse
import sys
import threading
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.adaptive import AdaptiveController  # noqa: E402
from repro.core.api import HierarchicalEngine  # noqa: E402
from repro.core.serving import EngineServer  # noqa: E402
from repro.net import ServerConfig, ServerThread  # noqa: E402
from repro.sharding import ShardedEngine  # noqa: E402
from repro.workloads.scenarios import get_scenario, scenario_names  # noqa: E402


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--scenario",
        default="retail",
        choices=scenario_names(),
        help="workload scenario to build and serve (default: retail)",
    )
    parser.add_argument("--seed", type=int, default=0, help="database seed")
    parser.add_argument(
        "--scale", type=float, default=1.0, help="database size multiplier"
    )
    parser.add_argument(
        "--epsilon", type=float, default=0.5, help="epsilon trade-off parameter"
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="shard count; >1 serves a ShardedEngine",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="TCP port (0 = ephemeral)"
    )
    parser.add_argument(
        "--controller",
        action="store_true",
        help="attach the adaptive epsilon controller",
    )
    parser.add_argument(
        "--drive",
        type=int,
        default=0,
        metavar="N",
        help="ingest N scenario stream updates from a background writer",
    )
    parser.add_argument(
        "--batch-size", type=int, default=50, help="writer batch size"
    )
    parser.add_argument(
        "--rate",
        type=float,
        default=10.0,
        help="writer batches per second (0 = as fast as possible)",
    )
    parser.add_argument(
        "--max-connections", type=int, default=256, help="connection limit"
    )
    parser.add_argument(
        "--queue-size",
        type=int,
        default=32,
        help="per-subscriber send-queue bound (frames)",
    )
    return parser


def build_serving(args):
    """Build ``(serving_server, database)`` for the chosen scenario."""
    scenario = get_scenario(args.scenario)
    database = scenario.make_database(args.seed, args.scale)
    if args.shards > 1:
        engine = ShardedEngine(
            scenario.query, shards=args.shards, epsilon=args.epsilon
        )
    else:
        engine = HierarchicalEngine(scenario.query, epsilon=args.epsilon)
    engine.load(database)
    controller = AdaptiveController(engine) if args.controller else None
    return EngineServer(engine, controller=controller), database


def drive_writer(serving: EngineServer, database, args) -> threading.Thread:
    """Feed the scenario's update stream through the serving commit path."""
    scenario = get_scenario(args.scenario)
    stream = scenario.make_stream(database, args.drive, args.seed + 1)

    def paced_batches():
        interval = 1.0 / args.rate if args.rate > 0 else 0.0
        for batch in stream.batches(args.batch_size):
            yield batch
            if interval:
                time.sleep(interval)

    return serving.start_writer(paced_batches())


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    serving, database = build_serving(args)
    config = ServerConfig(
        host=args.host,
        port=args.port,
        max_connections=args.max_connections,
        subscriber_queue_size=args.queue_size,
    )
    handle = ServerThread(serving, config).start()
    engine = serving.engine
    print(
        f"serving {args.scenario!r} — {engine.query} — "
        f"on {args.host}:{handle.port} "
        f"(epsilon={args.epsilon}, shards={args.shards})",
        flush=True,
    )
    print(f"metrics: http://{args.host}:{handle.port}/metrics", flush=True)
    writer = drive_writer(serving, database, args) if args.drive > 0 else None
    try:
        while True:
            time.sleep(1.0)
            serving.check_writer()
            if writer is not None and not writer.is_alive():
                print("writer stream exhausted; still serving", flush=True)
                writer = None
    except KeyboardInterrupt:
        print("\nshutting down", flush=True)
    finally:
        handle.close()
        if writer is not None:
            try:
                serving.stop_writer(timeout=10.0)
            except Exception as exc:  # noqa: BLE001 - report and exit
                print(f"writer error: {exc}", file=sys.stderr)
                return 1
        close = getattr(engine, "close", None)
        if close is not None:
            close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
