"""The benchmark's one command.

``python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1``
    one run of one workload; the last line of stdout is one JSON object
    ``{"correct", "attempted", "failed", "metrics"}`` holding every
    end-to-end metric (``--trace 0``) or every per-layer metric
    (``--trace 1``) named in ``BENCHMARK.json``.

``python3 benchmarks/e2e/run.py --seed 7``
    the full set: every workload, ``RUNS`` untraced runs on consecutive
    seeds plus one traced run, medians with quartiles, oracle checks, and
    ``results/latest.json`` + ``results/trace-<workload>.jsonl`` written.
    ``--quick`` shrinks it to a smoke pass that writes nothing;
    ``--check-repeat`` runs the set twice and writes
    ``results/repeatability.txt``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if not __package__:
    # Run as a script, sys.path[0] is this directory, whose trace.py would
    # shadow the stdlib module; the package is imported through the root.
    sys.path[:] = [p for p in sys.path if Path(p or ".").resolve() != HERE]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        import repro  # noqa: F401
    except ImportError:
        sys.exit(f"benchmarks/e2e needs the program under {ROOT / 'src'}; it is not there")

from repro.core.api import HierarchicalEngine  # noqa: E402

from benchmarks.e2e.loadgen import Drive, ServerChild, SpeedProbe, drive  # noqa: E402
from benchmarks.e2e.probe import UNIT_S  # noqa: E402
from benchmarks.e2e.trace import Ladder, SpanLog  # noqa: E402
from benchmarks.e2e.workloads import (  # noqa: E402
    PAGE_LIMIT,
    SESSIONS,
    WORKLOADS,
    Inputs,
    Op,
    build_inputs,
    oracle_result,
)

RESULTS = HERE / "results"
WORK = HERE / ".work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
#: Runs per workload in a full set, on consecutive seeds (what the driver makes).
RUNS = 10
#: A session may take this many times its share of ``--seconds`` before
#: the operations it has not sent yet are failed.
GUARD_FACTOR = 4.0
#: ``setup_s`` counts as moved (or as spread too wide) only past this much
#: absolute time as well: a tenth of a 50 ms set-up is scheduler noise.
SETUP_FLOOR_S = 0.020
PINGS = 1_000
#: The smoke pass: a fifth of the data, this many seconds' worth of operations.
QUICK_SCALE = 0.2
QUICK_SECONDS = 0.5
Metrics = Dict[str, float]


def percentile(samples: Sequence[float], q: float) -> float:
    ordered = sorted(samples)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


# ----------------------------------------------------------------------
# one served run, checked against the oracle
# ----------------------------------------------------------------------
@dataclass
class Served:
    """A run's served sessions plus the verdict of their oracle checks."""

    drives: List[Drive] = field(default_factory=list)
    setup_s: List[float] = field(default_factory=list)
    exit_reports: List[Dict] = field(default_factory=list)
    mismatches: List[str] = field(default_factory=list)
    #: The speed probe's factor over each session's measured window and
    #: over each child's start (1.0 = an undisturbed seed-state machine).
    slowdown: List[float] = field(default_factory=list)
    setup_slowdown: List[float] = field(default_factory=list)

    def pooled(self, samples: str) -> List[float]:
        """One kind of sample from every session, at undisturbed speed."""
        return [
            value / slowdown
            for d, slowdown in zip(self.drives, self.slowdown)
            for value in getattr(d, samples)
        ]

    @property
    def notes(self) -> List[str]:
        return [note for d in self.drives for note in d.notes] + self.mismatches

    @property
    def attempted(self) -> int:
        return sum(d.attempted for d in self.drives)

    @property
    def failed(self) -> int:
        # an oracle mismatch cannot be pinned on one operation: all fail
        return self.attempted if self.mismatches else sum(d.failed for d in self.drives)


def oracle_mismatches(
    inputs: Inputs, ops: Sequence[Op], session: Drive, exit_report: Dict, wal_dir: Optional[str]
) -> List[str]:
    """What one session's outputs got wrong (nothing, one hopes)."""
    wrong = []
    oracle = oracle_result(inputs, ops[: session.ops_acked])
    if session.mirror != oracle:
        wrong.append("subscription mirror differs from the oracle")
    page = session.final_page
    if len(page) != min(PAGE_LIMIT, len(oracle)) or any(oracle.get(t) != m for t, m in page):
        wrong.append("final first-page read differs from the oracle")
    if exit_report["version"] != session.ops_acked:
        wrong.append(f"engine version {exit_report['version']} after {session.ops_acked} acks")
    if wal_dir is not None:
        engine, _report = HierarchicalEngine.recover(wal_dir)
        try:
            if engine.result() != oracle:
                wrong.append("recovered result differs from the oracle")
        finally:
            engine.close()
    return wrong


def served_run(
    inputs: Inputs, seconds: float, work_dir: Path, sessions: int = SESSIONS, pings: int = 0
) -> Served:
    """One fresh child per session: set up, drive its list, stop, check outputs."""
    served = Served()
    guard_s = GUARD_FACTOR * seconds / SESSIONS
    children: List[ServerChild] = []
    probe = SpeedProbe()
    try:
        for index, ops in enumerate(inputs.sessions[:sessions]):
            wal_dir = str(work_dir / f"wal-{index}") if inputs.workload.durable else None
            child = ServerChild(inputs, wal_dir)
            try:
                session = drive(child.port, inputs, ops, guard_s, pings)
            finally:
                exit_report = child.stop()
            children.append(child)
            served.drives.append(session)
            served.setup_s.append(child.setup_s)
            served.exit_reports.append(exit_report)
            served.mismatches += [
                f"session {index}: {what}"
                for what in oracle_mismatches(inputs, ops, session, exit_report, wal_dir)
            ]
    finally:
        probe.stop()
    served.slowdown = [probe.factor(d.started, d.ended) for d in served.drives]
    served.setup_slowdown = [probe.factor(c.spawned, c.listening) for c in children]
    return served


def end_to_end_metrics(served: Served) -> Metrics:
    """Samples of all sessions pooled; one value per child as a median.

    Every time is divided by the slowdown the speed probe saw while it was
    taken (see ``probe.py``), so the values are those of an undisturbed
    machine; ``raw_metrics`` has them as the clock read them.
    """
    walls = [d.wall_s / slowdown for d, slowdown in zip(served.drives, served.slowdown)]
    return {
        "setup_s": statistics.median(
            s / slowdown for s, slowdown in zip(served.setup_s, served.setup_slowdown)
        ),
        "updates_per_s": sum(d.updates_acked for d in served.drives) / sum(walls),
        "commit_p50_ms": statistics.median(served.pooled("commit_s")) * 1e3,
        "push_p50_ms": statistics.median(served.pooled("push_s")) * 1e3,
        "read_p50_ms": statistics.median(served.pooled("read_s")) * 1e3,
        "server_rss_mb": statistics.median(r["rss_mb"] for r in served.exit_reports),
    }


def raw_metrics(served: Served) -> Metrics:
    """The end-to-end metrics as the clock read them, speed probe ignored."""
    ones = [1.0] * len(served.drives)
    return end_to_end_metrics(replace(served, slowdown=ones, setup_slowdown=ones))


def per_layer_metrics(
    inputs: Inputs, served: Served, seconds: float, work_dir: Path
) -> Tuple[Metrics, SpanLog]:
    """The ladder's numbers plus the tails only a served run can give."""
    (d,) = served.drives
    ops = inputs.sessions[0]
    count = max(1, min(len(ops), round(inputs.workload.trace_ops_per_second * seconds)))
    ladder = Ladder(inputs, ops[:count], work_dir)
    values = ladder.run()
    ping_us = statistics.median(d.ping_s) * 1e6
    # Compare like with like: the served mean over the ops the ladder replayed.
    replayed = d.commit_s[: max(1, count - d.measured_from)]
    served_us = statistics.fmean(replayed) * 1e6
    attributed = values.pop("_attributed_us_per_commit") + ping_us
    values.update(
        {
            "net.ping_rtt_us": ping_us,
            "net.commit_p99_ms": percentile(d.commit_s, 0.99) * 1e3,
            "net.push_p99_ms": percentile(d.push_s, 0.99) * 1e3,
            "net.read_p99_ms": percentile(d.read_s, 0.99) * 1e3,
            "net.read_sched_lag_p50_ms": statistics.median(d.read_lag_s) * 1e3,
            "trace.unattributed_share": (served_us - attributed) / served_us,
        }
    )
    return values, ladder.spans


def run_once(
    name: str, seed: int, seconds: float, trace: bool, scale: float = 1.0
) -> Tuple[Served, Metrics, Optional[SpanLog], Inputs]:
    """One run of one workload: what the driver's command line asks for."""
    inputs = build_inputs(WORKLOADS[name], seed, seconds, scale)
    WORK.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK))
    try:
        if trace:
            served = served_run(
                inputs, seconds, work_dir, sessions=1, pings=max(50, int(PINGS * scale))
            )
            metrics, spans = per_layer_metrics(inputs, served, seconds, work_dir)
        else:
            served = served_run(inputs, seconds, work_dir)
            metrics, spans = end_to_end_metrics(served), None
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    return served, metrics, spans, inputs


def contract_line(served: Served, metrics: Metrics, spec: Dict[str, Dict]) -> str:
    return json.dumps(
        {
            "correct": not served.notes,
            "attempted": served.attempted,
            "failed": served.failed,
            "metrics": {
                name: {"value": metrics[name], "unit": spec[name]["unit"]} for name in spec
            },
        }
    )


# ----------------------------------------------------------------------
# the full set
# ----------------------------------------------------------------------
def summarise(values: Sequence[float]) -> Dict[str, float]:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / median if median else 0.0, "values": list(values)}


def layer_budget(workload, layers: Metrics) -> Dict[str, float]:
    """One commit's ladder time by layer, in us (the README's share table)."""
    per_commit = workload.batch_size
    budget = {
        "data": layers["data.apply_us_per_update"] * per_commit,
        "ivm": layers["ivm.maintain_us_per_update"] * per_commit
        - layers["data.apply_us_per_update"] * per_commit,
        "ivm.capture": layers["ivm.capture_us_per_commit"],
        "snapshot": layers["snapshot.capture_us_per_commit"] + layers["snapshot.cow_us_per_commit"],
        "core.serving": layers["core.serving.commit_us_per_commit"],
        "net": layers["net.request_codec_us_per_commit"]
        + layers["net.push_codec_us_per_commit"]
        + layers["net.ping_rtt_us"],
    }
    if workload.durable:
        budget["durability"] = layers["durability.commit_us_per_commit"]
    return budget


def run_set(seed: int, runs: int, seconds: float, scale: float, say) -> Dict:
    """Every workload: ``runs`` untraced runs on consecutive seeds, one traced.

    With ``runs == 0`` (the smoke pass) the end-to-end metrics are read off
    the traced run's one served session instead: good enough to see that
    every metric is produced, never a number to quote.
    """
    report: Dict[str, Dict] = {}
    traces: Dict[str, SpanLog] = {}
    for name in WORKLOADS:
        samples: Dict[str, List[float]] = {metric: [] for metric in END_TO_END}
        clocked: Dict[str, List[float]] = {metric: [] for metric in END_TO_END}
        attempted = failed = 0
        notes: List[str] = []
        digests: List[str] = []
        for run in range(runs):
            served, metrics, _, inputs = run_once(name, seed + run, seconds, False, scale)
            attempted += served.attempted
            failed += served.failed
            notes += served.notes
            digests.append(inputs.sha256())
            for metric, value in metrics.items():
                samples[metric].append(value)
            for metric, value in raw_metrics(served).items():
                clocked[metric].append(value)
        served, layers, spans, inputs = run_once(name, seed, seconds, True, scale)
        attempted += served.attempted
        failed += served.failed
        notes += served.notes
        traces[name] = spans
        if not runs:
            samples = {metric: [value] for metric, value in end_to_end_metrics(served).items()}
            clocked = {metric: [value] for metric, value in raw_metrics(served).items()}
        report[name] = {
            "end_to_end": {metric: summarise(values) for metric, values in samples.items()},
            "end_to_end_as_clocked": {m: summarise(values) for m, values in clocked.items()},
            "per_layer": layers,
            "ops_attempted": attempted,
            "ops_failed": failed,
            "oracle_notes": notes,
            "ops_sha256": digests,
            "ops_per_session": len(inputs.sessions[0]),
        }
        say(f"\n== {name}: {WORKLOADS[name].why}")
        say(f"   ops_attempted {attempted}  ops_failed {failed}  oracle "
            f"{'ok' if not notes else '; '.join(notes)}")
        for metric, stats in report[name]["end_to_end"].items():
            raw = report[name]["end_to_end_as_clocked"][metric]
            say(f"   {metric:<34} {stats['median']:>14.4f} {END_TO_END[metric]['unit']:<6}"
                f" q1 {stats['q1']:.4f} q3 {stats['q3']:.4f} spread {stats['spread']:.3f}"
                f" n={stats['n']}  (as clocked: {raw['median']:.4f}, spread {raw['spread']:.3f})")
        for metric in PER_LAYER:
            say(f"   {metric:<34} {layers[metric]:>14.4f} {PER_LAYER[metric]['unit']}")
        budget = layer_budget(WORKLOADS[name], layers)
        total = sum(budget.values())
        say("   ladder budget per commit: " + "  ".join(
            f"{layer} {value:.0f} us ({value / total:.0%})" for layer, value in budget.items()))
        report[name]["ladder_budget_us"] = budget
    return {"workloads": report, "traces": traces}


def stamp(seed: int) -> Dict:
    return {
        "seed": seed,
        "runs_per_workload": RUNS,
        "sessions_per_run": SESSIONS,
        "run_seconds": SPEC["run_seconds"],
        "probe_unit_s": UNIT_S,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "written_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def check_repeat(first: Dict, second: Dict, say) -> bool:
    """Two sets agree when every pair is resolved and no median moved.

    A median has moved when the sets differ by more than the metric's
    bound, in either direction: two runs of one commit that are a third
    apart do not repeat, whichever came out ahead.  A pair whose
    run-to-run spread is wider than its bound is unresolved, which is not
    agreement: a later comparison on that pair proves nothing either way.
    ``setup_s`` must also clear ``SETUP_FLOOR_S`` of absolute time.
    """
    moved = unresolved = 0
    say("\n== repeatability: two full sets, back to back")
    say(f"   {'workload':<18}{'metric':<16}{'median 1':>12}{'median 2':>12}"
        f"{'change':>10}{'spread 1':>10}{'spread 2':>10}{'bound':>7}")
    for name in WORKLOADS:
        for metric, spec in END_TO_END.items():
            a = first["workloads"][name]["end_to_end"][metric]
            b = second["workloads"][name]["end_to_end"][metric]
            floor = SETUP_FLOOR_S if metric == "setup_s" else 0.0
            change = (b["median"] - a["median"]) / a["median"]
            shifted = abs(change) > spec["bound"] and abs(b["median"] - a["median"]) >= floor
            wide = any(
                s["spread"] > spec["bound"] and s["q3"] - s["q1"] >= floor for s in (a, b)
            )
            moved += shifted
            unresolved += wide and not shifted
            flag = "  MEDIAN MOVED" if shifted else "  UNRESOLVED" if wide else ""
            say(f"   {name:<18}{metric:<16}{a['median']:>12.4f}{b['median']:>12.4f}"
                f"{change:>+10.3f}{a['spread']:>10.3f}{b['spread']:>10.3f}"
                f"{spec['bound']:>7.2f}{flag}")
    exact = [m for m in PER_LAYER if PER_LAYER[m]["unit"] in ("count", "B")]
    differing = [
        (name, metric)
        for name in WORKLOADS
        for metric in exact
        if first["workloads"][name]["per_layer"][metric]
        != second["workloads"][name]["per_layer"][metric]
    ]
    for name, metric in differing:
        say(f"   {name} {metric}: EXACT COUNT DIFFERS BETWEEN THE SETS")
    say(f"   exact-count layer metrics compared: {', '.join(exact)}")
    say(f"   medians moved past their bound: {moved}; pairs unresolved (spread wider than "
        f"bound): {unresolved}; exact counts differing: {len(differing)}")
    return not moved and not unresolved and not differing


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--check-repeat", action="store_true")
    args = parser.parse_args(argv)

    if args.workload is not None:
        served, metrics, _, _ = run_once(args.workload, args.seed, args.seconds, bool(args.trace))
        spec = PER_LAYER if args.trace else END_TO_END
        clocked = {} if args.trace else raw_metrics(served)
        for name in spec:
            print(f"{args.workload} {name} {metrics[name]:.6f} {spec[name]['unit']}"
                  + (f"  (as clocked: {clocked[name]:.6f})" if name in clocked else ""))
        print("machine slowdown seen by the speed probe: sessions "
              + " ".join(f"{x:.3f}" for x in served.slowdown)
              + "  set-ups " + " ".join(f"{x:.3f}" for x in served.setup_slowdown))
        for note in served.notes:
            print(f"FAILED: {note}")
        print(contract_line(served, metrics, spec), flush=True)
        return 1 if served.notes else 0

    if args.seconds != SPEC["run_seconds"]:
        parser.error("--seconds belongs to a single run (--workload); a set uses run_seconds")
    if args.quick:
        # one short traced run per workload on a fifth of the data, nothing written
        sets = [run_set(args.seed, 0, QUICK_SECONDS, QUICK_SCALE, print)]
    else:
        lines: List[str] = []

        def say(text: str) -> None:
            print(text, flush=True)
            lines.append(text)

        sets = [run_set(args.seed, RUNS, args.seconds, 1.0, say)]
        RESULTS.mkdir(exist_ok=True)
        for name, spans in sets[0]["traces"].items():
            spans.write(RESULTS / f"trace-{name}.jsonl")
        (RESULTS / "latest.json").write_text(json.dumps(
            {"stamp": stamp(args.seed), "workloads": sets[0]["workloads"], "claim": None},
            indent=1) + "\n")
        if args.check_repeat:
            sets.append(run_set(args.seed, RUNS, args.seconds, 1.0, say))
            agreed = check_repeat(sets[0], sets[1], say)
            say(f"   stamp: {json.dumps(stamp(args.seed))}")
            say(f"   verdict: {'PASS' if agreed else 'FAIL'}")
            (RESULTS / "repeatability.txt").write_text("\n".join(lines) + "\n")
            if not agreed:
                return 1

    failed = sum(w["ops_failed"] for s in sets for w in s["workloads"].values())
    attempted = sum(w["ops_attempted"] for s in sets for w in s["workloads"].values())
    print(json.dumps({"ops_attempted": attempted, "ops_failed": failed, "claim": None}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
