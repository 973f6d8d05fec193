"""Tier-1 smoke pass over the benchmark: ``--quick`` twice, side by side."""

from __future__ import annotations

import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from benchmarks.e2e import run

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
EXACT_UNITS = ("count", "B")


def _results_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((HERE / "results").rglob("*")):
        if path.is_file():
            digest.update(path.name.encode() + path.read_bytes())
    return digest.hexdigest()


def _parse(stdout: str):
    """``{workload: {metric: (value, unit)}}`` from the printed table."""
    table, current = {}, None
    for line in stdout.splitlines():
        header = re.match(r"== (\S+):", line)
        if header:
            current = table.setdefault(header.group(1), {})
            continue
        row = re.match(r"\s+(\S+)\s+(-?[\d.]+)\s+(\S+)", line)
        if row and current is not None:
            current[row.group(1)] = (float(row.group(2)), row.group(3))
    return table


def test_quick_run_prints_every_metric_and_writes_nothing():
    before = _results_digest()
    command = [sys.executable, str(HERE / "run.py"), "--quick", "--seed", "7"]
    processes = [
        subprocess.Popen(command, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        for _ in range(2)
    ]
    outputs = [process.communicate(timeout=120) for process in processes]
    for process, (stdout, stderr) in zip(processes, outputs):
        assert process.returncode == 0, stdout + stderr
    assert _results_digest() == before

    tables = [_parse(stdout) for stdout, _ in outputs]
    specs = SPEC["end_to_end"] + SPEC["per_layer"]
    for workload in (w["name"] for w in SPEC["workloads"]):
        for table in tables:
            for spec in specs:
                assert table[workload][spec["name"]][1] == spec["unit"], (workload, spec)
        for spec in specs:
            if spec["unit"] in EXACT_UNITS:
                name = spec["name"]
                assert tables[0][workload][name] == tables[1][workload][name], (workload, name)

    for stdout, _ in outputs:
        assert "oracle ok" in stdout and "differs from the oracle" not in stdout
        summary = json.loads(stdout.splitlines()[-1])
        assert summary["ops_failed"] == 0 and summary["ops_attempted"] > 0
        assert summary["claim"] is None


def _stats(median: float, spread: float):
    half = median * spread / 2
    return {"median": median, "q1": median - half, "q3": median + half, "spread": spread}


def _one_set(commit_p50_ms: float, spread: float = 0.01):
    """A full set's report in which every median is 1.0 but one."""
    report = {
        name: {
            "end_to_end": {metric: _stats(1.0, 0.01) for metric in run.END_TO_END},
            "per_layer": dict.fromkeys(run.PER_LAYER, 1.0),
        }
        for name in run.WORKLOADS
    }
    report["batch_ingest"]["end_to_end"]["commit_p50_ms"] = _stats(commit_p50_ms, spread)
    return {"workloads": report}


@pytest.mark.parametrize(
    "second, spread, agrees",
    [
        (1.0, 0.01, True),
        (1.3, 0.01, False),  # worse by more than any bound
        (0.7, 0.01, False),  # better by as much: does not repeat either
        (1.0, 0.9, False),  # medians equal, but the spread resolves nothing
    ],
)
def test_check_repeat_is_two_sided_and_refuses_wide_spreads(second, spread, agrees):
    lines = []
    assert run.check_repeat(_one_set(1.0), _one_set(second, spread), lines.append) is agrees
    flagged = [line for line in lines if "MEDIAN MOVED" in line or "UNRESOLVED" in line]
    assert len(flagged) == (0 if agrees else 1)
    assert agrees or "batch_ingest" in flagged[0] and "commit_p50_ms" in flagged[0]
