"""The tools/fuzz.py entry point: seeded run, stats line, repro replay."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent


def _run_fuzz(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    return subprocess.run(
        [sys.executable, str(REPO_ROOT / "tools" / "fuzz.py"), *args],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=REPO_ROOT,
    )


def test_seeded_fuzz_budget_runs_clean():
    result = _run_fuzz("--seed", "0", "--budget", "3", "--max-cases", "25")
    assert result.returncode == 0, result.stdout + result.stderr
    assert "cases clean" in result.stdout


def test_fuzz_case_sequence_is_deterministic_for_a_seed():
    first = _run_fuzz("--seed", "5", "--budget", "60", "--max-cases", "8")
    second = _run_fuzz("--seed", "5", "--budget", "60", "--max-cases", "8")
    assert first.returncode == second.returncode == 0
    # identical stats line modulo the elapsed-time field
    strip = lambda out: out.split(" in ")[0]  # noqa: E731
    assert strip(first.stdout) == strip(second.stdout)


def test_metamorphic_crash_kind_replays(tmp_path):
    """A repro whose kind is 'metamorphic:<prop>:crash' must replay cleanly.

    The crash suffix is appended by the failure normalizer; the replay path
    must parse the property name out of the middle segment instead of
    treating '<prop>:crash' as the property.
    """
    import json
    import sys as _sys

    _sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.conformance import ConformanceCase

    case = ConformanceCase(
        query="Q(A, C) = R(A, B), S(B, C)",
        relations={
            "R": (("A", "B"), [((1, 2), 1)]),
            "S": (("B", "C"), [((2, 3), 1)]),
        },
        updates=[("R", (4, 2), 1)],
        epsilons=(0.5,),
        checkpoints=1,
    )
    payload = json.loads(case.to_json())
    payload["failure"] = {
        "kind": "metamorphic:partition-union:crash",
        "engine": "ivm(eps=0.5)",
        "checkpoint": -1,
        "detail": "synthetic",
    }
    path = tmp_path / "case-crash.json"
    path.write_text(json.dumps(payload))
    result = _run_fuzz("--repro", str(path))
    # the healthy case no longer fails; the point is that the replay
    # neither crashes on the kind parsing nor rejects the property name
    assert result.returncode == 0, result.stdout + result.stderr
    assert "no longer fails" in result.stdout


def test_unknown_metamorphic_property_rejected_eagerly():
    import importlib.util
    import sys as _sys

    _sys.path.insert(0, str(REPO_ROOT / "src"))
    import pytest

    from repro.conformance import ConformanceCase

    spec = importlib.util.spec_from_file_location(
        "fuzz_cli_under_test", REPO_ROOT / "tools" / "fuzz.py"
    )
    fuzz_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz_cli)

    case = ConformanceCase(
        query="Q(A, B) = R(A, B)",
        relations={"R": (("A", "B"), [])},
        updates=[],
        epsilons=(0.5,),
    )
    with pytest.raises(ValueError, match="unknown metamorphic property"):
        fuzz_cli.metamorphic_failure(case, "no-such-property")


def test_repro_naming_a_removed_property_replays_as_a_differential_run(
    tmp_path, monkeypatch, capsys
):
    """Properties that left the mix (shard merge, snapshot isolation,
    retune/reshard/aggregate equivalence) are checked by the differential
    run now; their old repro files replay through ``case_failure``."""
    import importlib.util
    import json
    import sys as _sys

    _sys.path.insert(0, str(REPO_ROOT / "src"))
    from repro.conformance import ConformanceCase

    spec = importlib.util.spec_from_file_location(
        "fuzz_cli_removed_property", REPO_ROOT / "tools" / "fuzz.py"
    )
    fuzz_cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(fuzz_cli)
    replayed = []
    real_case_failure = fuzz_cli.case_failure

    def spy(case):
        replayed.append(case)
        return real_case_failure(case)

    monkeypatch.setattr(fuzz_cli, "case_failure", spy)

    case = ConformanceCase(
        query="Q(A, C) = R(A, B), S(B, C)",
        relations={
            "R": (("A", "B"), [((1, 2), 1)]),
            "S": (("B", "C"), [((2, 3), 1)]),
        },
        updates=[("R", (4, 2), 1)],
        epsilons=(0.5,),
        checkpoints=1,
    )
    payload = json.loads(case.to_json())
    payload["failure"] = {
        "kind": "metamorphic:shard-merge",
        "engine": "ivm(eps=0.5)",
        "checkpoint": -1,
        "detail": "synthetic",
    }
    path = tmp_path / "case-shard-merge.json"
    path.write_text(json.dumps(payload))
    assert fuzz_cli.run_repro(path) == 0
    assert replayed == [case]
    assert "no longer fails" in capsys.readouterr().out
