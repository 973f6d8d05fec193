"""The served stack loads neither scipy nor networkx.

The width measures use the integral edge cover (exact on hierarchical
queries by Lemma 30), so the LP solver is imported only when ``ρ*`` of a
general query is asked for; ``networkx`` is no dependency at all (join trees
are plain dicts), and stays unloaded.
The guard runs in a fresh interpreter: the test process itself has imported
both long before this test runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

PROBE = """
import json, sys
import repro, repro.core.serving, repro.durability.manager, repro.net.server
from repro.workloads.scenarios import SCENARIOS
for scenario in SCENARIOS.values():
    repro.HierarchicalEngine(scenario.query, epsilon=0.5).load(
        scenario.make_database(0, 0.05)
    )
print(json.dumps(sorted({name.split(".")[0] for name in sys.modules})))
"""


def test_serving_and_planning_every_scenario_loads_no_scipy_or_networkx():
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    probe = subprocess.run(
        [sys.executable, "-c", PROBE],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
        cwd=REPO_ROOT,
    )
    assert probe.returncode == 0, probe.stderr
    loaded = set(json.loads(probe.stdout.splitlines()[-1]))
    assert "repro" in loaded
    assert not loaded & {"scipy", "networkx"}, sorted(loaded & {"scipy", "networkx"})
