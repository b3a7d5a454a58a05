"""The benchmark's traced path runs against this checkout.

`perfbench/traced.py` wraps the library functions that `perfbench/spans.py`
names with span probes before it runs a workload.  A probed name that the
library no longer has makes the traced run fail, so this test runs each
traced workload in a fresh process and checks its exit code and stdout
digest against `perfbench/golden.json`.  It writes only under tmp_path.

The untraced runs, `python -m charblocks.cli` in a fresh process with
PYTHONPATH=src as `perfbench/run.py` starts them, end in `cli.run` and
`os._exit` instead; they are checked against the same digests.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"
sys.path.insert(0, str(PERFBENCH))
from workloads import WORKLOADS, load_golden, sha256  # noqa: E402


@pytest.mark.parametrize("workload", ["theorem1-n10", "table-n15"])
def test_traced_workload_matches_golden(tmp_path, workload):
    prefix = tmp_path / "t"
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "traced.py"), workload, str(prefix)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    meta = json.loads(prefix.with_suffix(".json").read_text())["meta"]
    golden = json.loads((PERFBENCH / "golden.json").read_text())[workload]
    assert meta["exit_code"] == golden["exit_code"] == 0
    assert meta["sha256"] == golden["sha256"]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_untraced_workload_matches_golden(workload):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-m", "charblocks.cli", *WORKLOADS[workload].argv],
        cwd=ROOT, env=env, capture_output=True, timeout=120,
    )
    golden = load_golden()[workload]
    assert proc.returncode == golden["exit_code"] == 0, proc.stderr
    assert sha256(proc.stdout) == golden["sha256"]
