"""The benchmark's traced path runs against this checkout.

`perfbench/traced.py` wraps the library functions that `perfbench/spans.py`
names with span probes before it runs a workload.  A probed name that the
library no longer has makes the traced run fail, so this test runs each
traced workload in a fresh process and checks its exit code and stdout
digest against `perfbench/golden.json`.  It writes only under tmp_path.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


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
