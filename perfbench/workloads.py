"""The benchmark's fixed workloads, paths and golden output digests.

Every workload is a deterministic exhaustive enumeration run through the
real `charblocks` CLI, so its stdout is known byte for byte: `golden.json`
holds the sha256 and exit code each one gave at the commit the benchmark
was defined on.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
CLI_FILE = SRC / "charblocks" / "cli.py"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
GOLDEN_FILE = BENCH_DIR / "golden.json"


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple


# Why each workload was chosen is recorded with it in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("theorem1-n10",
                 ("verify", "theorem1", "--e", "2..5", "--max-n", "10",
                  "--format", "json", "--no-meta")),
        Workload("table-n15", ("table", "--n", "15", "--format", "csv")),
    )
}

# The trivial command whose wall time is setup_s: interpreter start plus import.
SETUP_ARGV = ("core", "--e", "2", "1")
SETUP_KEY = "setup"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def load_golden() -> dict:
    """{workload name or SETUP_KEY: {"sha256": ..., "exit_code": ..., "bytes": ...}}."""
    return json.loads(GOLDEN_FILE.read_text())
