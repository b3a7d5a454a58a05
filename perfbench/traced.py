"""Traced run of one workload inside one process.

    python3 perfbench/traced.py WORKLOAD OUT_PREFIX

Imports `charblocks` from the checkout's `src/`, wraps its layer functions
with span probes, runs `cli.main` on the workload's command line with
stdout captured, and writes the spans to OUT_PREFIX.json / OUT_PREFIX.bin.
The meta block holds the exit code, the stdout digest, the memo size before
and after, and the monotonic time at which `cli.main` returned, so the
parent can compare the traced wall time with the untraced one.
"""

from __future__ import annotations

import contextlib
import io
import sys
import time
from pathlib import Path

import spans
from workloads import SRC, WORKLOADS, sha256


def main(argv) -> int:
    workload = WORKLOADS[argv[0]]
    prefix = Path(argv[1])
    sys.path.insert(0, str(SRC))
    import charblocks
    from charblocks import cli

    recorder = spans.Recorder()
    spans.install(recorder, charblocks)
    engine = charblocks.characters.shared_engine()
    memo_before = engine.cache_size()
    run = recorder.wrap("cli.main", cli.main)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = run(list(workload.argv))
    t_end = time.monotonic()
    recorder.save(prefix, {
        "workload": workload.name,
        "argv": list(workload.argv),
        "exit_code": code,
        "sha256": sha256(buf.getvalue().encode()),
        "memo_before": memo_before,
        "memo_after": engine.cache_size(),
        "main_returned": t_end,
    })
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
