"""Benchmark of the charblocks CLI: end-to-end runs, a traced run, series and compare.

One run measures one workload:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--out FILE]

It byte-compiles `src/`, then runs the workload's CLI command as a child
process, one at a time (closed loop), until S seconds have passed.  Before
each of those runs it times REF_PROBES passes of the fixed reference loop in
hostref.py, and between them it launches the trivial `charblocks core --e 2
1` SETUP_PROBES times, spread evenly over the S seconds.  Every child's exit
code and stdout sha256 are checked against `golden.json`; a mismatch is a
failed attempt.

The program is deterministic, so the spread between its runs is the
host's: on a shared host a run is slowed by up to 2x while another tenant
shares its core, in spells of a tenth of a second to a few seconds, and the
undisturbed speed drifts by tens of percent over minutes.  So each timing
is the fastest of the run's samples, the least disturbed one, divided by the
fastest reference pass of the same run (which drifts with it) and
multiplied by hostref.REF_NOMINAL_S: seconds on a host where the reference
loop takes that long.  Workloads are sized to about half a second per
child, so that many children fall between the spells.  With --trace 0 the
last stdout line holds these end-to-end metrics; with --trace 1 it holds
the per-layer metrics, taken from one extra traced run inside one process
(see traced.py and spans.py).  The seed only orders workloads in a series: every workload
is a fixed exhaustive enumeration.

    python3 perfbench/run.py series --runs 10 --out FILE

runs every workload once for each seed 1..runs, in a seed-shuffled
interleaved order, each as its own `run.py` process of BENCHMARK.json's
run_seconds, then one traced run per workload, and writes the result set
with the environment it ran in.  It
prints every end-to-end metric by name and unit, per workload.

    python3 perfbench/run.py compare PARENT.json CHANGE.json

prints one verdict per workload and end-to-end metric (see compare.py).

    python3 perfbench/run.py record-golden

rewrites `golden.json` from the current program; run it only on a commit
whose outputs are known good.
"""

from __future__ import annotations

import argparse
import compileall
import contextlib
import json
import os
import platform
import random
import shlex
import signal
import statistics
import subprocess
import sys
import threading
import time

import compare
import hostref
import spans
from workloads import (
    BUILD_DIR,
    CLI_FILE,
    GOLDEN_FILE,
    ROOT,
    SETUP_ARGV,
    SETUP_KEY,
    SRC,
    WORKLOADS,
    load_golden,
    sha256,
)

SETUP_PROBES = 21
REF_PROBES = 6
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 150
BENCHMARK_FILE = ROOT / "BENCHMARK.json"
IMPORT_SNIPPET = ("import time; t = time.perf_counter(); import charblocks.cli; "
                  "print(time.perf_counter() - t)")


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def cli_command(argv) -> list:
    return [sys.executable, "-m", "charblocks.cli", *argv]


def spawn(cmd) -> dict:
    """Run cmd to completion in its own process group.

    Returns stdout, exit code, wall time from spawn to exit, and the
    user+sys CPU and peak RSS from os.wait4, which on Linux include the
    child's waited-for descendants (pool workers of a --jobs run).
    """
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    with open(BUILD_DIR / "stderr.txt", "wb") as err:
        t0 = time.monotonic()
        p = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=err, env=child_env(),
                             cwd=ROOT, start_new_session=True)
        timer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (p.pid, signal.SIGKILL))
        timer.start()
        try:
            out = p.stdout.read()
            _, status, usage = os.wait4(p.pid, 0)
        finally:
            timer.cancel()
            p.stdout.close()
    wall = time.monotonic() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    with contextlib.suppress(ProcessLookupError):
        os.killpg(p.pid, signal.SIGKILL)  # anything the child left behind
    return {
        "stdout": out,
        "exit_code": p.returncode,
        "spawned": t0,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024,
    }


def run_cli(argv, expect: dict) -> dict:
    """One CLI run, checked against its golden digest and exit code."""
    r = spawn(cli_command(argv))
    r["sha256"] = sha256(r.pop("stdout"))
    r["ok"] = r["sha256"] == expect["sha256"] and r["exit_code"] == expect["exit_code"]
    return r


def build() -> None:
    """Byte-compile the program so no measured run pays for compilation."""
    if not compileall.compile_dir(str(SRC), quiet=1):
        raise SystemExit("error: src/ does not byte-compile")


def cpu_model() -> str:
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as f:
        for line in f:
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "unknown"


def environment(seed, commands) -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit(),
        "seed": seed,
        "commands": ["PYTHONPATH=src " + shlex.join(["python3", *c[1:]]) for c in commands],
    }


def median_of(samples, key):
    return statistics.median(s[key] for s in samples)


def normalized(times, ref_times) -> float:
    """The fastest of `times` in seconds at the reference host speed: divided by
    the fastest reference pass and multiplied by REF_NOMINAL_S."""
    return min(times) / min(ref_times) * hostref.REF_NOMINAL_S


def declared_metrics() -> dict:
    return json.loads(BENCHMARK_FILE.read_text())


def traced_run(workload, expect) -> dict:
    """The traced in-process run: per-layer metrics, ok flag and traced wall."""
    prefix = BUILD_DIR / f"spans-{workload.name}"
    r = spawn([sys.executable, str(ROOT / "perfbench" / "traced.py"), workload.name,
               str(prefix)])
    if r["exit_code"] != 0:
        return {"ok": False}
    header, *arrays = spans.load(prefix)
    meta = header["meta"]
    metrics = spans.layer_metrics(spans.summarize(header, *arrays), meta)
    ok = meta["sha256"] == expect["sha256"] and meta["exit_code"] == expect["exit_code"]
    return {"ok": ok, "metrics": metrics, "wall_s": meta["main_returned"] - r["spawned"],
            "spans": header["count"]}


def import_time() -> float:
    """Median time to import charblocks.cli in a fresh interpreter."""
    times = []
    for _ in range(IMPORT_PROBES):
        r = spawn([sys.executable, "-c", IMPORT_SNIPPET])
        times.append(float(r["stdout"]))
    return statistics.median(times)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    golden = load_golden()
    build()
    # The setup probes keep pace with the clock: by the time a share of the
    # run has passed, that share of them has run, so setup_s is not taken
    # from a single moment of the host's state.
    setup, samples, refs = [], [], []
    t0 = time.monotonic()
    while True:
        share = min(1.0, (time.monotonic() - t0) / seconds) if seconds > 0 else 1.0
        if len(setup) < 1 + share * (SETUP_PROBES - 1):
            setup.append(run_cli(SETUP_ARGV, golden[SETUP_KEY]))
        elif not samples or share < 1:
            refs.extend(hostref.time_reference() for _ in range(REF_PROBES))
            samples.append(run_cli(workload.argv, golden[name]))
        else:
            break
    attempted = len(setup) + len(samples)
    failed = sum(not s["ok"] for s in setup + samples)
    metrics = {
        "wall_s": (normalized([s["wall_s"] for s in samples], refs), "s"),
        "cpu_s": (normalized([s["cpu_s"] for s in samples], refs), "s"),
        "peak_rss_mb": (median_of(samples, "peak_rss_mb"), "MB"),
        "setup_s": (normalized([s["wall_s"] for s in setup], refs), "s"),
    }
    expected = declared_metrics()["per_layer" if trace else "end_to_end"]
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "samples": samples, "setup_samples": setup, "refs": refs}
    if trace:
        traced = traced_run(workload, golden[name])
        attempted += 1
        failed += not traced["ok"]
        if traced["ok"]:
            metrics = dict(traced["metrics"])
            metrics["cli.import_s"] = (import_time(), "s")
            metrics["trace.overhead_ratio"] = (
                traced["wall_s"] / min(s["wall_s"] for s in samples), "ratio")
            record["spans"] = traced["spans"]
        else:
            metrics = {}
    names = [m["name"] for m in expected]
    if failed == 0 and sorted(metrics) != sorted(names):
        raise SystemExit(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json")
    record.update(
        env=environment(seed, [cli_command(workload.argv), cli_command(SETUP_ARGV)]),
        metrics={k: v for k, (v, _) in metrics.items()},
        attempted=attempted,
        failed=failed,
        correct=failed == 0,
    )
    for key in names:
        if key in metrics:
            print(f"{name}  {key} = {metrics[key][0]:.6g} {metrics[key][1]}")
    print(f"{name}  samples = {len(samples)}, setup probes = {len(setup)}, "
          f"reference passes = {len(refs)}, error_rate = {failed}/{attempted}")
    print(f"{name}  raw wall s: min {min(s['wall_s'] for s in samples):.4f}, "
          f"median {median_of(samples, 'wall_s'):.4f}; reference pass s: "
          f"min {min(refs):.5f}, median {statistics.median(refs):.5f}")
    print("env " + json.dumps(record["env"]))
    record["result"] = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return record


# ---------------------------------------------------------------------------
# Series of runs, the trajectory files and compare mode


def series(args) -> int:
    names = sorted(WORKLOADS)
    runs = {n: [] for n in names}
    tmp = BUILD_DIR / "series-run.json"
    seeds = list(range(1, args.runs + 1))
    seconds = declared_metrics()["run_seconds"]
    for seed in seeds:
        order = list(names)
        random.Random(seed).shuffle(order)
        for name in order:
            cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0", "--out", str(tmp)]
            subprocess.run(cmd, stdout=subprocess.DEVNULL, check=True)
            rec = json.loads(tmp.read_text())
            runs[name].append({k: rec[k] for k in ("seed", "metrics", "attempted",
                                                    "failed", "correct")})
            print(f"seed {seed} {name}: " + ", ".join(
                f"{k}={v:.4g}" for k, v in rec["metrics"].items()), flush=True)
    traced = {}
    if args.trace:
        for name in names:
            rec = run_workload(name, seeds[0], seconds, trace=True)
            traced[name] = {"metrics": rec["metrics"], "spans": rec.get("spans"),
                            "correct": rec["correct"]}
    end_to_end = {m["name"]: m for m in declared_metrics()["end_to_end"]}
    summary = compare.summarize(runs, list(end_to_end.values()))
    print()
    for name, row in summary.items():
        for metric, v in row.items():
            m = end_to_end[metric]
            print(f"{name:22s} {metric:12s} median {v['median']:9.4f} {m['unit']:3s} "
                  f"[{v['q1']:.4f}, {v['q3']:.4f}]  spread {v['spread']:.3f} "
                  f"(bound {m['bound']})")
        if name in runs:
            failed = sum(r["failed"] for r in runs[name])
            attempted = sum(r["attempted"] for r in runs[name])
            print(f"{name:22s} {'error_rate':12s} {failed}/{attempted}")
    result = {
        "env": environment(seeds, [cli_command(WORKLOADS[n].argv) for n in names]
                           + [cli_command(SETUP_ARGV)]),
        "seconds": seconds,
        "runs": runs,
        "summary": summary,
        "traced": traced,
    }
    with open(args.out, "w") as f:
        json.dump(result, f, indent=1)
        f.write("\n")
    return 0


def compare_cmd(args) -> int:
    parent = json.loads(open(args.parent).read())
    change = json.loads(open(args.change).read())

    def fmt(side):
        if isinstance(side, str):
            return f"{side:>26s}"
        q1, med, q3 = side
        return f"{med:9.4f} [{q1:.4f}, {q3:.4f}]"

    try:
        rows = compare.compare(parent, change, declared_metrics()["end_to_end"])
    except ValueError as e:
        raise SystemExit(f"error: {e}") from None
    print(f"{'workload':22s} {'metric':12s} {'unit':5s} {'parent median [q1, q3]':>26s} "
          f"{'change median [q1, q3]':>26s}  verdict")
    for workload, metric, unit, p, c, v in rows:
        print(f"{workload:22s} {metric:12s} {unit:5s} {fmt(p)} {fmt(c)}  {v}")
    return 0


def record_golden(args) -> int:
    build()
    golden = {}
    for key, argv in [(SETUP_KEY, SETUP_ARGV)] + [(n, w.argv) for n, w in WORKLOADS.items()]:
        r = spawn(cli_command(argv))
        golden[key] = {"sha256": sha256(r["stdout"]), "exit_code": r["exit_code"],
                       "bytes": len(r["stdout"])}
        print(f"{key}: {golden[key]}")
    GOLDEN_FILE.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv) -> int:
    if not CLI_FILE.is_file():
        print(f"error: {CLI_FILE.relative_to(ROOT)} not found; run from a charblocks "
              "checkout", file=sys.stderr)
        return 2
    sub = {"series": series, "compare": compare_cmd, "record-golden": record_golden}
    if argv and argv[0] in sub:
        p = argparse.ArgumentParser(prog=f"run.py {argv[0]}")
        if argv[0] == "series":
            p.add_argument("--runs", type=int, default=10, help="seeds 1..RUNS")
            p.add_argument("--trace", type=int, choices=[0, 1], default=1,
                           help="also make one traced run per workload")
            p.add_argument("--out", required=True)
        elif argv[0] == "compare":
            p.add_argument("parent")
            p.add_argument("change")
        return sub[argv[0]](p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(prog="run.py")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--out", help="also write the full record (samples, env) here")
    args = p.parse_args(argv)
    record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    if args.out:
        with open(args.out, "w") as f:
            json.dump({k: v for k, v in record.items() if k != "result"}, f, indent=1)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
