"""Statistics over runs and the verdict of a change against its parent.

A result set is what `run.py series` writes: for each workload a list of
runs, each with its seed, the end-to-end metrics and its attempted/failed
counts, plus the run length and the environment.  `compare` refuses two
sets whose run length, core count or CPU model differ.  It pairs the
parent's and the change's runs by seed and gives one verdict per workload
and end-to-end metric:

- improved: the change wins at least 9 of every 10 pairs (ties count for
  neither) and the medians differ by more than the parent's interquartile
  range;
- unresolved: the run-to-run spread (IQR over median) of either side is
  wider than the metric's bound, unless every run of the change is better
  than every run of the parent;
- regressed: the change's median is worse than the parent's by more than
  the bound;
- unchanged: otherwise.

setup_s times the same command whatever the workload, so its runs are
pooled over the workloads and judged once, in a row for workload "all".
"""

from __future__ import annotations

import statistics

# Metrics of the setup probe, which does not depend on the workload.
POOLED = {"setup_s"}


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Interquartile range as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / med if med else 0.0


def summarize(runs: dict, end_to_end: list) -> dict:
    """{workload: {metric: {median, q1, q3, spread}}} over a result set's runs,
    with the pooled metrics under workload "all" only."""
    groups = dict(runs, all=[r for rs in runs.values() for r in rs])
    summary = {}
    for group, rs in groups.items():
        for m in end_to_end:
            if (group == "all") != (m["name"] in POOLED):
                continue
            values = [r["metrics"][m["name"]] for r in rs]
            q1, med, q3 = quartiles(values)
            summary.setdefault(group, {})[m["name"]] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread(values)}
    return summary


def verdict(parent, change, better: str, bound: float) -> str:
    """Verdict for one metric; parent[i] and change[i] form pair i."""
    sign = 1 if better == "lower" else -1
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * (p - c) > 0)
    q1, mp, q3 = quartiles(parent)
    mc = statistics.median(change)
    gain = sign * (mp - mc)
    all_better = max(sign * c for c in change) < min(sign * p for p in parent)
    wide = max(spread(parent), spread(change)) > bound
    if wide and not all_better:
        return "unresolved"
    if wins >= 0.9 * len(pairs) and gain > q3 - q1:
        return "improved"
    if -gain > bound * abs(mp):
        return "regressed"
    return "unchanged"


def error_verdict(parent_failed: int, parent_attempted: int,
                  change_failed: int, change_attempted: int) -> str:
    """error_rate = failed / attempted; any rise over the parent is a regression."""
    p = parent_failed / parent_attempted
    c = change_failed / change_attempted
    if c > p:
        return "regressed"
    if c < p:
        return "improved"
    return "unchanged"


def compare(parent: dict, change: dict, end_to_end: list) -> list:
    """Rows (workload, metric, unit, parent, change, verdict).

    parent and change are (q1, median, q3) for a metric, or "failed/attempted"
    for error_rate.  Runs are paired by seed (by workload and seed for the
    pooled metrics).
    """
    for what, get in (("run length", lambda r: r["seconds"]),
                      ("nproc", lambda r: r["env"]["nproc"]),
                      ("CPU model", lambda r: r["env"]["cpu_model"])):
        if get(parent) != get(change):
            raise ValueError(f"the result sets differ in {what}: "
                             f"{get(parent)!r} and {get(change)!r}")
    rows = []
    pooled = {m["name"]: ([], []) for m in end_to_end if m["name"] in POOLED}
    for workload, prow in parent["runs"].items():
        by_seed = {r["seed"]: r for r in change["runs"].get(workload, [])}
        paired = [(p, by_seed[p["seed"]]) for p in prow if p["seed"] in by_seed]
        if not paired:
            continue
        for m in end_to_end:
            pv = [p["metrics"][m["name"]] for p, _ in paired]
            cv = [c["metrics"][m["name"]] for _, c in paired]
            if m["name"] in pooled:
                pooled[m["name"]][0].extend(pv)
                pooled[m["name"]][1].extend(cv)
                continue
            rows.append((workload, m["name"], m["unit"], quartiles(pv), quartiles(cv),
                         verdict(pv, cv, m["better"], m["bound"])))
        pf = sum(p["failed"] for p, _ in paired)
        cf = sum(c["failed"] for _, c in paired)
        pa = sum(p["attempted"] for p, _ in paired)
        ca = sum(c["attempted"] for _, c in paired)
        rows.append((workload, "error_rate", "ratio", f"{pf}/{pa}", f"{cf}/{ca}",
                     error_verdict(pf, pa, cf, ca)))
    for m in end_to_end:
        if pooled.get(m["name"], ([], []))[0]:
            pv, cv = pooled[m["name"]]
            rows.append(("all", m["name"], m["unit"], quartiles(pv), quartiles(cv),
                         verdict(pv, cv, m["better"], m["bound"])))
    return rows
