"""Exhaustive verification sweeps and their reports.

Each sweep enumerates a finite parameter range, checks the claimed identity
or inequality on every instance, and returns a SweepReport whose verdict is
"pass" exactly when no check failed.  Exploratory sweeps (the remarks about
conjectural behaviour) always report "pass" and carry their observations in
the rows instead.
"""

from __future__ import annotations

import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import partial
from itertools import combinations

from .blocks import blocks_of, count_matrix, extremal_lambda, min_nonzero
from .characters import chi_bar_coeffs, shared_engine
from .partitions import (
    diagonal_hooks,
    dominance_leq,
    hook_lengths,
    is_e_class_regular,
    partitions_of,
    remove_hooks_of_length,
    render_partition,
)


@dataclass
class SweepReport:
    params: dict
    rows: list = field(default_factory=list)
    verdict: str = "pass"
    counterexamples: list = field(default_factory=list)

    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_json(self, meta: bool = True) -> str:
        obj = {
            "params": self.params,
            "rows": self.rows,
            "verdict": self.verdict,
            "counterexamples": self.counterexamples,
        }
        if meta:
            obj["meta"] = {"generated": datetime.now(timezone.utc).isoformat()}
        return json.dumps(obj, indent=2)

    def to_text(self) -> str:
        lines = [f"params: {self.params}"]
        if self.rows:
            # Rows of one report may differ in columns; show all, first seen first.
            keys = list(dict.fromkeys(k for r in self.rows for k in r))
            table = [keys] + [[str(r.get(k, "")) for k in keys] for r in self.rows]
            widths = [max(len(row[i]) for row in table) for i in range(len(keys))]
            for row in table:
                lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        for ce in self.counterexamples:
            lines.append(f"COUNTEREXAMPLE: {ce}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def _sweep(task_fn, tasks, jobs: int, params: dict) -> SweepReport:
    """Run task_fn on every task and join its (rows, counterexamples) results
    in task order; the verdict is "fail" exactly when a counterexample exists.

    Each task is a tuple ending in its n.  A task costs about p(n), so the
    largest n is dispatched first.  More than one job runs the tasks in a
    process pool of at most one worker per task.
    """
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    order = sorted(range(len(tasks)), key=lambda i: tasks[i][-1], reverse=True)
    dispatched = [tasks[i] for i in order]
    workers = min(jobs, len(tasks))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(task_fn, dispatched))
    else:
        done = [task_fn(t) for t in dispatched]
    report = SweepReport(params=params)
    for _, (rows, counterexamples) in sorted(zip(order, done), key=lambda r: r[0]):
        report.rows.extend(rows)
        report.counterexamples.extend(counterexamples)
    report.verdict = "fail" if report.counterexamples else "pass"
    return report


# ---------------------------------------------------------------------------
# Block sweeps: one block x class count matrix per (e, n) task.  theorem1 and
# the dichotomy read it over the regular classes, remark1 over the others.


def _block_rows(format_row, regular: bool, task):
    e, n = task
    blocks = blocks_of(e, n)
    classes = [lam for lam in partitions_of(n) if is_e_class_regular(lam, e) == regular]
    rows = [
        {"e": e, "n": n, "core": render_partition(b.core), "w": b.weight,
         **format_row(b, counts)}
        for b, counts in count_matrix(blocks, classes).items()
    ]
    # Reports list a task's blocks by rendered core, as text ("10" < "2").
    rows.sort(key=lambda r: r["core"])
    return rows, [r for r in rows if not r.get("ok", True)]


def _block_sweep(format_row, regular: bool, e_values, n_max: int, jobs: int,
                 **params) -> SweepReport:
    e_values = sorted(set(e_values))
    tasks = [(e, n) for e in e_values for n in range(1, n_max + 1)]
    return _sweep(partial(_block_rows, format_row, regular), tasks, jobs,
                  {"e": e_values, "n_max": n_max, **params})


def _theorem1_row(b, counts):
    target = b.weight + 1
    best, argmin, zeros = min_nonzero(counts)
    ext = extremal_lambda(b)
    ext_count = counts[ext]
    return {
        "min": best,
        "argmin": render_partition(argmin) if argmin else None,
        "zero_classes": len(zeros),
        "extremal": render_partition(ext),
        "extremal_count": ext_count,
        "expected": target,
        "ok": (best is None or best == target) and ext_count == target,
    }


def _small_counts(b, counts):
    """Classes whose count lies strictly between 0 and weight+1."""
    return [{"class": render_partition(lam), "count": c}
            for lam, c in counts.items() if 0 < c < b.weight + 1]


def _dichotomy_row(b, counts):
    failures = _small_counts(b, counts)
    return {"classes_checked": len(counts), "failures": failures, "ok": not failures}


def _remark1_row(b, counts):
    return {"classes_checked": len(counts), "violations": _small_counts(b, counts)}


def verify_theorem1(e_values, n_max: int, jobs: int = 1) -> SweepReport:
    """Check, block by block, that the minimum non-zero count over regular
    classes is weight+1 and that the constructed class attains it."""
    return _block_sweep(_theorem1_row, True, e_values, n_max, jobs)


def verify_dichotomy(e_values, n_max: int, jobs: int = 1) -> SweepReport:
    """Check that every regular class has count 0 or at least weight+1."""
    return _block_sweep(_dichotomy_row, True, e_values, n_max, jobs)


def verify_remark1(e_values, n_max: int, jobs: int = 1) -> SweepReport:
    """Dichotomy evidence over non-regular classes.  Exploratory: violations
    are reported in the rows but never fail the sweep."""
    return _block_sweep(_remark1_row, False, e_values, n_max, jobs, exploratory=True)


# ---------------------------------------------------------------------------
# e = 1: counts over the full character table of S_n


def _exceeds_sqrt_bound(c: int, n: int) -> bool:
    # c > n - sqrt(2n) + 1, decided exactly in integers
    t = n + 1 - c
    return t <= 0 or t * t < 2 * n


def _remark2_rows(bound_max: int, task):
    # e = 1: the whole character table of S_n is a single block.
    (n,) = task
    hook = (n - 1, 1)
    classes = partitions_of(n) if n <= bound_max else [hook]
    counts = count_matrix({(): partitions_of(n)}, classes)[()]
    row = {"n": n, "c_(n-1,1)": counts[hook], "expected": n - 1,
           "ok": counts[hook] == n - 1}
    if n <= bound_max:
        bound_ok = all(_exceeds_sqrt_bound(c, n) for c in counts.values())
        row["bound_ok"] = bound_ok
        row["min_c"] = min(counts.values())
        row["conjecture_min_is_n_minus_1"] = row["min_c"] == n - 1
        row["ok"] = row["ok"] and bound_ok
    return [row], [] if row["ok"] else [row]


def verify_remark2(n_max: int, bound_max: int | None = None, jobs: int = 1) -> SweepReport:
    """e=1 checks: the class (n-1, 1) misses exactly one character for n >= 3,
    and every class count beats n - sqrt(2n) + 1.  Whether the minimum count
    equals n-1 is reported, not asserted."""
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    bound_max = n_max if bound_max is None else bound_max
    tasks = [(n,) for n in range(3, n_max + 1)]
    return _sweep(partial(_remark2_rows, bound_max), tasks, jobs,
                  {"n_max": n_max, "bound_max": bound_max})


# ---------------------------------------------------------------------------
# Sign lemma for double hook-removal configurations


def _removal_map(p):
    """All single-hook removals of p as {result: leg}.

    For a fixed result the removed hook is unique, so the leg is well defined.
    """
    return {q: leg for h in set(hook_lengths(p).values())
            for q, leg in remove_hooks_of_length(p, h)}


def _lemma1_rows(task):
    (m,) = task
    parts = partitions_of(m)
    checked = 0
    failures = []
    maps = {d: _removal_map(d) for d in parts}
    for d1, d2 in combinations(parts, 2):
        common = sorted(set(maps[d1]) & set(maps[d2]), reverse=True)
        for g1, g2 in combinations(common, 2):
            legs = (maps[d1][g1], maps[d2][g1], maps[d1][g2], maps[d2][g2])
            checked += 1
            if (-1) ** sum(legs) != -1:
                failures.append(
                    {
                        "delta1": render_partition(d1),
                        "delta2": render_partition(d2),
                        "gamma1": render_partition(g1),
                        "gamma2": render_partition(g2),
                        "legs": list(legs),
                    }
                )
    return [{"m": m, "checked": checked, "failures": len(failures)}], failures


def lemma1_sweep(m_max: int, jobs: int = 1) -> SweepReport:
    """For every pair of distinct partitions of the same size m <= m_max and
    every pair of distinct common single-hook-removal results, check that the
    four leg lengths have odd sum."""
    tasks = [(m,) for m in range(2, m_max + 1)]
    return _sweep(_lemma1_rows, tasks, jobs, {"m_max": m_max})


# ---------------------------------------------------------------------------
# Vanishing of the signed hook-addition combinations


def _chibar_rows(task):
    (n,) = task
    mn = shared_engine()._mn
    failures = []
    checked = 0
    for length in range(1, n + 1):
        for phi in partitions_of(n - length):
            coeffs = chi_bar_coeffs(phi, length, n)
            for lam in partitions_of(n):
                if length in lam:
                    continue
                checked += 1
                if sum(c * mn(beta, lam) for beta, c in coeffs.items()) != 0:
                    failures.append(
                        {
                            "n": n,
                            "length": length,
                            "phi": render_partition(phi),
                            "class": render_partition(lam),
                        }
                    )
    return [{"n": n, "checked": checked, "failures": len(failures)}], failures


def verify_chibar(n_max: int, jobs: int = 1) -> SweepReport:
    """The signed hook-addition combination vanishes on every class with no
    part equal to the hook length."""
    tasks = [(n,) for n in range(1, n_max + 1)]
    return _sweep(_chibar_rows, tasks, jobs, {"n_max": n_max})


# ---------------------------------------------------------------------------
# Structure of the non-vanishing sets behind the extremal construction


def _near_hook_set(n: int):
    """{(n), (1^n)} together with (a, 2, 1^(n-a-2)) for 2 <= a <= n-2."""
    out = {(n,), tuple([1] * n)}
    for a in range(2, n - 1):
        out.add((a, 2) + (1,) * (n - a - 2))
    return out


def _rowstructure_rows(task):
    mn = shared_engine()._mn
    if task[0] == "near_hooks":
        n = task[1]
        lam = (n - 1, 1)
        actual = {nu for nu in partitions_of(n) if mn(nu, lam) != 0}
        ok = actual == _near_hook_set(n)
        return ([{"check": "near_hooks", "n": n, "ok": ok}],
                [] if ok else [{"check": "near_hooks", "n": n}])
    _, e, n = task
    rows = []
    for b, members in blocks_of(e, n).items():
        if not b.core:
            continue
        lam = extremal_lambda(b)
        we = b.weight * b.e
        ext_ok = all(
            mn((b.core[0] + d,) + b.core[1:] + (1,) * (we - d), lam) != 0
            for d in range(we + 1)
        )
        dom_ok = all(
            dominance_leq(lam, diagonal_hooks(nu))
            for nu in members
            if mn(nu, lam) != 0
        )
        rows.append({
            "check": "block",
            "e": e,
            "n": n,
            "core": render_partition(b.core),
            "w": b.weight,
            "extensions_ok": ext_ok,
            "dominance_ok": dom_ok,
            "ok": ext_ok and dom_ok,
        })
    return rows, [r for r in rows if not r["ok"]]


def nonvanishing_row_structure_check(n_max: int, e_values=(2, 3, 4, 5),
                                     jobs: int = 1) -> SweepReport:
    """Three structural facts feeding the extremal count:

    (a) the characters non-zero on (n-1, 1) are exactly the near-hooks;
    (b) with the constructed class of a non-empty-core block, every first
        row/column extension of the core has non-zero value;
    (c) non-vanishing on the constructed class forces dominance below the
        diagonal-hook partition.
    """
    e_values = sorted(set(e_values))
    tasks = [("near_hooks", n) for n in range(2, n_max + 1)]
    tasks += [("block", e, n) for e in e_values for n in range(1, n_max + 1)]
    return _sweep(_rowstructure_rows, tasks, jobs, {"n_max": n_max, "e": e_values})
