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

from .blocks import blocks_of, core_groups, count_matrix, extremal_lambda, min_nonzero
from .characters import chi_bar_value, shared_engine
from .partitions import (
    diagonal_hooks,
    dominance_leq,
    is_e_class_regular,
    partitions_of,
    remove_hook,
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
            keys = list(self.rows[0].keys())
            table = [keys] + [[str(r.get(k, "")) for k in keys] for r in self.rows]
            widths = [max(len(row[i]) for row in table) for i in range(len(keys))]
            for row in table:
                lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip())
        for ce in self.counterexamples:
            lines.append(f"COUNTEREXAMPLE: {ce}")
        lines.append(f"verdict: {self.verdict}")
        return "\n".join(lines)


def _finish(report: SweepReport) -> SweepReport:
    report.verdict = "fail" if report.counterexamples else "pass"
    return report


def _run_tasks(fn, tasks, jobs: int):
    if jobs <= 1:
        return [fn(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, tasks))


# ---------------------------------------------------------------------------
# Block sweeps: one block x class count matrix per (e, n) task.  theorem1 and
# the dichotomy read it over the regular classes, remark1 over the others.


def _block_rows(task):
    format_row, regular, e, n = task
    blocks = blocks_of(e, n)
    classes = [lam for lam in partitions_of(n) if is_e_class_regular(lam, e) == regular]
    counts = count_matrix(core_groups(e, n), classes)
    return [
        {"e": e, "n": n, "core": render_partition(b.core), "w": b.weight,
         **format_row(b, counts[b.core])}
        for b in blocks
    ]


def _block_sweep(format_row, regular: bool, e_values, n_max: int, jobs: int,
                 **params) -> SweepReport:
    e_values = sorted(set(e_values))
    # Largest n first: a task costs about p(n), and rows are sorted afterwards.
    tasks = [(format_row, regular, e, n) for n in range(n_max, 0, -1) for e in e_values]
    rows = [r for chunk in _run_tasks(_block_rows, tasks, jobs) for r in chunk]
    rows.sort(key=lambda r: (r["e"], r["n"], r["core"]))
    report = SweepReport(params={"e": e_values, "n_max": n_max, **params}, rows=rows)
    report.counterexamples = [r for r in rows if not r.get("ok", True)]
    return _finish(report)


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


def _count_nonzero(lam, engine) -> int:
    n = sum(lam)
    return sum(1 for nu in partitions_of(n) if engine.char_value(nu, lam) != 0)


def _exceeds_sqrt_bound(c: int, n: int) -> bool:
    # c > n - sqrt(2n) + 1, decided exactly in integers
    t = n + 1 - c
    return t <= 0 or t * t < 2 * n


def verify_remark2(n_max: int, bound_max: int | None = None) -> SweepReport:
    """e=1 checks: the class (n-1, 1) misses exactly one character for n >= 3,
    and every class count beats n - sqrt(2n) + 1.  Whether the minimum count
    equals n-1 is reported, not asserted."""
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    bound_max = n_max if bound_max is None else bound_max
    eng = shared_engine()
    report = SweepReport(params={"n_max": n_max, "bound_max": bound_max})
    for n in range(3, n_max + 1):
        c_transposition_free = _count_nonzero((n - 1, 1), eng)
        ok = c_transposition_free == n - 1
        row = {
            "n": n,
            "c_(n-1,1)": c_transposition_free,
            "expected": n - 1,
            "ok": ok,
        }
        if n <= bound_max:
            counts = [_count_nonzero(lam, eng) for lam in partitions_of(n)]
            bound_ok = all(_exceeds_sqrt_bound(c, n) for c in counts)
            row["bound_ok"] = bound_ok
            row["min_c"] = min(counts)
            row["conjecture_min_is_n_minus_1"] = min(counts) == n - 1
            ok = ok and bound_ok
            row["ok"] = ok
        report.rows.append(row)
        if not ok:
            report.counterexamples.append(row)
    return _finish(report)


# ---------------------------------------------------------------------------
# Sign lemma for double hook-removal configurations


def _removal_map(p):
    """All single-hook removals of p as {result: leg}.

    For a fixed result the removed hook is unique, so the leg is well defined.
    """
    out = {}
    for i in range(1, len(p) + 1):
        for j in range(1, p[i - 1] + 1):
            q, leg = remove_hook(p, i, j)
            out[q] = leg
    return out


def lemma1_sweep(m_max: int) -> SweepReport:
    """For every pair of distinct partitions of the same size m <= m_max and
    every pair of distinct common single-hook-removal results, check that the
    four leg lengths have odd sum."""
    report = SweepReport(params={"m_max": m_max})
    for m in range(2, m_max + 1):
        parts = partitions_of(m)
        checked = 0
        failures = []
        maps = {d: _removal_map(d) for d in parts}
        for a in range(len(parts)):
            for b in range(a + 1, len(parts)):
                d1, d2 = parts[a], parts[b]
                common = sorted(set(maps[d1]) & set(maps[d2]), reverse=True)
                for x in range(len(common)):
                    for y in range(x + 1, len(common)):
                        g1, g2 = common[x], common[y]
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
        report.rows.append({"m": m, "checked": checked, "failures": len(failures)})
        report.counterexamples.extend(failures)
    return _finish(report)


# ---------------------------------------------------------------------------
# Vanishing of the signed hook-addition combinations


def _chibar_rows(task):
    (n,) = task
    failures = []
    checked = 0
    for length in range(1, n + 1):
        for phi in partitions_of(n - length):
            for lam in partitions_of(n):
                if length in lam:
                    continue
                checked += 1
                if chi_bar_value(phi, length, lam) != 0:
                    failures.append(
                        {
                            "n": n,
                            "length": length,
                            "phi": render_partition(phi),
                            "class": render_partition(lam),
                        }
                    )
    return [{"n": n, "checked": checked, "failures": failures}]


def verify_chibar(n_max: int, jobs: int = 1) -> SweepReport:
    """The signed hook-addition combination vanishes on every class with no
    part equal to the hook length."""
    tasks = [(n,) for n in range(n_max, 0, -1)]
    rows = [r for chunk in _run_tasks(_chibar_rows, tasks, jobs) for r in chunk]
    rows.sort(key=lambda r: r["n"])
    report = SweepReport(params={"n_max": n_max})
    report.rows = rows
    report.counterexamples = [f for r in rows for f in r["failures"]]
    for r in rows:
        r["failures"] = len(r["failures"])
    return _finish(report)


# ---------------------------------------------------------------------------
# Structure of the non-vanishing sets behind the extremal construction


def _near_hook_set(n: int):
    """{(n), (1^n)} together with (a, 2, 1^(n-a-2)) for 2 <= a <= n-2."""
    out = {(n,), tuple([1] * n)}
    for a in range(2, n - 1):
        out.add((a, 2) + (1,) * (n - a - 2))
    return out


def nonvanishing_row_structure_check(n_max: int, e_values=(2, 3, 4, 5)) -> SweepReport:
    """Three structural facts feeding the extremal count:

    (a) the characters non-zero on (n-1, 1) are exactly the near-hooks;
    (b) with the constructed class of a non-empty-core block, every first
        row/column extension of the core has non-zero value;
    (c) non-vanishing on the constructed class forces dominance below the
        diagonal-hook partition.
    """
    eng = shared_engine()
    report = SweepReport(params={"n_max": n_max, "e": sorted(set(e_values))})
    for n in range(2, n_max + 1):
        lam = (n - 1, 1)
        actual = {nu for nu in partitions_of(n) if eng.char_value(nu, lam) != 0}
        ok = actual == _near_hook_set(n)
        report.rows.append({"check": "near_hooks", "n": n, "ok": ok})
        if not ok:
            report.counterexamples.append({"check": "near_hooks", "n": n})
    for e in sorted(set(e_values)):
        for n in range(1, n_max + 1):
            blocks = blocks_of(e, n)
            groups = core_groups(e, n)
            for b in blocks:
                if not b.core:
                    continue
                lam = extremal_lambda(b)
                we = b.weight * b.e
                ext_ok = True
                for d in range(we + 1):
                    psi = (b.core[0] + d,) + b.core[1:] + (1,) * (we - d)
                    if eng.char_value(psi, lam) == 0:
                        ext_ok = False
                dom_ok = all(
                    dominance_leq(lam, diagonal_hooks(nu))
                    for nu in groups[b.core]
                    if eng.char_value(nu, lam) != 0
                )
                row = {
                    "check": "block",
                    "e": e,
                    "n": n,
                    "core": render_partition(b.core),
                    "w": b.weight,
                    "extensions_ok": ext_ok,
                    "dominance_ok": dom_ok,
                    "ok": ext_ok and dom_ok,
                }
                report.rows.append(row)
                if not (ext_ok and dom_ok):
                    report.counterexamples.append(row)
    return _finish(report)
