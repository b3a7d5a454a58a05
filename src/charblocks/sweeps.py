"""Exhaustive verification sweeps and their reports.

Each sweep enumerates a finite parameter range, checks the claimed identity
or inequality on every instance, and returns a SweepReport whose verdict is
"pass" exactly when no check failed.  Exploratory sweeps (the remarks about
conjectural behaviour) always report "pass" and carry their observations in
the rows instead.
"""

import os
from functools import partial
from itertools import chain, combinations

from .blocks import _extremal_lambda, blocks_of, count_matrix
from .characters import _columns, _table
from .partitions import (
    _bead_masks,
    _check_int,
    _diagonal_hooks,
    _moves,
    _parts,
    dominance_leq,
    partitions_of,
    render_partition,
)


class SweepReport:
    """A sweep's parameters, its rows and the rows of its failed checks."""

    def __init__(self, params: dict, rows: list, counterexamples: list):
        self.params = params
        self.rows = rows
        self.counterexamples = counterexamples

    @property
    def verdict(self) -> str:
        return "fail" if self.counterexamples else "pass"

    def to_json(self, meta: bool = True) -> str:
        from ._jsontext import dumps
        obj = {
            "params": self.params,
            "rows": self.rows,
            "verdict": self.verdict,
            "counterexamples": self.counterexamples,
        }
        if meta:
            from datetime import datetime, timezone
            obj["meta"] = {"generated": datetime.now(timezone.utc).isoformat()}
        return dumps(obj, indent=2)

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


def _sweep(task_fn, ns, jobs: int, params: dict, key=None) -> SweepReport:
    """Run task_fn(n) for every int n in ns and join its (rows,
    counterexamples) results in ascending n, then sort both stably by key
    if one is given.

    A task costs about p(n), so the largest n is dispatched first.  More than
    one job runs the tasks in a process pool of at most one worker per task
    and per CPU.  No task is a usage error."""
    _check_int("jobs", jobs)
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    ns = sorted(ns, reverse=True)
    if not ns:
        raise ValueError("nothing to verify: the range is empty")
    workers = min(jobs, len(ns), os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=workers) as pool:
            done = list(pool.map(task_fn, ns))
    else:
        done = [task_fn(n) for n in ns]
    rows, counterexamples = zip(*reversed(done))
    report = SweepReport(params, list(chain(*rows)), list(chain(*counterexamples)))
    if key is not None:
        report.rows.sort(key=key)
        report.counterexamples.sort(key=key)
    return report


# ---------------------------------------------------------------------------
# Block sweeps: one count_matrix call per n over the blocks of every e, so a class's
# column serves every e.  theorem1 and the dichotomy read each block's row over
# its e's regular classes, remark1 over the others.


def _block_rows(format_row, regular: bool, e_values, n: int):
    rows = [{"e": b.e, "n": n, "core": render_partition(b.core), "w": b.weight,
             **format_row(b, classes, counts)}
            for b, classes, counts in count_matrix(e_values, n, regular)]
    return rows, [r for r in rows if not r.get("ok", True)]


def _block_sweep(format_row, regular: bool, e_values, n_max: int, jobs: int,
                 **params) -> SweepReport:
    _check_int("n_max", n_max)
    e_values = sorted(set(e_values))
    ns = range(1, n_max + 1) if e_values else []
    # Reports list blocks by e, n and rendered core, as text ("10" < "2").
    return _sweep(partial(_block_rows, format_row, regular, e_values), ns, jobs,
                  {"e": e_values, "n_max": n_max, **params},
                  key=lambda r: (r["e"], r["n"], r["core"]))


def _theorem1_row(b, classes, counts):
    target = b.weight + 1
    best = min(filter(None, counts), default=None)
    ext = _extremal_lambda(b)
    ext_count = counts[classes.index(ext)]
    return {
        "min": best,
        "argmin": None if best is None else render_partition(classes[counts.index(best)]),
        "zero_classes": counts.count(0),
        "extremal": render_partition(ext),
        "extremal_count": ext_count,
        "expected": target,
        "ok": best == target and ext_count == target,
    }


def _small_counts(b, classes, counts):
    """Classes whose count lies strictly between 0 and weight+1."""
    return [{"class": render_partition(lam), "count": c}
            for lam, c in zip(classes, counts) if 0 < c < b.weight + 1]


def _dichotomy_row(b, classes, counts):
    failures = _small_counts(b, classes, counts)
    return {"classes_checked": len(counts), "failures": failures, "ok": not failures}


def _remark1_row(b, classes, counts):
    return {"classes_checked": len(counts), "violations": _small_counts(b, classes, counts)}


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


def _remark2_rows(n: int):
    # e = 1: the whole character table of S_n is one block; a count is the
    # number of non-zero entries in a column.
    counts = {lam: len(col) - col.count(0) for lam, col in _columns(partitions_of(n))}
    hook = counts[n - 1, 1]
    bound_ok = all(_exceeds_sqrt_bound(c, n) for c in counts.values())
    min_c = min(counts.values())
    row = {"n": n, "c_(n-1,1)": hook, "expected": n - 1, "ok": hook == n - 1 and bound_ok,
           "bound_ok": bound_ok, "min_c": min_c,
           "conjecture_min_is_n_minus_1": min_c == n - 1}
    return [row], [] if row["ok"] else [row]


def verify_remark2(n_max: int, jobs: int = 1) -> SweepReport:
    """e=1 checks: the class (n-1, 1) misses exactly one character for n >= 3,
    and every class count beats n - sqrt(2n) + 1.  Whether the minimum count
    equals n-1 is reported, not asserted."""
    _check_int("n_max", n_max)
    if n_max < 3:
        raise ValueError("n_max must be >= 3")
    # Every n gets the full table, so bound_max always equals n_max; the key
    # stays so that reports keep the bytes of earlier versions.
    return _sweep(_remark2_rows, range(3, n_max + 1), jobs,
                  {"n_max": n_max, "bound_max": n_max})


# ---------------------------------------------------------------------------
# Sign lemma for double hook-removal configurations


def _removal_map(mask):
    """Every single-hook removal from a bead mask, of every length, as
    {result mask: leg}.

    For a fixed result the removed hook is unique, so the leg is well defined.
    """
    return {q: leg for t in range(1, mask.bit_length()) for q, leg in _moves(mask, t, False)}


def _lemma1_rows(m: int):
    # Results are masks on m beads, whose order is partition order across
    # sizes; only the reported ones are decoded.
    checked = 0
    failures = []
    maps = [_removal_map(d) for d in _bead_masks(m)]
    for (d1, map1), (d2, map2) in combinations(zip(partitions_of(m), maps), 2):
        common = sorted(map1.keys() & map2.keys(), reverse=True)
        for g1, g2 in combinations(common, 2):
            legs = (map1[g1], map2[g1], map1[g2], map2[g2])
            checked += 1
            if sum(legs) % 2 == 0:
                failures.append(
                    {
                        "delta1": render_partition(d1),
                        "delta2": render_partition(d2),
                        "gamma1": render_partition(_parts(g1)),
                        "gamma2": render_partition(_parts(g2)),
                        "legs": list(legs),
                    }
                )
    return [{"m": m, "checked": checked, "failures": len(failures)}], failures


def lemma1_sweep(m_max: int, jobs: int = 1) -> SweepReport:
    """For every pair of distinct partitions of the same size m <= m_max and
    every pair of distinct common single-hook-removal results, check that the
    four leg lengths have odd sum."""
    _check_int("m_max", m_max)
    return _sweep(_lemma1_rows, range(2, m_max + 1), jobs, {"m_max": m_max})


# ---------------------------------------------------------------------------
# Vanishing of the signed hook-addition combinations


def _chibar_rows(n: int):
    # Row i of _table(n - length, length) holds the signs of the combination
    # for the i-th phi: +1 at its even-leg positions, -1 at its odd.
    ps = partitions_of(n)
    columns = dict(_columns(ps))
    failures = []
    checked = 0
    for length in range(1, n + 1):
        for phi, (even, odd) in zip(partitions_of(n - length), _table(n - length, length)):
            for lam in ps:
                if length in lam:
                    continue
                checked += 1
                col = columns[lam]
                if sum(col[j] for j in even) != sum(col[j] for j in odd):
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
    _check_int("n_max", n_max)
    return _sweep(_chibar_rows, range(1, n_max + 1), jobs, {"n_max": n_max})


# ---------------------------------------------------------------------------
# Structure of the non-vanishing sets behind the extremal construction


def _near_hook_set(n: int):
    """{(n), (1^n)} together with (a, 2, 1^(n-a-2)) for 2 <= a <= n-2."""
    out = {(n,), tuple([1] * n)}
    for a in range(2, n - 1):
        out.add((a, 2) + (1,) * (n - a - 2))
    return out


def _rowstructure_rows(e_values, n: int):
    rows = []
    blocks = {b: members for e in e_values for b, members in blocks_of(e, n).items()
              if b.core}
    extremal = {b: _extremal_lambda(b) for b in blocks}
    # Blocks often share their extremal class, also across e: one column per class.
    classes = set(extremal.values())
    if n >= 2:
        classes.add((n - 1, 1))
    ps = partitions_of(n)
    nonzero = {lam: {nu for nu, c in zip(ps, col) if c} for lam, col in _columns(classes)}
    if n >= 2:
        ok = nonzero[n - 1, 1] == _near_hook_set(n)
        rows.append({"check": "near_hooks", "n": n, "ok": ok})
    for b, members in blocks.items():
        lam = extremal[b]
        support = nonzero[lam]
        we = b.weight * b.e
        ext_ok = all((b.core[0] + d,) + b.core[1:] + (1,) * (we - d) in support
                     for d in range(we + 1))
        dom_ok = all(dominance_leq(lam, _diagonal_hooks(nu)) for nu in members if nu in support)
        rows.append({
            "check": "block",
            "e": b.e,
            "n": n,
            "core": render_partition(b.core),
            "w": b.weight,
            "extensions_ok": ext_ok,
            "dominance_ok": dom_ok,
            "ok": ext_ok and dom_ok,
        })
    return rows, [r if r["check"] == "block" else {"check": "near_hooks", "n": n}
                  for r in rows if not r["ok"]]


def nonvanishing_row_structure_check(n_max: int, e_values=(2, 3, 4, 5),
                                     jobs: int = 1) -> SweepReport:
    """Three structural facts feeding the extremal count:

    (a) the characters non-zero on (n-1, 1) are exactly the near-hooks;
    (b) with the constructed class of a non-empty-core block, every first
        row/column extension of the core has non-zero value;
    (c) non-vanishing on the constructed class forces dominance below the
        diagonal-hook partition.

    One task per n checks (a), then (b) and (c) on the blocks of every e.
    Rows list (a) by n, then (b) and (c) by e and n in blocks_of order.
    """
    _check_int("n_max", n_max)
    e_values = sorted(set(e_values))
    ns = range(1 if e_values else 2, n_max + 1)  # n = 1 has only blocks to check
    return _sweep(partial(_rowstructure_rows, e_values), ns, jobs,
                  {"n_max": n_max, "e": e_values},
                  key=lambda r: (r["check"] == "block", r.get("e", 0), r["n"]))
