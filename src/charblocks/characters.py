"""Exact symmetric-group character values by the Murnaghan-Nakayama rule.

Values are plain Python ints, so they are exact at any size.  One loop,
_mn_sum, carries a {bead mask: coefficient} map through the signed rim-hook
moves of one class part at a time, with no memo and no recursion; bit x of a
mask is a bead at abacus position x (partitions._beads).  _column(lam) adds
hooks to the empty partition on n = |lam| beads, smallest part first: the
Schur expansion of p_lam (Macdonald, Symmetric Functions and Hall Polynomials,
I.3 Ex. 11 and I.7), whose coefficients are the column chi^.(lam), keyed by
the n-bead mask of each nu; column(lam) decodes the masks.  Both are
unchecked, for partitions the library built; public functions check
arguments once, on entry.
"""

from __future__ import annotations

import csv
import io
import json
from math import factorial

from .partitions import (
    _beads,
    _moves,
    _parts,
    check_partition,
    hook_lengths,
    add_hooks_of_length,
    partitions_of,
    render_partition,
)


def _mn_sum(states: dict, parts, add: bool) -> dict:
    """Carry {bead mask: coefficient} through the moves of one bead by each
    part t in turn (up if add, else down), signed by (-1)^leg; zero
    coefficients are dropped."""
    for t in parts:
        nxt = {}
        for m, c in states.items():
            for q, leg in _moves(m, t, add):
                nxt[q] = nxt.get(q, 0) + (-c if leg & 1 else c)
        states = {q: c for q, c in nxt.items() if c}
    return states


def _column(lam) -> dict:
    """{bead mask of nu on |lam| beads: chi^nu(lam)} over the characters
    non-zero on the class lam, a partition tuple in descending order
    (unchecked)."""
    return _mn_sum({(1 << sum(lam)) - 1: 1}, reversed(lam), True)


def column(lam) -> dict:
    """{nu: chi^nu(lam)}, non-zero values only: _column(lam) decoded."""
    return {_parts(m): c for m, c in _column(lam).items()}


class CharEngine:
    """Checked single values: rim hooks are removed from nu, largest class
    part first, and no state is kept.  The class, shared_engine() and
    cache_size() (always 0) remain only because the benchmark's traced run
    (perfbench/traced.py and perfbench/spans.py) reads them."""

    def char_value(self, nu, lam) -> int:
        """The value of the irreducible character labeled nu on the class lam."""
        nu = check_partition(nu)
        lam = check_partition(sorted(lam, reverse=True))
        if sum(nu) != sum(lam):
            raise ValueError(f"|nu|={sum(nu)} but |lambda|={sum(lam)}")
        empty = (1 << len(nu)) - 1
        return _mn_sum({_beads(nu, len(nu)): 1}, lam, False).get(empty, 0)

    def cache_size(self) -> int:
        return 0


_shared = CharEngine()


def shared_engine() -> CharEngine:
    return _shared


def char_value(nu, lam) -> int:
    return _shared.char_value(nu, lam)


def char_degree(nu) -> int:
    """Degree by the hook length formula: n! over the product of all hooks."""
    nu = check_partition(nu)
    d = factorial(sum(nu))
    for h in hook_lengths(nu).values():
        d //= h
    return d


def centralizer_order(lam) -> int:
    """z_lambda = product over part sizes i of i^{m_i} * m_i!."""
    lam = check_partition(sorted(lam, reverse=True))
    z = 1
    for i in set(lam):
        m = lam.count(i)
        z *= i**m * factorial(m)
    return z


def character_table(n: int):
    """Full table of S_n: rows and columns both in partitions_of(n) order."""
    ps = partitions_of(n)
    columns = [_column(lam) for lam in ps]
    return [[col.get(m, 0) for col in columns] for m in [_beads(nu, n) for nu in ps]]


def character_table_text(n: int) -> str:
    """Aligned plain text with class labels as header and character labels
    as first column, every cell right-justified to one width."""
    labels = [render_partition(p) for p in partitions_of(n)]
    width = max([len(s) for s in labels] + [5])
    lines = [" " * width + "  " + "  ".join(s.rjust(width) for s in labels)]
    for label, row in zip(labels, character_table(n)):
        lines.append(label.rjust(width) + "  " + "  ".join(str(v).rjust(width) for v in row))
    return "\n".join(lines)


def character_table_csv(n: int) -> str:
    """CSV with class labels as header and character labels as first column."""
    ps = partitions_of(n)
    rows = character_table(n)
    buf = io.StringIO()
    writer = csv.writer(buf, quoting=csv.QUOTE_ALL, lineterminator="\n")
    writer.writerow([""] + [render_partition(lam) for lam in ps])
    for nu, row in zip(ps, rows):
        writer.writerow([render_partition(nu)] + [str(v) for v in row])
    return buf.getvalue()


def character_table_json(n: int) -> str:
    """JSON object with values as a row-major array of decimal strings."""
    ps = partitions_of(n)
    rows = character_table(n)
    labels = [render_partition(p) for p in ps]
    obj = {
        "n": n,
        "classes": labels,
        "characters": labels,
        "values": [str(v) for row in rows for v in row],
    }
    return json.dumps(obj, indent=2)


def chi_bar_coeffs(phi, length: int, n: int) -> dict:
    """Coefficients {partition: (-1)^leg} of the partitions of n reachable from
    phi by adding one rim hook of the given length; zero elsewhere."""
    phi = check_partition(phi)
    if sum(phi) + length != n:
        raise ValueError(f"|phi| + length = {sum(phi) + length} != n = {n}")
    return {beta: (-1) ** leg for beta, leg in add_hooks_of_length(phi, length)}
