"""Exact symmetric-group character values via the Murnaghan-Nakayama recursion.

Everything is plain Python int arithmetic, so values are exact at any size.
A CharEngine memoizes the recursion on (character label, remaining class
parts); the module keeps one shared engine for convenience functions.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field
from math import factorial

from .partitions import (
    check_partition,
    hook_lengths,
    add_hooks_of_length,
    remove_hooks_of_length,
    partitions_of,
    render_partition,
)


class CharEngine:
    """Murnaghan-Nakayama evaluator with a per-instance memo table.

    Class parts are consumed largest first; the memo key is the pair
    (character label, remaining parts in descending order).  The table only
    grows, which is fine at the sizes this library targets.
    """

    def __init__(self):
        self._cache: dict = {}

    def char_value(self, nu, lam) -> int:
        """The value of the irreducible character labeled nu on the class lam."""
        nu = check_partition(nu)
        lam = check_partition(sorted(lam, reverse=True))
        if sum(nu) != sum(lam):
            raise ValueError(f"|nu|={sum(nu)} but |lambda|={sum(lam)}")
        return self._mn(nu, lam)

    def _mn(self, nu, lam) -> int:
        if not lam:
            return 1
        key = (nu, lam)
        if key in self._cache:
            return self._cache[key]
        t, rest = lam[0], lam[1:]
        total = 0
        for smaller, leg in remove_hooks_of_length(nu, t):
            total += (-1) ** leg * self._mn(smaller, rest)
        self._cache[key] = total
        return total

    def cache_size(self) -> int:
        return len(self._cache)


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
    return [[_shared.char_value(nu, lam) for lam in ps] for nu in ps]


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


@dataclass
class VirtualChar:
    """Sparse integer combination of irreducible characters of S_level."""

    level: int
    coeffs: dict = field(default_factory=dict)

    def value(self, lam) -> int:
        lam = check_partition(sorted(lam, reverse=True))
        if sum(lam) != self.level:
            raise ValueError(f"class size {sum(lam)} != level {self.level}")
        return sum(c * _shared.char_value(beta, lam) for beta, c in self.coeffs.items())


def chi_bar_coeffs(phi, length: int, n: int) -> VirtualChar:
    """Coefficients (-1)^leg on the partitions reachable from phi by adding
    one rim hook of the given length; zero elsewhere."""
    phi = check_partition(phi)
    if sum(phi) + length != n:
        raise ValueError(f"|phi| + length = {sum(phi) + length} != n = {n}")
    coeffs = {beta: (-1) ** leg for beta, leg in add_hooks_of_length(phi, length)}
    return VirtualChar(level=n, coeffs=coeffs)


def chi_bar_value(phi, length: int, lam) -> int:
    """Value on lam of the signed hook-addition combination built on phi."""
    lam = check_partition(sorted(lam, reverse=True))
    return chi_bar_coeffs(phi, length, sum(lam)).value(lam)
