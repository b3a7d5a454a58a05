"""Exact symmetric-group character values by the Murnaghan-Nakayama rule.

Values are plain Python ints, so they are exact at any size.  Bit x of a bead
mask is a bead at abacus position x (partitions._beads).

Columns: _columns adds hooks to the empty partition, smallest class part
first: the Schur expansion of p_lam (Macdonald, Symmetric Functions and Hall
Polynomials, I.3 Ex. 11 and I.7), whose coefficients are the column
chi^.(lam).  It walks the classes as ascending part tuples, so classes that
share their smallest parts share the hook additions for those parts, and each
state is a dense list over partitions_of(size) that steps through the move
table of (size, part).  Every column, of one class or of many, comes from it.
It is unchecked, for partitions the library built; public functions check
arguments once, on entry.

One value: char_value carries a {bead mask: coefficient} map from one nu
through the signed rim-hook removals of each class part, largest first, with
no memo and no recursion.
"""

import sys
from functools import cache
from math import factorial

from .partitions import (
    _bead_masks,
    _beads,
    _check_class,
    _moves,
    check_partition,
    hook_lengths,
    partitions_of,
    render_partition,
)


@cache
def _table(size: int, t: int) -> tuple:
    """For each partition of size, the positions in partitions_of(size + t) that
    adding a t-hook reaches with even and with odd leg; built once per process.
    Row i holds the signs of the chi-bar combination of partitions_of(size)[i]
    and t: +1 at the even-leg additions, -1 at the odd.

    Source mask i is the i-th mask of size with t more beads below it; the
    additions are those of partitions._moves, in one loop over every mask.  A
    bead moving up from low covers span = low * (2^t - 1), itself and the t - 1
    positions it passes, so the target is mask + span and the leg is even
    exactly when mask & span holds an odd number of beads."""
    to = _bead_masks(size + t)
    below = (1 << t) - 1
    rows = []
    for m in _bead_masks(size):
        mask = m << t | below
        lows = mask & ~m  # mask >> t is m: the beads with a free position t up
        even, odd = [], []
        while lows:
            low = lows & -lows
            lows ^= low
            span = low * below
            if (mask & span).bit_count() & 1:
                even.append(to[mask + span])
            else:
                odd.append(to[mask + span])
        rows.append((tuple(even), tuple(odd)))
    return tuple(rows)


def _columns(classes):
    """Yield (lam, col) for each class lam of S_n (partition tuples in
    descending order, unchecked), col being [chi^nu(lam) for nu in
    partitions_of(n)], in walk order: ascending part tuples in
    lexicographic order.  Each prefix's state is built once."""
    path = ()  # ascending parts walked so far; stack[k] is (size, state) after k of them
    stack = [(0, [1])]
    for asc, lam in sorted((lam[::-1], lam) for lam in classes):
        k = 0
        while k < min(len(path), len(asc)) and path[k] == asc[k]:
            k += 1
        del stack[k + 1:]
        for t in asc[k:]:
            size, state = stack[-1]
            nxt = [0] * len(_bead_masks(size + t))
            for c, (even, odd) in zip(state, _table(size, t)):
                if c:
                    for j in even:
                        nxt[j] += c
                    for j in odd:
                        nxt[j] -= c
            stack.append((size + t, nxt))
        path = asc
        yield lam, stack[-1][1]


def char_value(nu, lam) -> int:
    """The value of the irreducible character labeled nu on the class lam: rim
    hooks are removed from nu, largest class part first, each signed by
    (-1)^leg.  These removals share nothing with the additions of _columns,
    so the tests take char_value as the reference for its columns."""
    nu = check_partition(nu)
    lam = _check_class(lam)
    if sum(nu) != sum(lam):
        raise ValueError(f"|nu|={sum(nu)} but |lambda|={sum(lam)}")
    states = {_beads(nu, len(nu)): 1}
    for t in lam:
        nxt = {}
        for m, c in states.items():
            for q, leg in _moves(m, t, False):
                nxt[q] = nxt.get(q, 0) + (-c if leg & 1 else c)
        states = {q: c for q, c in nxt.items() if c}
    return states.get((1 << len(nu)) - 1, 0)  # the empty partition's beads


class CharEngine:
    """Forwards to char_value and keeps no state.  The class, shared_engine()
    and cache_size() (always 0) remain only because the benchmark's traced run
    (perfbench/traced.py and perfbench/spans.py) reads them."""

    def char_value(self, nu, lam) -> int:
        return char_value(nu, lam)

    def cache_size(self) -> int:
        return 0


_shared = CharEngine()


def shared_engine() -> CharEngine:
    return _shared


def char_degree(nu) -> int:
    """Degree by the hook length formula: n! over the product of all hooks."""
    nu = check_partition(nu)
    d = factorial(sum(nu))
    for h in hook_lengths(nu).values():
        d //= h
    return d


def centralizer_order(lam) -> int:
    """z_lambda = product over part sizes i of i^{m_i} * m_i!."""
    lam = _check_class(lam)
    z = 1
    for i in set(lam):
        m = lam.count(i)
        z *= i**m * factorial(m)
    return z


def _rows(n: int):
    """The rows of the table of S_n, tuples in partitions_of(n) order: the
    transpose of its columns.  The formatters print each row as it comes, so
    only the columns live for the whole call and the whole text is never
    built."""
    ps = partitions_of(n)
    columns = dict(_columns(ps))
    return zip(*[columns[lam] for lam in ps])


def character_table(n: int):
    """Full table of S_n: rows and columns both in partitions_of(n) order."""
    return [list(row) for row in _rows(n)]


def character_table_text(n: int) -> None:
    """Print aligned plain text with class labels as header and character
    labels as first column, every cell right-justified to one width.  Each
    line, newline included, is one write: print would make two, each a
    system call when stdout is unbuffered."""
    labels = [render_partition(p) for p in partitions_of(n)]
    width = max([len(s) for s in labels] + [5])
    write = sys.stdout.write
    write(" " * width + "  " + "  ".join(s.rjust(width) for s in labels) + "\n")
    for label, row in zip(labels, _rows(n)):
        write(label.rjust(width) + "  " + "  ".join(str(v).rjust(width) for v in row) + "\n")


def character_table_csv(n: int) -> None:
    """Print CSV with class labels as header and character labels as first
    column, every field quoted.  No label or value holds a quote, so none
    needs escaping.  One %-format writes a row's values and its newline, and
    each line is one write, as in character_table_text."""
    labels = [render_partition(p) for p in partitions_of(n)]
    row_text = '","'.join(["%d"] * len(labels)) + '"\n'
    write = sys.stdout.write
    write('"' + '","'.join([""] + labels) + '"\n')
    for label, row in zip(labels, _rows(n)):
        write('"' + label + '","' + row_text % row)


def character_table_json(n: int) -> None:
    """Print a JSON object with values as a row-major array of decimal
    strings, laid out as json.dumps(..., indent=2) lays it out, a row at a time.
    The header, each row with the separator before it, and the footer are one
    write each, as in character_table_text."""
    from ._jsontext import dumps
    labels = [render_partition(p) for p in partitions_of(n)]
    head = dumps({"n": n, "classes": labels, "characters": labels}, indent=2)
    write = sys.stdout.write
    write(head[:-2] + ',\n  "values": [\n')
    sep = ""
    for row in _rows(n):
        write(sep + '    "' + '",\n    "'.join(map(str, row)) + '"')
        sep = ",\n"
    write("\n  ]\n}\n")

