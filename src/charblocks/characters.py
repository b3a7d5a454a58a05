"""Exact symmetric-group character values by the Murnaghan-Nakayama rule.

Values are plain Python ints, so they are exact at any size.  Bit x of a bead
mask is a bead at abacus position x (partitions._beads).

One class: _mn_sum carries a {bead mask: coefficient} map through the signed
rim-hook moves of one class part at a time, with no memo and no recursion.
column(lam) adds hooks to the empty partition on n = |lam| beads, smallest
part first: the Schur expansion of p_lam (Macdonald, Symmetric Functions and
Hall Polynomials, I.3 Ex. 11 and I.7), whose coefficients are the column
chi^.(lam); char_value removes hooks from one nu, largest part first.

Many classes of one n: _columns walks them as ascending part tuples, so
classes that share their smallest parts share the hook additions for those
parts, and each state is a dense list over partitions_of(size) that steps
through a move table built once per (size, part) within the call.  It is
unchecked, for partitions the library built; public functions check
arguments once, on entry.
"""

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


def column(lam) -> dict:
    """{nu: chi^nu(lam)}, non-zero values only, for one class lam, a partition
    tuple in descending order (unchecked)."""
    states = _mn_sum({(1 << sum(lam)) - 1: 1}, reversed(lam), True)
    return {_parts(m): c for m, c in states.items()}


def _columns(classes, n: int):
    """Yield (lam, col) for each class lam of S_n (partition tuples in
    descending order, unchecked), col being [chi^nu(lam) for nu in
    partitions_of(n)], in walk order: ascending part tuples in
    lexicographic order.  Each prefix's state is built once.  Every bead
    mask lies on n beads, which hold any partition of a size up to n."""
    where = {}  # size -> {n-bead mask: position in partitions_of(size)}
    tables = {}  # (size, part) -> per position, (even-leg, odd-leg) targets

    def positions(size):
        if size not in where:
            where[size] = {_beads(p, n): i for i, p in enumerate(partitions_of(size))}
        return where[size]

    def table(size, t):
        key = (size, t)
        if key not in tables:
            to = positions(size + t)
            moves = []
            for m in positions(size):
                even, odd = [], []
                for q, leg in _moves(m, t, True):
                    (odd if leg & 1 else even).append(to[q])
                moves.append((tuple(even), tuple(odd)))
            tables[key] = moves
        return tables[key]

    path = ()  # ascending parts walked so far; stack[k] is (size, state) after k of them
    stack = [(0, [1])]
    for asc, lam in sorted((lam[::-1], lam) for lam in classes):
        k = 0
        while k < min(len(path), len(asc)) and path[k] == asc[k]:
            k += 1
        del stack[k + 1:]
        for t in asc[k:]:
            size, state = stack[-1]
            nxt = [0] * len(partitions_of(size + t))
            for c, (even, odd) in zip(state, table(size, t)):
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
    hooks are removed from nu, largest class part first."""
    nu = check_partition(nu)
    lam = check_partition(sorted(lam, reverse=True))
    if sum(nu) != sum(lam):
        raise ValueError(f"|nu|={sum(nu)} but |lambda|={sum(lam)}")
    empty = (1 << len(nu)) - 1
    return _mn_sum({_beads(nu, len(nu)): 1}, lam, False).get(empty, 0)


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
    lam = check_partition(sorted(lam, reverse=True))
    z = 1
    for i in set(lam):
        m = lam.count(i)
        z *= i**m * factorial(m)
    return z


def _rows(n: int):
    """The rows of the table of S_n, tuples in partitions_of(n) order: the
    transpose of its columns."""
    ps = partitions_of(n)
    columns = dict(_columns(ps, n))
    return zip(*[columns[lam] for lam in ps])


def character_table(n: int):
    """Full table of S_n: rows and columns both in partitions_of(n) order."""
    return [list(row) for row in _rows(n)]


def character_table_text(n: int) -> None:
    """Print aligned plain text with class labels as header and character
    labels as first column, every cell right-justified to one width."""
    labels = [render_partition(p) for p in partitions_of(n)]
    width = max([len(s) for s in labels] + [5])
    print(" " * width + "  " + "  ".join(s.rjust(width) for s in labels))
    for label, row in zip(labels, _rows(n)):
        print(label.rjust(width) + "  " + "  ".join(str(v).rjust(width) for v in row))


def character_table_csv(n: int) -> None:
    """Print CSV with class labels as header and character labels as first
    column, every field quoted.  No label or value holds a quote, so none
    needs escaping.  One %-format writes a row's values."""
    labels = [render_partition(p) for p in partitions_of(n)]
    row_text = '","'.join(["%d"] * len(labels)) + '"'
    print('"' + '","'.join([""] + labels) + '"')
    for label, row in zip(labels, _rows(n)):
        print('"' + label + '","' + row_text % row)


def character_table_json(n: int) -> None:
    """Print a JSON object with values as a row-major array of decimal
    strings, laid out as json.dumps(..., indent=2) lays it out, a row at a time."""
    import json
    labels = [render_partition(p) for p in partitions_of(n)]
    head = json.dumps({"n": n, "classes": labels, "characters": labels}, indent=2)
    print(head[:-2] + ',\n  "values": [')
    sep = ""
    for row in _rows(n):
        print(sep + '    "' + '",\n    "'.join(map(str, row)) + '"', end="")
        sep = ",\n"
    print("\n  ]\n}")


def chi_bar_coeffs(phi, length: int, n: int) -> dict:
    """Coefficients {partition: (-1)^leg} of the partitions of n reachable from
    phi by adding one rim hook of the given length; zero elsewhere."""
    phi = check_partition(phi)
    if sum(phi) + length != n:
        raise ValueError(f"|phi| + length = {sum(phi) + length} != n = {n}")
    return {beta: (-1) ** leg for beta, leg in add_hooks_of_length(phi, length)}
