"""Independent brute-force oracles used by the tests.

These deliberately avoid the beta-set machinery of the library: hooks are
removed by walking the rim of the Young diagram cell by cell, cores by greedy
stripping, characters by an uncached recursion consuming the class parts
smallest first, and block sizes and block counts by generating-function
series in plain integers.

They do import partitions_of, the list of the partitions of n, which the
library decodes from its bead masks.  TestEnumeration's pins on its count,
entries and order, not the bead code, vouch for that list.
"""

from charblocks.partitions import conjugate, hook_lengths, partitions_of


def rim_walk_remove(p, i, j):
    """Remove the rim hook of cell (i, j) by literally deleting border cells."""
    conj = conjugate(p)
    cells = []
    for a in range(i, conj[j - 1] + 1):
        for b in range(j, p[a - 1] + 1):
            below_right_missing = a >= len(p) or p[a] < b + 1
            if below_right_missing:
                cells.append((a, b))
    assert len(cells) == hook_lengths(p)[(i, j)]
    rows = list(p)
    for a, _ in cells:
        rows[a - 1] -= 1
    q = tuple(x for x in rows if x > 0)
    assert all(q[k] >= q[k + 1] for k in range(len(q) - 1))
    leg = len({a for a, _ in cells}) - 1
    return q, leg


def rim_walk_removals_of_length(p, length):
    """All (result, leg) pairs from removing one rim hook of the given length."""
    out = []
    for (i, j), h in hook_lengths(p).items():
        if h == length:
            out.append(rim_walk_remove(p, i, j))
    return sorted(out, reverse=True)


def greedy_core(p, e):
    """Strip e-hooks one at a time (first cell found) until none remains."""
    while True:
        hooks = [cell for cell, h in sorted(hook_lengths(p).items()) if h == e]
        if not hooks:
            return p
        i, j = hooks[0]
        p, _ = rim_walk_remove(p, i, j)


def brute_force_additions(p, length):
    """All rim-hook additions of a length, found by inverting removals."""
    out = set()
    for q in partitions_of(sum(p) + length):
        for (i, j), h in hook_lengths(q).items():
            if h == length:
                smaller, leg = rim_walk_remove(q, i, j)
                if smaller == p:
                    out.add((q, leg))
    return sorted(out, reverse=True)


def mn_ascending(nu, lam):
    """Uncached character recursion consuming the smallest class part first."""
    lam = sorted(lam)
    if not lam:
        return 1
    t, rest = lam[0], lam[1:]
    total = 0
    for smaller, leg in rim_walk_removals_of_length(nu, t):
        total += (-1) ** leg * mn_ascending(smaller, rest)
    return total


def multipartition_counts(e, w_max):
    """[k(e, 0), ..., k(e, w_max)], k(e, w) the coefficient of x^w in
    prod_k (1 - x^k)^(-e): the number of e-multipartitions of w, which is the
    size of an e-block of weight w (James-Kerber 2.7)."""
    c = [1] + [0] * w_max
    for _ in range(e):
        for k in range(1, w_max + 1):  # times 1 / (1 - x^k)
            for i in range(k, w_max + 1):
                c[i] += c[i - k]
    return c


def core_counts(e, m_max):
    """The number of e-cores of each m = 0..m_max: the coefficient of x^m in
    prod_k (1 - x^(ek))^e / (1 - x^k) (James-Kerber 2.7), which is the
    number of weight-w e-blocks of S_n when m = n - we."""
    c = [1] + [0] * m_max
    for k in range(1, m_max + 1):  # times 1 / (1 - x^k)
        for i in range(k, m_max + 1):
            c[i] += c[i - k]
    for k in range(e, m_max + 1, e):  # times (1 - x^k)^e
        for _ in range(e):
            for i in range(m_max, k - 1, -1):
                c[i] -= c[i - k]
    return c
