"""Integer partitions, Young-diagram hooks, beta-sets and e-cores.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the unique partition of 0.  All indices in the hook API are 1-based
so cells read as (row, column).
"""

from __future__ import annotations

from functools import lru_cache


def check_partition(parts) -> tuple:
    """Validate and return a partition as a canonical tuple."""
    p = tuple(parts)
    for x in p:
        if not isinstance(x, int) or x < 1:
            raise ValueError(f"partition parts must be positive integers, got {x!r}")
    for a, b in zip(p, p[1:]):
        if a < b:
            raise ValueError(f"parts must be weakly decreasing: {p}")
    return p


def parse_partition(text: str):
    """Parse a partition literal.

    Grammar: '-' is the empty partition; otherwise comma-separated items,
    each 'INT' or 'INT^INT' (a part repeated).  Whitespace is ignored and
    out-of-order parts are sorted into canonical form.
    """
    s = "".join(text.split())
    if s == "-":
        return ()
    if not s:
        raise ValueError("empty partition literal (use '-' for the empty partition)")
    parts = []
    for item in s.split(","):
        if "^" in item:
            base_s, _, exp_s = item.partition("^")
            base, exp = _parse_int(base_s), _parse_int(exp_s)
            if exp < 1:
                raise ValueError(f"exponent must be >= 1 in {item!r}")
            parts.extend([base] * exp)
        else:
            parts.append(_parse_int(item))
    if any(x < 1 for x in parts):
        raise ValueError(f"parts must be positive: {text!r}")
    return tuple(sorted(parts, reverse=True))


def _parse_int(s: str) -> int:
    if not s.isdigit():
        raise ValueError(f"bad integer {s!r} in partition literal")
    return int(s)


def render_partition(p) -> str:
    """Canonical literal: parts descending, 'k^m' for runs of length >= 3, '-' if empty."""
    if not p:
        return "-"
    out = []
    i = 0
    while i < len(p):
        j = i
        while j < len(p) and p[j] == p[i]:
            j += 1
        run = j - i
        if run >= 3:
            out.append(f"{p[i]}^{run}")
        else:
            out.extend([str(p[i])] * run)
        i = j
    return ",".join(out)


def conjugate(p):
    """Transpose of the Young diagram."""
    if not p:
        return ()
    cols = [0] * p[0]
    for part in p:
        for j in range(part):
            cols[j] += 1
    return tuple(cols)


def hook_length(p, i: int, j: int) -> int:
    """Hook length of cell (i, j), 1-based."""
    if i < 1 or i > len(p) or j < 1 or j > p[i - 1]:
        raise ValueError(f"cell ({i},{j}) outside the diagram of {p}")
    conj = conjugate(p)
    return (p[i - 1] - j) + (conj[j - 1] - i) + 1


def hook_lengths(p):
    """All hook lengths as a dict {(i, j): length}."""
    conj = conjugate(p)
    return {
        (i, j): (p[i - 1] - j) + (conj[j - 1] - i) + 1
        for i in range(1, len(p) + 1)
        for j in range(1, p[i - 1] + 1)
    }


def diagonal_hooks(p):
    """Hook lengths on the main diagonal, (h_11, ..., h_kk) with k maximal."""
    out = []
    i = 1
    while i <= len(p) and p[i - 1] >= i:
        out.append(hook_length(p, i, i))
        i += 1
    return tuple(out)


def beta_set(p, bead_count: int) -> frozenset:
    """Beta-set {p_i + bead_count - i : 1 <= i <= bead_count} (p_i = 0 past the end)."""
    if bead_count < len(p):
        raise ValueError(f"bead_count {bead_count} < number of parts {len(p)}")
    padded = list(p) + [0] * (bead_count - len(p))
    return frozenset(padded[i] + bead_count - 1 - i for i in range(bead_count))


def partition_from_beta_set(beads) -> tuple:
    """Decode a beta-set back to a partition (inverse of beta_set)."""
    bs = sorted(beads, reverse=True)
    if len(set(bs)) != len(bs) or (bs and bs[-1] < 0):
        raise ValueError("beta-set must consist of distinct non-negative integers")
    return _decode(bs)


def _decode(bs) -> tuple:
    """Partition of a beta-set given as distinct non-negative ints in descending order."""
    m = len(bs)
    parts = [bs[i] - (m - 1 - i) for i in range(m)]
    return tuple(x for x in parts if x > 0)


def _slide_beads(beads, step: int):
    """Every move of one bead of the set beads by step to a free non-negative
    position, as (partition, leg) pairs in descending partition order.  The
    leg is the number of beads the moving bead passes: how far its place in
    the sorted bead list shifts."""
    bs = sorted(beads, reverse=True)
    out = []
    for i, x in enumerate(bs):
        y = x + step
        if y >= 0 and y not in beads:
            moved = bs[:i] + bs[i + 1:] + [y]
            moved.sort(reverse=True)
            out.append((_decode(moved), abs(moved.index(y) - i)))
    out.sort(key=lambda t: t[0], reverse=True)
    return out


def remove_hook(p, i: int, j: int):
    """Remove the rim hook of cell (i, j); returns (smaller partition, leg length).

    The hook's top row is i, so among the removals of its length it is the
    one that first changes p in row i.
    """
    h = hook_length(p, i, j)
    return next((q, leg) for q, leg in remove_hooks_of_length(p, h)
                if q[:i - 1] == p[:i - 1] and q[:i] != p[:i])


def remove_hooks_of_length(p, length: int):
    """All single rim-hook removals of the given length, as (partition, leg) pairs.

    On the abacus a removal slides one bead down by the length.
    """
    if length < 1:
        raise ValueError("hook length must be >= 1")
    return _slide_beads(beta_set(p, len(p)), -length)


def add_hooks_of_length(p, length: int):
    """All single rim-hook additions of the given length, as (partition, leg) pairs.

    On the abacus an addition slides one bead up by the length.
    """
    if length < 1:
        raise ValueError("hook length must be >= 1")
    return _slide_beads(beta_set(p, len(p) + length), length)


def e_core(p, e: int):
    """The e-core: push every abacus bead down its runner as far as it goes."""
    if e < 1:
        raise ValueError("e must be >= 1")
    b = len(p)
    runners = [[] for _ in range(e)]
    for x in beta_set(p, b):
        runners[x % e].append(x)
    core_beads = []
    for r in range(e):
        for k in range(len(runners[r])):
            core_beads.append(r + k * e)
    return _decode(sorted(core_beads, reverse=True))


def e_weight(p, e: int) -> int:
    """Number of e-hooks removed to reach the e-core."""
    core = e_core(p, e)
    diff = sum(p) - sum(core)
    if diff % e != 0:
        raise RuntimeError(f"|{p}| - |{core}| = {diff} is not divisible by e = {e}")
    return diff // e


def is_e_core(p, e: int) -> bool:
    """True iff no hook length of p is divisible by e (e >= 2)."""
    if e < 2:
        raise ValueError("is_e_core requires e >= 2")
    return all(h % e != 0 for h in hook_lengths(p).values())


def is_e_class_regular(p, e: int) -> bool:
    """True iff no part of p is divisible by e (e >= 2)."""
    if e < 2:
        raise ValueError("is_e_class_regular requires e >= 2")
    return all(part % e != 0 for part in p)


@lru_cache(maxsize=None)
def partitions_of(n: int):
    """All partitions of n in reverse-lexicographic order, (n) first, (1^n) last."""
    if n < 0:
        raise ValueError("n must be non-negative")
    return tuple(_gen_partitions(n, n))


def _gen_partitions(n, max_part):
    if n == 0:
        yield ()
        return
    for k in range(min(n, max_part), 0, -1):
        for rest in _gen_partitions(n - k, k):
            yield (k,) + rest


def dominance_leq(a, b) -> bool:
    """Dominance order: every prefix sum of a is at most the matching one of b."""
    if sum(a) != sum(b):
        raise ValueError(f"dominance needs equal sizes: |{a}| != |{b}|")
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa > sb:
            return False
    return True
