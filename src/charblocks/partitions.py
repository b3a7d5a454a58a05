"""Integer partitions, Young-diagram hooks, abacus bead masks and e-cores.

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
    p = check_partition(p)
    if not p:
        return ()
    cols = [0] * p[0]
    for part in p:
        for j in range(part):
            cols[j] += 1
    return tuple(cols)


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
    conj = conjugate(p)  # checks p
    # 0-based cell (k, k) lies in the diagram iff p[k] > k; its hook is
    # (p[k] - k - 1) + (conj[k] - k - 1) + 1.
    return tuple(p[k] + conj[k] - 2 * k - 1 for k in range(len(p)) if p[k] > k)


def _beads(p, count: int) -> int:
    """Bead mask of p on count >= len(p) beads (James-Kerber, The Representation
    Theory of the Symmetric Group, 2.7): bit p_i + count - i is set for
    1 <= i <= count, with p_i = 0 past the last part."""
    mask = (1 << (count - len(p))) - 1
    for i, x in enumerate(p):
        mask |= 1 << (x + count - 1 - i)
    return mask


def _parts(mask) -> tuple:
    """Partition of a bead mask, largest part first: a bead's part is its position
    minus the beads below it.  On one bead count, mask order is partition order."""
    out = []
    below = mask.bit_count()
    while mask:
        x = mask.bit_length() - 1
        below -= 1
        if x == below:
            break  # the beads left fill 0..x: every part from here on is 0
        out.append(x - below)
        mask ^= 1 << x
    return tuple(out)


def _moves(mask, t: int, add: bool):
    """Every move of one bead of mask by t, up if add else down, onto a free
    non-negative position, as (mask, leg) pairs.  The leg is the number of
    beads the moving bead passes, those strictly between its two ends."""
    lows = mask & ~(mask >> t) if add else (mask >> t) & ~mask
    between = (1 << (t - 1)) - 1
    out = []
    while lows:
        low = lows & -lows
        lows ^= low
        leg = (mask >> low.bit_length() & between).bit_count()
        out.append((mask ^ low ^ (low << t), leg))
    return out


def remove_hooks_of_length(p, length: int):
    """All single rim-hook removals of the given length, as (partition, leg) pairs.

    On the abacus a removal slides one bead down by the length.
    """
    p = check_partition(p)
    if length < 1:
        raise ValueError("hook length must be >= 1")
    moves = _moves(_beads(p, len(p)), length, False)
    return [(_parts(q), leg) for q, leg in sorted(moves, reverse=True)]


def add_hooks_of_length(p, length: int):
    """All single rim-hook additions of the given length, as (partition, leg) pairs.

    On the abacus an addition slides one bead up by the length.
    """
    p = check_partition(p)
    if length < 1:
        raise ValueError("hook length must be >= 1")
    moves = _moves(_beads(p, len(p) + length), length, True)
    return [(_parts(q), leg) for q, leg in sorted(moves, reverse=True)]


def e_core(p, e: int):
    """The e-core: push every abacus bead down its runner as far as it goes.
    Only runners below the top bead hold beads, so the cost does not grow with e."""
    p = check_partition(p)
    if e < 1:
        raise ValueError("e must be >= 1")
    mask = _beads(p, len(p))
    top = mask.bit_length()
    runner = sum(1 << x for x in range(0, top, e))
    core = 0
    for r in range(min(e, top)):
        k = (mask & (runner << r)).bit_count()
        core |= (runner << r) & ((1 << (r + k * e)) - 1)
    return _parts(core)


def e_weight(p, e: int) -> int:
    """Number of e-hooks removed to reach the e-core."""
    core = e_core(p, e)
    diff = sum(p) - sum(core)
    if diff % e != 0:
        raise RuntimeError(f"|{p}| - |{core}| = {diff} is not divisible by e = {e}")
    return diff // e


def is_e_core(p, e: int) -> bool:
    """True iff p is its own e-core (e >= 2): no e-hook can be removed, which
    holds iff no hook length of p is divisible by e (James-Kerber 2.7)."""
    if e < 2:
        raise ValueError("is_e_core requires e >= 2")
    return e_core(p, e) == tuple(p)  # e_core checks p


def is_e_class_regular(p, e: int) -> bool:
    """True iff no part of the class p is divisible by e (e >= 2)."""
    if e < 2:
        raise ValueError("is_e_class_regular requires e >= 2")
    return all(part % e != 0 for part in check_partition(sorted(p, reverse=True)))


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
    a, b = check_partition(a), check_partition(b)
    if sum(a) != sum(b):
        raise ValueError(f"dominance needs equal sizes: |{a}| != |{b}|")
    sa = sb = 0
    for i in range(max(len(a), len(b))):
        sa += a[i] if i < len(a) else 0
        sb += b[i] if i < len(b) else 0
        if sa > sb:
            return False
    return True
