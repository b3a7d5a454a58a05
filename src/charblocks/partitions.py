"""Integer partitions, Young-diagram hooks, abacus bead masks and e-cores.

Partitions are plain tuples of weakly decreasing positive ints; the empty
tuple is the unique partition of 0.  All indices in the hook API are 1-based
so cells read as (row, column).
"""

from bisect import bisect_left, bisect_right
from functools import cache
from itertools import accumulate, chain, islice, repeat, zip_longest
from operator import neg


def check_partition(parts) -> tuple:
    """Validate and return a partition as a canonical tuple."""
    p = _check_parts(parts)
    for a, b in zip(p, islice(p, 1, None)):
        if a < b:
            raise ValueError(f"parts must be weakly decreasing: {p}")
    return p


def _check_class(parts) -> tuple:
    """Validate a class, whose parts may come in any order, and return it as a
    partition tuple: the parts are checked before they are sorted."""
    return tuple(sorted(_check_parts(parts), reverse=True))


def _check_parts(parts) -> tuple:
    """The parts as a tuple, read once; ValueError unless each is a positive int."""
    p = tuple(parts)
    for x in p:
        if not isinstance(x, int) or x < 1:
            raise ValueError(f"partition parts must be positive integers, got {x!r}")
    return p


def _check_int(name: str, value) -> None:
    """Raise ValueError unless value is an int (a bool counts, as in check_partition)."""
    if not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")


# Largest size of a partition literal; a bead mask of that many bits is 1.25 MB.
_MAX_LITERAL_SIZE = 10**7


def parse_partition(text: str):
    """Parse a partition literal of size at most _MAX_LITERAL_SIZE.

    Grammar: '-' is the empty partition; otherwise comma-separated items,
    each 'INT' or 'INT^INT' (a part repeated).  Whitespace is ignored and
    out-of-order parts are sorted into canonical form.  The size is checked
    item by item, and the items are sorted before any repeated part is expanded.
    """
    s = "".join(text.split())
    if s == "-":
        return ()
    if not s:
        raise ValueError("empty partition literal (use '-' for the empty partition)")
    items, size = [], 0
    for item in s.split(","):
        base_s, caret, exp_s = item.partition("^")
        base = _parse_int(base_s)
        exp = _parse_int(exp_s) if caret else 1
        if exp < 1:
            raise ValueError(f"exponent must be >= 1 in {item!r}")
        if base < 1:
            raise ValueError(f"parts must be positive: {text!r}")
        size += base * exp
        if size > _MAX_LITERAL_SIZE:
            raise ValueError(f"partition size must be at most {_MAX_LITERAL_SIZE}")
        items.append((base, exp))
    items.sort(reverse=True)
    return tuple(chain.from_iterable(repeat(base, exp) for base, exp in items))


def _parse_int(s: str) -> int:
    if s.isdecimal():
        try:
            return int(s)
        except ValueError:  # more digits than int() converts
            pass
    raise ValueError(f"bad integer {s!r} in partition literal")


def render_partition(p) -> str:
    """Canonical literal of a partition p, a weakly decreasing tuple: 'k^m' for
    a run of m >= 3 parts equal to k, '-' if empty.  Each run's end is found
    by bisection, as in _beads; a tuple that is not weakly decreasing is no
    partition, and its literal is not defined."""
    out, i = [], 0
    while i < len(p):
        a = p[i]
        j = bisect_right(p, -a, i, key=neg)
        out += [f"{a}^{j - i}"] if j - i >= 3 else [str(a)] * (j - i)
        i = j
    return ",".join(out) or "-"


def conjugate(p):
    """Transpose of the Young diagram: column j (0-based) holds the parts
    longer than j, counted by bisection, as in _diagonal_hooks."""
    p = check_partition(p)
    return tuple(bisect_left(p, -j, key=neg) for j in range(p[0] if p else 0))


def hook_lengths(p):
    """All hook lengths as a dict {(i, j): length}."""
    p = check_partition(p)
    conj = conjugate(p)
    return {
        (i, j): (p[i - 1] - j) + (conj[j - 1] - i) + 1
        for i in range(1, len(p) + 1)
        for j in range(1, p[i - 1] + 1)
    }


def diagonal_hooks(p):
    """Hook lengths on the main diagonal, (h_11, ..., h_kk) with k maximal."""
    return _diagonal_hooks(check_partition(p))


def _diagonal_hooks(p) -> tuple:
    """diagonal_hooks of a partition tuple that the library built, unchecked."""
    # 0-based cell (k, k) lies in the diagram iff p[k] > k.  Its hook is its
    # arm p[k] - k - 1, its leg (the number of parts longer than k, less
    # k + 1) and itself; p is weakly decreasing, so bisection counts the parts.
    return tuple(p[k] + bisect_left(p, -k, key=neg) - 2 * k - 1
                 for k in range(len(p)) if p[k] > k)


def _beads(p, count: int) -> int:
    """Bead mask of p on count >= len(p) beads (James-Kerber, The Representation
    Theory of the Symmetric Group, 2.7): bit p_i + count - i is set for
    1 <= i <= count, with p_i = 0 past the last part.  Read from the top, it is
    the rim: a bead per part, then a gap per step down to the next part.  A run
    of r parts equal to a, followed by a part b (0 past the last), reads
    "1" * r + "0" * (a - b); each run's end is found by bisection."""
    rim, i = [], 0
    while i < len(p):
        a = p[i]
        j = bisect_right(p, -a, i, key=neg)  # p is weakly decreasing
        rim.append("1" * (j - i) + "0" * (a - (p[j] if j < len(p) else 0)))
        i = j
    return int("".join(rim) + "1" * (count - len(p)) or "0", 2)


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
    non-negative position, as (mask, leg) pairs; the leg is the number of beads
    strictly between the two ends.  The moves come lower end y first, and a
    removal leaves mask - (2**t - 1 << y), an addition mask + (2**t - 1 << y):
    removals come in descending mask order, additions in ascending."""
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
    """All single rim-hook removals of the given length, as (partition, leg) pairs
    in descending order: each slides one bead down by the length (_moves)."""
    p = check_partition(p)
    _check_int("length", length)
    if length < 1:
        raise ValueError("hook length must be >= 1")
    return [(_parts(q), leg) for q, leg in _moves(_beads(p, len(p)), length, False)]


def _core_mask(mask, e: int) -> int:
    """Bead mask of the e-core: push every bead of mask down its runner as far
    as it goes.  Runner r is every e-th digit of the mask from bit r on, so
    the runners together read each digit once, whatever e."""
    bits = bin(mask)[:1:-1]  # bit x at index x
    core = bytearray(b"0" * len(bits))
    for r in range(min(e, len(bits))):
        k = bits[r::e].count("1")
        core[r:r + k * e:e] = b"1" * k
    return int(core[::-1], 2)


def e_core(p, e: int):
    """The e-core: what is left of p once no e-hook remains to remove (_core_mask)."""
    p = check_partition(p)
    _check_int("e", e)
    if e < 1:
        raise ValueError("e must be >= 1")
    return _parts(_core_mask(_beads(p, len(p)), e))


def is_e_core(p, e: int) -> bool:
    """True iff p is its own e-core (e >= 2): no e-hook can be removed, which
    holds iff no hook length of p is divisible by e (James-Kerber 2.7).  On
    the abacus: no bead has a free position e below it."""
    _check_int("e", e)
    if e < 2:
        raise ValueError("is_e_core requires e >= 2")
    p = check_partition(p)
    mask = _beads(p, len(p))
    return not (mask >> e) & ~mask


def is_e_class_regular(p, e: int) -> bool:
    """True iff no part of the class p is divisible by e (e >= 2)."""
    _check_int("e", e)
    if e < 2:
        raise ValueError("is_e_class_regular requires e >= 2")
    return all(part % e != 0 for part in _check_class(p))


def partitions_of(n: int):
    """All partitions of n in reverse-lexicographic order, (n) first, (1^n) last:
    the masks of _bead_masks(n), decoded.  n is checked before the cache hashes
    it.  Sizes are kept for the life of the process; sweeps and table ask for all."""
    _check_int("n", n)
    return _partitions(n)


@cache
def _partitions(n: int) -> tuple:
    return tuple(map(_parts, _bead_masks(n)))


@cache
def _bead_masks(n: int) -> dict:
    """{bead mask on n beads: position in partitions_of(n)}, in that order,
    kept for the life of the process; callers must not change it.

    The mask of (k,) + rest on n beads, k from n down to 1, is a bead at
    k + n - 1 over the mask of rest on n - k beads shifted up by k - 1, with
    k - 1 beads below it; rest's first part is at most k exactly when its mask
    lies below 1 << n.  Smaller sizes are asked for in ascending order, each
    cached before the next, so a miss recurses at most two deep."""
    if n < 0:
        raise ValueError("n must be non-negative")
    if n == 0:
        return {0: 0}
    masks, limit = [], 1 << n
    for k in range(n, 0, -1):
        shift = k - 1
        base = 1 << (k + n - 1) | (1 << shift) - 1
        masks += [r << shift | base for r in _bead_masks(n - k) if r < limit]
    return dict(zip(masks, range(len(masks))))


def dominance_leq(a, b) -> bool:
    """Dominance order: every prefix sum of a is at most the matching one of b."""
    a, b = check_partition(a), check_partition(b)
    n = sum(a)
    if n != sum(b):
        raise ValueError(f"dominance needs equal sizes: |{a}| != |{b}|")
    # Past its last part a partition's prefix sums stay at its size.
    return all(x <= y for x, y in zip_longest(accumulate(a), accumulate(b), fillvalue=n))
