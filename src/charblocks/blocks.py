"""Generalized e-blocks and the count of characters not vanishing on a class.

A block is named by (e, core, weight); it consists of all partitions of
n = |core| + weight*e whose e-core equals the given core.  The central
quantity is the number of block members whose character is non-zero on a
fixed conjugacy class.
"""

from collections import namedtuple

from .characters import _columns
from .partitions import (
    _bead_masks,
    _check_class,
    _check_int,
    _core_mask,
    _diagonal_hooks,
    _parts,
    check_partition,
    is_e_core,
    partitions_of,
)


class BlockId(namedtuple("BlockId", "e core weight")):
    """A block's name (e, core, weight), a named tuple: BlockId(...) and
    _replace canonicalise the core and check all three."""

    __slots__ = ()

    def __new__(cls, e, core, weight):
        _check_int("e", e)
        _check_int("weight", weight)
        core = check_partition(core)
        if e < 1:
            raise ValueError("e must be >= 1")
        if weight < 0:
            raise ValueError("weight must be non-negative")
        if e == 1:
            if core != ():
                raise ValueError("e=1 blocks must have empty core")
        elif not is_e_core(core, e):
            raise ValueError(f"{core} is not a {e}-core")
        self = super().__new__(cls, e, core, weight)
        if self.n < 1:
            raise ValueError("block must live in S_n with n >= 1")
        return self

    def _replace(self, **fields):
        """A copy with the given fields replaced, checked as BlockId(...) checks.
        _make stays unchecked: blocks_of builds its blocks through it."""
        return BlockId(*super()._replace(**fields))

    @property
    def n(self) -> int:
        return sum(self.core) + self.weight * self.e


_DIGITS = bytes.maketrans(b"\0\1", b"01")  # flags 0/1 -> the digits of int(..., 2)


def block_partitions(b: BlockId):
    """All partitions of b.n with the block's e-core, in enumeration order:
    for e = 1 every partition of b.n, else the block's members in blocks_of."""
    return list(partitions_of(b.n)) if b.e == 1 else blocks_of(b.e, b.n)[b]


def c_mu(b: BlockId, lam) -> list:
    """The block members whose character is non-zero on lam, in partitions_of
    order; their number is the count c_mu(B)."""
    lam = _check_class(lam)
    if sum(lam) != b.n:
        raise ValueError(f"|lambda| = {sum(lam)} != block n = {b.n}")
    (_, col), = _columns([lam])
    members = set(block_partitions(b))
    return [nu for nu, c in zip(partitions_of(b.n), col) if c and nu in members]


def count_matrix(e_values, n: int, regular: bool = True):
    """Yield (BlockId, classes, counts), the non-zero counts of S_n block by
    block: the blocks of each e in turn, in blocks_of order.  classes is one
    tuple per e, shared by its blocks: the e-class-regular classes (the other
    classes if not regular) in partitions_of order; counts[i] is the block's
    count on classes[i].

    Bit j of a mask stands for the j-th partition of partitions_of(n).  One
    _columns walk over every class that some e counts turns each column into
    the mask of its non-zero positions; a count is the popcount of that mask
    and the mask of the block's members.
    """
    # blocks_of runs for every e before the first row, so an e below 2 fails
    # with its message.
    tables = [(e, blocks_of(e, n)) for e in e_values]
    ps = partitions_of(n)
    bit = {nu: 1 << j for j, nu in enumerate(ps)}
    # partitions_of built the classes, so regularity is read off their parts unchecked.
    own = [tuple(lam for lam in ps if all(part % e for part in lam) == regular)
           for e, _ in tables]
    masks = {lam: int(bytes(map(bool, col))[::-1].translate(_DIGITS), 2)
             for lam, col in _columns({lam for classes in own for lam in classes})}
    for classes, (_, blocks) in zip(own, tables):
        colmasks = [masks[lam] for lam in classes]
        for b, members in blocks.items():
            m = sum(map(bit.__getitem__, members))
            yield b, classes, [(c & m).bit_count() for c in colmasks]


def extremal_lambda(b: BlockId):
    """The explicitly constructed e-class-regular class whose count is weight+1.

    Empty core: (we-1, 1).  Non-empty core: we added to the first diagonal
    hook, then the remaining diagonal hooks.
    """
    if b.e < 2:
        raise ValueError("extremal construction needs e >= 2")
    check_partition(b.core)
    return _extremal_lambda(b)


def _extremal_lambda(b: BlockId):
    """extremal_lambda of a block that blocks_of built, whose e and core are
    not checked again.  A class that is not e-class-regular still raises."""
    we = b.weight * b.e
    hooks = _diagonal_hooks(b.core)
    lam = (we + hooks[0],) + hooks[1:] if hooks else (we - 1, 1)
    if not all(part % b.e for part in lam):
        raise RuntimeError(f"extremal class {lam} of block {b} is not {b.e}-class-regular")
    return lam


def min_c_over_regular(b: BlockId):
    """Exhaustive minimum of the count over e-class-regular classes.

    Returns (min, argmin, zeros): the smallest non-zero count with the first
    class attaining it (both None if every regular class gives 0), and the
    list of regular classes with count 0, classes in partitions_of order.
    """
    _, classes, counts = next(row for row in count_matrix([b.e], b.n) if row[0] == b)
    best = min(filter(None, counts), default=None)
    argmin = None if best is None else classes[counts.index(best)]
    return best, argmin, [lam for lam, c in zip(classes, counts) if c == 0]


def blocks_of(e: int, n: int) -> dict:
    """All blocks of S_n for a given e with their members, {BlockId: members},
    in reverse core order: one block per e-core among the partitions of n."""
    _check_int("e", e)
    _check_int("n", n)
    if e < 2:
        raise ValueError("block enumeration needs e >= 2")
    masks = _bead_masks(n)
    if n < 1:
        raise ValueError("block must live in S_n with n >= 1")
    # A mask's e-core depends only on how many beads each runner holds, and on
    # n beads every bead lies below position 2n.
    runners = [sum(1 << x for x in range(r, 2 * n, e)) for r in range(min(e, 2 * n))]
    groups = {}  # runner counts -> (the first mask that has them, members)
    for mask, nu in zip(masks, partitions_of(n)):
        key = tuple([(mask & r).bit_count() for r in runners])
        groups.setdefault(key, (mask, []))[1].append(nu)
    # On n beads, mask order is core order.  _core_mask builds each core, so
    # it is an e-core and BlockId._make skips BlockId's checks.
    cores = sorted((_core_mask(mask, e), members) for mask, members in groups.values())
    named = ((_parts(core), members) for core, members in reversed(cores))
    return {BlockId._make((e, core, (n - sum(core)) // e)): members for core, members in named}
