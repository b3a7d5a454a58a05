"""Generalized e-blocks and the count of characters not vanishing on a class.

A block is named by (e, core, weight); it consists of all partitions of
n = |core| + weight*e whose e-core equals the given core.  The central
quantity is the number of block members whose character is non-zero on a
fixed conjugacy class.
"""

from __future__ import annotations

from collections import namedtuple

from .characters import _columns, chi_bar_coeffs, column
from .partitions import (
    check_partition,
    diagonal_hooks,
    e_core,
    is_e_class_regular,
    is_e_core,
    partitions_of,
)


class BlockId(namedtuple("BlockId", "e core weight")):
    """A block's name (e, core, weight), a named tuple: BlockId(...)
    canonicalises the core and checks all three."""

    __slots__ = ()

    def __new__(cls, e, core, weight):
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

    @property
    def n(self) -> int:
        return sum(self.core) + self.weight * self.e


CountReport = namedtuple("CountReport", "block class_label count witnesses")

_DIGITS = bytes.maketrans(b"\0\1", b"01")  # flags 0/1 -> the digits of int(..., 2)


def block_partitions(b: BlockId):
    """All partitions of b.n with the block's e-core, in enumeration order."""
    return [nu for nu in partitions_of(b.n) if e_core(nu, b.e) == b.core]


def c_mu(b: BlockId, lam) -> CountReport:
    """Count (with witnesses) the block members whose character is non-zero on lam."""
    lam = check_partition(sorted(lam, reverse=True))
    if sum(lam) != b.n:
        raise ValueError(f"|lambda| = {sum(lam)} != block n = {b.n}")
    col = column(lam)
    witnesses = [nu for nu in block_partitions(b) if nu in col]
    return CountReport(block=b, class_label=lam, count=len(witnesses), witnesses=witnesses)


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
             for lam, col in _columns({lam for classes in own for lam in classes}, n)}
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
    we = b.weight * b.e
    if not b.core:
        lam = (we - 1, 1)
    else:
        hooks = diagonal_hooks(b.core)
        lam = (we + hooks[0],) + hooks[1:]
    if not is_e_class_regular(lam, b.e):
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


def opposite_sign_partner(psi, phi, b: BlockId, lam):
    """A block member whose signed contribution to the hook-addition virtual
    character of phi cancels against that of psi.

    psi must have non-zero character value on lam and arise from phi by adding
    a hook of length divisible by e.  Among valid partners the canonically
    first (reverse-lex) is returned; failure to find one would contradict the
    vanishing of the virtual character and raises.
    """
    psi = check_partition(psi)
    phi = check_partition(phi)
    lam = check_partition(sorted(lam, reverse=True))
    length = sum(psi) - sum(phi)
    if length <= 0 or length % b.e != 0:
        raise ValueError("psi must arise from phi by adding a hook of length divisible by e")
    signs = chi_bar_coeffs(phi, length, sum(psi))
    if psi not in signs:
        raise ValueError(f"{psi} is not a single-hook addition of {phi}")
    if sum(psi) != sum(lam):
        raise ValueError(f"|nu|={sum(psi)} but |lambda|={sum(lam)}")
    col = column(lam)
    if psi not in col:
        raise ValueError("psi must have non-zero character value on lam")
    psi_term = signs[psi] * col[psi]
    for beta, sign in signs.items():
        term = sign * col.get(beta, 0)
        if term != 0 and (term > 0) != (psi_term > 0):
            return beta
    raise RuntimeError(
        "no opposite-sign partner found; the virtual character did not vanish"
    )


def blocks_of(e: int, n: int) -> dict:
    """All blocks of S_n for a given e with their members, {BlockId: members},
    in reverse core order: one block per e-core among the partitions of n."""
    if e < 2:
        raise ValueError("block enumeration needs e >= 2")
    groups = {}
    for nu in partitions_of(n):
        groups.setdefault(e_core(nu, e), []).append(nu)
    return {BlockId(e=e, core=core, weight=(n - sum(core)) // e): groups[core]
            for core in sorted(groups, reverse=True)}
