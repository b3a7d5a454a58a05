"""Generalized e-blocks and the count of characters not vanishing on a class.

A block is named by (e, core, weight); it consists of all partitions of
n = |core| + weight*e whose e-core equals the given core.  The central
quantity is the number of block members whose character is non-zero on a
fixed conjugacy class.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .characters import chi_bar_coeffs, shared_engine
from .partitions import (
    check_partition,
    diagonal_hooks,
    e_core,
    is_e_class_regular,
    is_e_core,
    partitions_of,
)


@dataclass(frozen=True)
class BlockId:
    e: int
    core: tuple
    weight: int

    def __post_init__(self):
        object.__setattr__(self, "core", check_partition(self.core))
        if self.e < 1:
            raise ValueError("e must be >= 1")
        if self.weight < 0:
            raise ValueError("weight must be non-negative")
        if self.e == 1:
            if self.core != ():
                raise ValueError("e=1 blocks must have empty core")
        elif not is_e_core(self.core, self.e):
            raise ValueError(f"{self.core} is not a {self.e}-core")
        if self.n < 1:
            raise ValueError("block must live in S_n with n >= 1")

    @property
    def n(self) -> int:
        return sum(self.core) + self.weight * self.e


@dataclass
class CountReport:
    block: BlockId
    class_label: tuple
    count: int
    witnesses: list = field(default_factory=list)


def core_groups(e: int, n: int) -> dict:
    """Partitions of n grouped by e-core: {core: members}, each member list in
    partitions_of order.  One e_core call per partition."""
    groups = {}
    for nu in partitions_of(n):
        groups.setdefault(e_core(nu, e), []).append(nu)
    return groups


def block_partitions(b: BlockId):
    """All partitions of b.n with the block's e-core, in enumeration order."""
    return core_groups(b.e, b.n)[b.core]


def c_mu(b: BlockId, lam) -> CountReport:
    """Count (with witnesses) the block members whose character is non-zero on lam."""
    lam = check_partition(sorted(lam, reverse=True))
    if sum(lam) != b.n:
        raise ValueError(f"|lambda| = {sum(lam)} != block n = {b.n}")
    mn = shared_engine()._mn
    witnesses = [nu for nu in block_partitions(b) if mn(nu, lam) != 0]
    return CountReport(block=b, class_label=lam, count=len(witnesses), witnesses=witnesses)


def count_matrix(groups: dict, classes) -> dict:
    """Blocks x classes non-zero counts: {key: {class: count}} for the member
    lists in groups (as from blocks_of or core_groups), keys and classes kept
    in the given order.

    Each member and each class is checked once; each (member, class)
    character value is evaluated once.
    """
    groups = {core: [check_partition(nu) for nu in members]
              for core, members in groups.items()}
    classes = {lam: check_partition(sorted(lam, reverse=True)) for lam in classes}
    sizes = {sum(nu) for members in groups.values() for nu in members}
    for lam in classes.values():
        if sizes - {sum(lam)}:
            raise ValueError(f"member sizes {sorted(sizes)} but |lambda|={sum(lam)}")
    mn = shared_engine()._mn
    return {
        key: {lam: sum(1 for nu in members if mn(nu, canon) != 0)
              for lam, canon in classes.items()}
        for key, members in groups.items()
    }


def min_nonzero(counts: dict):
    """(min, argmin, zeros) of a {class: count} row: the smallest non-zero
    count with the first class attaining it (both None if every count is 0),
    and the classes with count 0, all in the row's class order."""
    best = None
    argmin = None
    zeros = []
    for lam, c in counts.items():
        if c == 0:
            zeros.append(lam)
        elif best is None or c < best:
            best, argmin = c, lam
    return best, argmin, zeros


def extremal_lambda(b: BlockId):
    """The explicitly constructed e-class-regular class whose count is weight+1.

    Empty core: (we-1, 1).  Non-empty core: we added to the first diagonal
    hook, then the remaining diagonal hooks.
    """
    if b.e < 2:
        raise ValueError("extremal construction needs e >= 2")
    we = b.weight * b.e
    if not b.core:
        if b.weight == 0:
            raise ValueError("empty core with weight 0 gives the empty block of S_0")
        lam = (we - 1, 1)
    else:
        hooks = diagonal_hooks(b.core)
        lam = (we + hooks[0],) + hooks[1:]
    if not is_e_class_regular(lam, b.e):
        raise RuntimeError(f"extremal class {lam} of block {b} is not {b.e}-class-regular")
    return lam


def min_c_over_regular(b: BlockId):
    """Exhaustive minimum of the count over e-class-regular classes.

    Returns (min, argmin, zeros): the smallest non-zero count with a class
    attaining it (both None if every regular class gives 0), and the list of
    regular classes with count 0.
    """
    if b.e < 2:
        raise ValueError("regular classes need e >= 2")
    regular = [lam for lam in partitions_of(b.n) if is_e_class_regular(lam, b.e)]
    counts = count_matrix({b: block_partitions(b)}, regular)
    return min_nonzero(counts[b])


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
    mn = shared_engine()._mn
    length = sum(psi) - sum(phi)
    if length <= 0 or length % b.e != 0:
        raise ValueError("psi must arise from phi by adding a hook of length divisible by e")
    signs = chi_bar_coeffs(phi, length, sum(psi))
    if psi not in signs:
        raise ValueError(f"{psi} is not a single-hook addition of {phi}")
    if sum(psi) != sum(lam):
        raise ValueError(f"|nu|={sum(psi)} but |lambda|={sum(lam)}")
    psi_val = mn(psi, lam)
    if psi_val == 0:
        raise ValueError("psi must have non-zero character value on lam")
    psi_term = signs[psi] * psi_val
    for beta, sign in signs.items():
        term = sign * mn(beta, lam)
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
    groups = core_groups(e, n)
    return {BlockId(e=e, core=core, weight=(n - sum(core)) // e): groups[core]
            for core in sorted(groups, reverse=True)}
