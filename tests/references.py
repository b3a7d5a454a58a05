"""Reference character columns and decoded move-table rows that several
test files share.

They come from the library's bead masks, so they live here and not in
tests/oracles.py, which stays independent of them.
"""

from functools import cache

from charblocks.characters import _table, char_value
from charblocks.partitions import partitions_of


@cache
def reference_column(lam):
    """{nu: chi^nu(lam)} over the non-zero values, from char_value, whose hook
    removals share nothing with the _columns walk's additions; built once per
    class."""
    return {nu: v for nu in partitions_of(sum(lam)) if (v := char_value(nu, lam))}


def row_signs(row, n):
    """A move-table row decoded to {partition of n: sign}, largest partition
    first: +1 at its even-leg positions, -1 at its odd."""
    ps = partitions_of(n)
    even, odd = row
    return dict(sorted([(ps[j], 1) for j in even] + [(ps[j], -1) for j in odd], reverse=True))


def addition_signs(phi, t):
    """{partition: (-1)^leg} over the t-hook additions to phi, largest first:
    the signs of the chi-bar combination of phi and t, read from row phi of
    characters._table(|phi|, t), as the chibar sweep reads them."""
    size = sum(phi)
    return row_signs(_table(size, t)[partitions_of(size).index(phi)], size + t)
