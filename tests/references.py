"""Reference character columns that several test files share.

They come from char_value, which uses the library's bead masks, so they
live here and not in tests/oracles.py, which stays independent of them.
"""

from functools import cache

from charblocks.characters import char_value
from charblocks.partitions import partitions_of


@cache
def reference_column(lam):
    """{nu: chi^nu(lam)} over the non-zero values, from char_value, whose hook
    removals share nothing with the _columns walk's additions; built once per
    class."""
    return {nu: v for nu in partitions_of(sum(lam)) if (v := char_value(nu, lam))}
