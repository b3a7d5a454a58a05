"""Property tests: the abacus code against the rim-walk oracles on random partitions.

The oracles in tests/oracles.py never use beta-sets, so each property checks
the bead moves, cores, single character values and whole character columns
against an independent computation.  Runs are derandomized, so every run draws the same examples.
"""

from hypothesis import given, settings, strategies as st

from charblocks.blocks import blocks_of, c_mu, count_matrix
from charblocks.characters import char_value, column
from charblocks.partitions import (
    add_hooks_of_length,
    e_core,
    partitions_of,
    remove_hook,
    remove_hooks_of_length,
)

from oracles import (
    brute_force_additions,
    greedy_core,
    mn_ascending,
    rim_walk_remove,
    rim_walk_removals_of_length,
)

oracle = settings(derandomize=True, deadline=None, database=None)


@st.composite
def partition_of(draw, n):
    """A partition of n: parts drawn one at a time, then sorted."""
    parts = []
    while n:
        k = draw(st.integers(1, n))
        parts.append(k)
        n -= k
    return tuple(sorted(parts, reverse=True))


def partitions(max_size):
    return st.integers(0, max_size).flatmap(partition_of)


@oracle
@given(partitions(16), st.integers(1, 17))
def test_removals_match_rim_walk(p, length):
    assert remove_hooks_of_length(p, length) == rim_walk_removals_of_length(p, length)


@oracle
@given(partitions(16).filter(bool), st.data())
def test_remove_hook_matches_rim_walk(p, data):
    i = data.draw(st.integers(1, len(p)))
    j = data.draw(st.integers(1, p[i - 1]))
    assert remove_hook(p, i, j) == rim_walk_remove(p, i, j)


@oracle
@given(partitions(9), st.integers(1, 5))
def test_additions_match_brute_force(p, length):
    assert add_hooks_of_length(p, length) == brute_force_additions(p, length)


@oracle
@given(partitions(20), st.integers(2, 7))
def test_core_matches_greedy_stripping(p, e):
    assert e_core(p, e) == greedy_core(p, e)


@oracle
@given(st.integers(0, 10).flatmap(lambda n: st.tuples(partition_of(n), partition_of(n))))
def test_char_value_matches_ascending_recursion(pair):
    nu, lam = pair
    assert char_value(nu, lam) == mn_ascending(nu, lam)


@oracle
@given(st.integers(0, 8).flatmap(partition_of))
def test_column_matches_ascending_recursion(lam):
    # The column holds every non-zero value on lam and nothing else.
    expected = {nu: mn_ascending(nu, lam) for nu in partitions_of(sum(lam))}
    assert column(lam) == {nu: v for nu, v in expected.items() if v != 0}


@oracle
@given(st.integers(2, 5), st.integers(1, 8).flatmap(partition_of))
def test_count_matrix_matches_ascending_recursion(e, lam):
    # Each block's count on the drawn class is its members that the uncached
    # ascending recursion finds non-zero, and agrees with the one-block c_mu.
    blocks = blocks_of(e, sum(lam))
    counts = count_matrix(blocks, [lam])
    assert list(counts) == list(blocks)
    for b, members in blocks.items():
        count = sum(1 for nu in members if mn_ascending(nu, lam) != 0)
        assert counts[b] == {lam: count}
        assert c_mu(b, lam).count == count
