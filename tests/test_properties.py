"""Property tests: the abacus code against the rim-walk oracles on random partitions.

The oracles in tests/oracles.py never use beta-sets, so each property checks
the bead moves, cores, single character values and whole character columns
against an independent computation.  Runs are derandomized, so every run draws the same examples.
"""

import subprocess
import sys
from pathlib import Path

from hypothesis import given, settings, strategies as st

from charblocks.blocks import blocks_of, c_mu, count_matrix
from charblocks.characters import _columns, char_value, column
from charblocks.partitions import (
    add_hooks_of_length,
    e_core,
    is_e_class_regular,
    partitions_of,
    remove_hooks_of_length,
)

from oracles import (
    brute_force_additions,
    greedy_core,
    mn_ascending,
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
@given(st.integers(0, 14).flatmap(
    lambda n: st.tuples(st.just(n), st.lists(st.sampled_from(partitions_of(n)), unique=True))))
def test_batch_columns_match_single_columns(drawn):
    # Any subset of the classes of S_n, in any order: the batch walk yields
    # each class once, with the dense column that decodes to column(lam).
    n, classes = drawn
    ps = partitions_of(n)
    walked = list(_columns(classes, n))
    assert sorted(lam for lam, _ in walked) == sorted(classes)
    for lam, col in walked:
        assert len(col) == len(ps)
        assert {nu: c for nu, c in zip(ps, col) if c} == column(lam)


@oracle
@given(st.integers(2, 5), st.integers(1, 8).flatmap(partition_of))
def test_count_matrix_matches_ascending_recursion(e, lam):
    # Each block's count on the drawn class, in the matrix over the classes
    # as (ir)regular as it, is its members that the uncached ascending
    # recursion finds non-zero, and agrees with the one-block c_mu.
    blocks = blocks_of(e, sum(lam))
    rows = list(count_matrix([e], sum(lam), is_e_class_regular(lam, e)))
    assert [b for b, _, _ in rows] == list(blocks)
    assert len({id(classes) for _, classes, _ in rows}) == 1
    for (b, classes, counts), members in zip(rows, blocks.values()):
        count = sum(1 for nu in members if mn_ascending(nu, lam) != 0)
        assert counts[classes.index(lam)] == count
        assert c_mu(b, lam).count == count


def test_failing_example_is_a_plain_failure(tmp_path):
    # Under the repo's warning filters, a falsified property fails its test
    # and pytest goes on; it does not stop with an internal error.
    (tmp_path / "test_falsified.py").write_text(
        "from hypothesis import given, settings, strategies as st\n\n"
        "@settings(derandomize=True, database=None)\n"
        "@given(st.integers())\n"
        "def test_falsified(x):\n"
        "    assert x < 0\n\n"
        "def test_after():\n"
        "    pass\n")
    config = Path(__file__).resolve().parents[1] / "pyproject.toml"
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(config), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_falsified.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in out
