"""Public entries check their partition arguments once, where they enter.

Each public function that takes a partition reads it once, so an iterator
gives the answer its tuple gives, and rejects a malformed one with
ValueError.  Classes are sorted into canonical order after their parts are
checked, so an out-of-order class is accepted and one with a part that does
not sort among ints is rejected; character labels are taken as given, so an
out-of-order label is rejected.  Every bad input here has size 3, so the
partition check, not a size check, is what rejects it.
"""

import pytest

from charblocks import (
    BlockId,
    blocks_of,
    c_mu,
    centralizer_order,
    char_degree,
    char_value,
    conjugate,
    count_matrix,
    diagonal_hooks,
    dominance_leq,
    e_core,
    is_e_class_regular,
    is_e_core,
    partitions_of,
)
from charblocks.characters import CharEngine
from charblocks.partitions import hook_lengths, remove_hooks_of_length

UNSORTED = (1, 2)
ZERO_PART = (3, 0)
NON_INT = (2, 1.0)
NON_COMPARABLE = (2, "1")  # sorted() raises TypeError on it

# (name, call) pairs taking the bad partition where a character label goes.
LABEL_ENTRIES = [
    ("char_value", lambda p: char_value(p, (2, 1))),
    ("CharEngine.char_value", lambda p: CharEngine().char_value(p, (2, 1))),
    ("char_degree", char_degree),
    ("e_core", lambda p: e_core(p, 2)),
    ("remove_hooks_of_length", lambda p: remove_hooks_of_length(p, 1)),
    ("is_e_core", lambda p: is_e_core(p, 2)),
    ("conjugate", conjugate),
    ("hook_lengths", hook_lengths),
    ("diagonal_hooks", diagonal_hooks),
    ("dominance_leq.a", lambda p: dominance_leq(p, (2, 1))),
    ("dominance_leq.b", lambda p: dominance_leq((2, 1), p)),
]

# The same for entries taking the bad partition where a class goes.
CLASS_ENTRIES = [
    ("char_value", lambda p: char_value((2, 1), p)),
    ("CharEngine.char_value", lambda p: CharEngine().char_value((2, 1), p)),
    ("centralizer_order", centralizer_order),
    ("c_mu", lambda p: c_mu(BlockId(e=2, core=(1,), weight=1), p)),
    ("is_e_class_regular", lambda p: is_e_class_regular(p, 2)),
]


def _cases(entries, bad_inputs):
    return [pytest.param(call, bad, id=f"{name}-{label}")
            for name, call in entries for label, bad in bad_inputs]


@pytest.mark.parametrize(
    "call,bad",
    _cases(LABEL_ENTRIES, [("unsorted", UNSORTED), ("zero", ZERO_PART),
                           ("non_int", NON_INT)])
    + _cases(CLASS_ENTRIES, [("zero", ZERO_PART), ("non_int", NON_INT),
                             ("non_comparable", NON_COMPARABLE)]),
)
def test_rejects_malformed_partition(call, bad):
    with pytest.raises(ValueError):
        call(bad)


# Valid labels and classes of size 3, the size every entry above asks for.
VALID = [(2, 1), (1, 1, 1), (3,)]


@pytest.mark.parametrize(
    "call",
    [pytest.param(call, id=f"{name}-{kind}")
     for kind, entries in (("label", LABEL_ENTRIES), ("class", CLASS_ENTRIES))
     for name, call in entries],
)
def test_reads_its_argument_once(call):
    for p in VALID:
        assert call(iter(p)) == call(p)


@pytest.mark.parametrize("call", [
    lambda: char_value((2, 1), (2, 2)),
    lambda: c_mu(BlockId(e=2, core=(1,), weight=1), (2, 2)),
], ids=["char_value", "c_mu"])
def test_rejects_size_mismatch(call):
    with pytest.raises(ValueError):
        call()


def test_out_of_order_class_is_sorted():
    assert char_value((2, 2), (1, 3)) == char_value((2, 2), (3, 1)) == -1
    assert centralizer_order((1, 3)) == centralizer_order((3, 1)) == 3
    assert is_e_class_regular((1, 3), 2) == is_e_class_regular((3, 1), 2) is True


# Entries taking e, given a partition they accept and an e that is no int.
E_ENTRIES = [
    ("e_core", lambda e: e_core((2, 1), e)),
    ("is_e_core", lambda e: is_e_core((2, 1), e)),
    ("is_e_class_regular-5", lambda e: is_e_class_regular((5,), e)),
    ("is_e_class_regular-3", lambda e: is_e_class_regular((3,), e)),
    ("blocks_of", lambda e: blocks_of(e, 3)),
    ("count_matrix", lambda e: list(count_matrix([e], 3))),
]


@pytest.mark.parametrize("call", [pytest.param(call, id=name) for name, call in E_ENTRIES])
@pytest.mark.parametrize("e", [2.0, 2.5, "2"])
def test_rejects_non_int_e(call, e):
    with pytest.raises(ValueError, match="^e must be an integer, got "):
        call(e)


def partitions_of_after_3(n):
    # n=3 is cached first.  By keyword, a cache that hashed n before the check
    # would answer n=3.0 from that entry and fail on [3] with TypeError.
    partitions_of(n=3)
    return partitions_of(n=n)


@pytest.mark.parametrize("call", [
    pytest.param(lambda n: blocks_of(2, n), id="blocks_of"),
    pytest.param(lambda n: list(count_matrix([2], n)), id="count_matrix"),
    pytest.param(partitions_of_after_3, id="partitions_of"),
])
@pytest.mark.parametrize("n", [2.5, 3.0, "3", [3], {}])
def test_rejects_non_int_n(call, n):
    with pytest.raises(ValueError, match="^n must be an integer, got "):
        call(n)


def test_non_int_e_keeps_each_entry_s_check_order():
    # e_core checks its partition first, the predicates check e first.
    with pytest.raises(ValueError, match="^partition parts"):
        e_core((0,), 2.5)
    with pytest.raises(ValueError, match="^e must be an integer"):
        is_e_core((0,), 2.5)
    with pytest.raises(ValueError, match="^e must be an integer"):
        is_e_class_regular((0,), 2.5)
    # A bool counts as an int, as in check_partition.
    assert e_core((3, 1), True) == e_core((3, 1), 1) == ()
    with pytest.raises(ValueError, match="^is_e_core requires e >= 2$"):
        is_e_core((2, 1), True)
    with pytest.raises(ValueError, match="^block enumeration needs e >= 2$"):
        blocks_of(True, 3)
    assert blocks_of(2, True) == blocks_of(2, 1)
    assert partitions_of(True) == ((1,),)
