"""Public entries check their partition arguments once, where they enter.

Each public function that takes a partition rejects a malformed one with
ValueError.  Classes are sorted into canonical order before the check, so an
out-of-order class is accepted; character labels are taken as given, so an
out-of-order label is rejected.  Every bad input here has size 3, so the
partition check, not a size check, is what rejects it.
"""

import pytest

from charblocks import (
    BlockId,
    CharEngine,
    c_mu,
    centralizer_order,
    char_degree,
    char_value,
    add_hooks_of_length,
    chi_bar_coeffs,
    conjugate,
    diagonal_hooks,
    dominance_leq,
    e_core,
    is_e_class_regular,
    is_e_core,
    opposite_sign_partner,
)
from charblocks.partitions import remove_hooks_of_length

UNSORTED = (1, 2)
ZERO_PART = (3, 0)
NON_INT = (2, 1.0)

# (name, call) pairs taking the bad partition where a character label goes.
LABEL_ENTRIES = [
    ("char_value", lambda p: char_value(p, (2, 1))),
    ("CharEngine.char_value", lambda p: CharEngine().char_value(p, (2, 1))),
    ("char_degree", char_degree),
    ("chi_bar_coeffs", lambda p: chi_bar_coeffs(p, 1, 4)),
    ("opposite_sign_partner.psi",
     lambda p: opposite_sign_partner(p, (1,), BlockId(e=2, core=(1,), weight=1), (3,))),
    ("opposite_sign_partner.phi",
     lambda p: opposite_sign_partner((5,), p, BlockId(e=2, core=(1,), weight=2), (5,))),
    ("e_core", lambda p: e_core(p, 2)),
    ("remove_hooks_of_length", lambda p: remove_hooks_of_length(p, 1)),
    ("add_hooks_of_length", lambda p: add_hooks_of_length(p, 1)),
    ("is_e_core", lambda p: is_e_core(p, 2)),
    ("conjugate", conjugate),
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
    ("opposite_sign_partner.lam",
     lambda p: opposite_sign_partner((3,), (1,), BlockId(e=2, core=(1,), weight=1), p)),
    ("is_e_class_regular", lambda p: is_e_class_regular(p, 2)),
]


def _cases(entries, bad_inputs):
    return [pytest.param(call, bad, id=f"{name}-{label}")
            for name, call in entries for label, bad in bad_inputs]


@pytest.mark.parametrize(
    "call,bad",
    _cases(LABEL_ENTRIES, [("unsorted", UNSORTED), ("zero", ZERO_PART),
                           ("non_int", NON_INT)])
    + _cases(CLASS_ENTRIES, [("zero", ZERO_PART), ("non_int", NON_INT)]),
)
def test_rejects_malformed_partition(call, bad):
    with pytest.raises(ValueError):
        call(bad)


@pytest.mark.parametrize("call", [
    lambda: char_value((2, 1), (2, 2)),
    lambda: chi_bar_coeffs((1,), 2, 2),
    lambda: c_mu(BlockId(e=2, core=(1,), weight=1), (2, 2)),
    lambda: opposite_sign_partner((3,), (1,), BlockId(e=2, core=(1,), weight=1), (2, 2)),
], ids=["char_value", "chi_bar_coeffs", "c_mu", "opposite_sign_partner"])
def test_rejects_size_mismatch(call):
    with pytest.raises(ValueError):
        call()


def test_out_of_order_class_is_sorted():
    assert char_value((2, 2), (1, 3)) == char_value((2, 2), (3, 1)) == -1
    assert centralizer_order((1, 3)) == centralizer_order((3, 1)) == 3
    assert is_e_class_regular((1, 3), 2) == is_e_class_regular((3, 1), 2) is True
