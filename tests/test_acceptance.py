"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  All checks are exact integer comparisons.
"""

import pytest

from charblocks.blocks import BlockId, blocks_of, c_mu, extremal_lambda
from charblocks.characters import (
    centralizer_order,
    char_degree,
    shared_engine,
)
from charblocks.partitions import is_e_class_regular, partitions_of
from charblocks.sweeps import (
    lemma1_sweep,
    verify_chibar,
    verify_dichotomy,
    verify_remark2,
    verify_theorem1,
)


def report(criterion: str, ok: bool):
    print(f"{'PASS' if ok else 'FAIL'} {criterion}")
    assert ok


@pytest.fixture(scope="module")
def theorem1_report():
    return verify_theorem1([2, 3, 4, 5], 12)


def test_criterion_1_minimum_equals_weight_plus_one(theorem1_report):
    rows = theorem1_report.rows
    ok = all(r["min"] is None or r["min"] == r["expected"] for r in rows)
    ok = ok and theorem1_report.passed()
    report("criterion 1: min count over regular classes = w+1 (e=2..5, n<=12)", ok)


def test_criterion_2_zero_count_golden_cases():
    c1 = c_mu(BlockId(e=3, core=(6, 4, 2), weight=1), (10, 2, 1, 1, 1)).count
    c2 = c_mu(BlockId(e=4, core=(2, 1), weight=1), (2, 2, 2, 1)).count
    report("criterion 2: golden zero counts", c1 == 0 and c2 == 0)


def test_criterion_3_constructed_class_attains_minimum(theorem1_report):
    ok = True
    for r in theorem1_report.rows:
        ok = ok and r["extremal_count"] == r["expected"]
    for e in (2, 3, 4, 5):
        for n in range(1, 13):
            for b in blocks_of(e, n):
                lam = extremal_lambda(b)
                ok = ok and is_e_class_regular(lam, e) and sum(lam) == n
    report("criterion 3: constructed regular class has count w+1", ok)


def test_criterion_4_dichotomy():
    rep = verify_dichotomy([2, 3, 4, 5], 12)
    report("criterion 4: count is 0 or >= w+1 on regular classes", rep.passed())


def test_criterion_5_sign_lemma():
    rep = lemma1_sweep(8)
    checked = sum(r["checked"] for r in rep.rows)
    report(f"criterion 5: sign lemma over {checked} configurations", rep.passed())


def test_criterion_6_virtual_character_vanishing():
    rep = verify_chibar(10)
    report("criterion 6: signed hook-addition combinations vanish", rep.passed())


def test_criterion_7_engine_oracles():
    eng = shared_engine()
    ok = True
    for n in range(1, 16):
        for nu in partitions_of(n):
            ok = ok and eng.char_value(nu, (1,) * n) == char_degree(nu)
    for n in range(1, 9):
        ps = partitions_of(n)
        for lam in ps:
            for rho in ps:
                s = sum(
                    eng.char_value(nu, lam) * eng.char_value(nu, rho) for nu in ps
                )
                expected = centralizer_order(lam) if lam == rho else 0
                ok = ok and s == expected
    report("criterion 7: degrees (n<=15) and column orthogonality (n<=8)", ok)


def test_criterion_8_full_table_counts():
    rep = verify_remark2(10)
    conjecture = all(r["conjecture_min_is_n_minus_1"] for r in rep.rows)
    print(f"  reported: min count equals n-1 for 3<=n<=10: {conjecture}")
    report("criterion 8: e=1 counts and sqrt lower bound", rep.passed())


def test_criterion_9_spot_checks_beyond_desk_scale():
    ok = True
    for e in (2, 3):
        for n in (13, 14, 15):
            for b in blocks_of(e, n):
                lam = extremal_lambda(b)
                ok = ok and c_mu(b, lam).count == b.weight + 1
    report("criterion 9: spot blocks at n in {13,14,15}, e in {2,3}", ok)
