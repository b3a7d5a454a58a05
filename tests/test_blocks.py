import concurrent.futures
import pickle
import tracemalloc
from functools import partial

import pytest

from charblocks.blocks import (
    BlockId,
    block_partitions,
    blocks_of,
    c_mu,
    count_matrix,
    extremal_lambda,
    min_c_over_regular,
    opposite_sign_partner,
)
from charblocks.characters import _columns, char_value, column
from charblocks.partitions import (
    e_core,
    is_e_class_regular,
    partitions_of,
)
from charblocks import blocks, sweeps
from charblocks.sweeps import (
    lemma1_sweep,
    nonvanishing_row_structure_check,
    verify_chibar,
    verify_dichotomy,
    verify_remark1,
    verify_remark2,
    verify_theorem1,
)
from oracles import brute_force_additions, greedy_core


class TestBlockId:
    def test_valid(self):
        b = BlockId(e=4, core=(2, 1), weight=1)
        assert b.n == 7

    def test_invalid_core(self):
        with pytest.raises(ValueError):
            BlockId(e=3, core=(3,), weight=1)

    def test_e1_requires_empty_core(self):
        with pytest.raises(ValueError):
            BlockId(e=1, core=(1,), weight=1)
        assert BlockId(e=1, core=(), weight=5).n == 5

    def test_empty_block_of_s0_rejected(self):
        with pytest.raises(ValueError):
            BlockId(e=2, core=(), weight=0)

    @pytest.mark.parametrize("e,core,weight,message", [
        (3, (1, 2), 1, r"parts must be weakly decreasing: \(1, 2\)"),
        (0, (), 1, "e must be >= 1"),
        (2, (), -1, "weight must be non-negative"),
        (1, (1,), 1, "e=1 blocks must have empty core"),
        (3, (3,), 1, r"\(3,\) is not a 3-core"),
        (2, (), 0, "block must live in S_n with n >= 1"),
    ])
    def test_error_messages(self, e, core, weight, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            BlockId(e=e, core=core, weight=weight)

    def test_hash_is_the_field_tuple_hash(self):
        # Dict and set orders of blocks, and so report row orders, rest on it.
        b = BlockId(e=3, core=(1, 1), weight=2)
        assert hash(b) == hash((b.e, b.core, b.weight))

    def test_fields_are_read_only(self):
        b = BlockId(e=2, core=(1,), weight=1)
        with pytest.raises(AttributeError):
            b.e = 3
        assert b.e == 2

    def test_core_is_canonicalised(self):
        b = BlockId(e=4, core=[2, 1], weight=1)
        assert b.core == (2, 1) and type(b.core) is tuple

    def test_positional_and_keyword_construction_agree(self):
        assert BlockId(4, (2, 1), 1) == BlockId(e=4, core=(2, 1), weight=1)

    def test_pickle_round_trip(self):
        b = BlockId(e=4, core=(2, 1), weight=1)
        copy = pickle.loads(pickle.dumps(b))
        assert copy == b and type(copy) is BlockId and copy.n == 7


class TestBlockPartitions:
    def test_examples(self):
        b = BlockId(e=4, core=(2, 1), weight=1)
        assert block_partitions(b) == [(6, 1), (4, 3), (2, 2, 2, 1), (2, 1, 1, 1, 1, 1)]
        b = BlockId(e=2, core=(), weight=2)
        assert block_partitions(b) == list(partitions_of(4))
        b = BlockId(e=3, core=(3, 1), weight=0)
        assert block_partitions(b) == [(3, 1)]

    def test_hook_generation_agrees(self):
        # A block is the closure of its core under adding e-hooks; the
        # additions come from the rim-walk oracle, not from beta-sets.
        for e in range(2, 5):
            for n in range(1, 10):
                for b in blocks_of(e, n):
                    if b.weight <= 2:
                        current = {b.core}
                        for _ in range(b.weight):
                            current = {q for p in current
                                       for q, _ in brute_force_additions(p, e)}
                        assert sorted(current, reverse=True) == block_partitions(b)

    def test_blocks_partition_all_partitions(self):
        for e in range(2, 5):
            for n in range(1, 10):
                seen = []
                for b in blocks_of(e, n):
                    seen.extend(block_partitions(b))
                assert sorted(seen) == sorted(partitions_of(n))

    def test_core_groups_match_greedy_oracle(self):
        for e in range(2, 16):
            for n in range(1, 13):
                # The e-cores found independently: partitions of the sizes
                # m = n (mod e) up to n that the greedy stripping leaves alone.
                cores = sorted((mu for m in range(n % e, n + 1, e)
                                for mu in partitions_of(m) if greedy_core(mu, e) == mu),
                               reverse=True)
                found = blocks_of(e, n)
                assert [b.core for b in found] == cores
                for b, members in found.items():
                    assert b.weight == (n - sum(b.core)) // e
                    assert members == [
                        nu for nu in partitions_of(n) if greedy_core(nu, e) == b.core
                    ]

    @pytest.mark.parametrize("e,n", [(2, 0), (3, 0), (1, 4), (1, 1), (2, -1)])
    def test_blocks_of_rejects_degenerate(self, e, n):
        # S_0 has no block and a negative n no partition; e = 1 is the whole
        # character table, not a block sweep.
        with pytest.raises(ValueError):
            blocks_of(e, n)


class TestCount:
    def test_paper_zero_cases(self):
        assert c_mu(BlockId(e=3, core=(6, 4, 2), weight=1), (10, 2, 1, 1, 1)).count == 0
        assert c_mu(BlockId(e=4, core=(2, 1), weight=1), (2, 2, 2, 1)).count == 0

    def test_s4_count(self):
        r = c_mu(BlockId(e=2, core=(), weight=2), (3, 1))
        assert r.count == 3
        assert r.witnesses == [(4,), (2, 2), (1, 1, 1, 1)]

    def test_report_fields(self):
        b = BlockId(e=2, core=(), weight=2)
        r = c_mu(b, [1, 3])
        assert r.block == b and r.class_label == (3, 1) and type(r.class_label) is tuple
        assert r.count == 3 and r.witnesses == [(4,), (2, 2), (1, 1, 1, 1)]

    def test_witness_consistency(self):
        for e in range(2, 5):
            for b in blocks_of(e, 6):
                for lam in partitions_of(6):
                    r = c_mu(b, lam)
                    assert r.count == len(r.witnesses)
                    assert r.witnesses == sorted(set(r.witnesses), reverse=True)
                    for nu in r.witnesses:
                        assert e_core(nu, e) == b.core
                        assert char_value(nu, lam) != 0

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            c_mu(BlockId(e=2, core=(), weight=2), (3,))

    @pytest.mark.parametrize("regular", [True, False])
    def test_count_matrix_counts_members_in_column(self, regular):
        # Every e from 2 to n in one matrix: rows e by e in blocks_of order,
        # each over its own e's classes, one tuple shared by the e's rows, and
        # each count is the block's members in the column.
        for n in range(2, 11):
            es = range(2, n + 1)
            rows = list(count_matrix(es, n, regular))
            blocks = {b: members for e in es for b, members in blocks_of(e, n).items()}
            assert [b for b, _, _ in rows] == list(blocks)
            for e in es:
                assert len({id(classes) for b, classes, _ in rows if b.e == e}) == 1
            for (b, classes, counts), members in zip(rows, blocks.values()):
                assert classes == tuple(lam for lam in partitions_of(n)
                                        if is_e_class_regular(lam, b.e) == regular)
                assert counts == [sum(1 for nu in members if nu in column(lam))
                                  for lam in classes]

    def test_count_matrix_streams_its_rows(self):
        # Rows come one at a time: consuming every block of e = 2..14 at n = 14
        # never holds the whole block x class matrix (a dict of them peaks above
        # 4 MB here).
        tracemalloc.start()
        try:
            counts = count_matrix(range(2, 15), 14)
            assert not isinstance(counts, dict)
            for _ in counts:
                pass
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


class TestExtremal:
    def test_examples(self):
        assert extremal_lambda(BlockId(e=2, core=(), weight=2)) == (3, 1)
        assert extremal_lambda(BlockId(e=4, core=(2, 1), weight=1)) == (7,)
        assert extremal_lambda(BlockId(e=3, core=(3, 1), weight=0)) == (4,)

    def test_irregular_construction_raises(self, monkeypatch):
        # (2,) is what the construction gives if the diagonal hooks were (2,)
        monkeypatch.setattr(blocks, "diagonal_hooks", lambda core: (2,))
        with pytest.raises(RuntimeError, match=r"block BlockId\(e=2, core=\(1,\)"):
            extremal_lambda(BlockId(e=2, core=(1,), weight=0))

    def test_attains_weight_plus_one(self):
        for e in range(2, 6):
            for n in range(1, 11):
                for b in blocks_of(e, n):
                    lam = extremal_lambda(b)
                    assert sum(lam) == b.n
                    assert is_e_class_regular(lam, e)
                    assert c_mu(b, lam).count == b.weight + 1


class TestMinOverRegular:
    def test_examples(self):
        b = BlockId(e=2, core=(), weight=2)
        best, argmin, zeros = min_c_over_regular(b)
        assert best == 3
        assert c_mu(b, argmin).count == 3

        best, _, zeros = min_c_over_regular(BlockId(e=4, core=(2, 1), weight=1))
        assert best == 2
        assert (2, 2, 2, 1) in zeros

        best, argmin, _ = min_c_over_regular(BlockId(e=2, core=(), weight=1))
        assert best == 2 and argmin == (1, 1)

    def test_weight_zero_min_is_one(self):
        for e in range(2, 5):
            for n in range(1, 9):
                for b in blocks_of(e, n):
                    if b.weight == 0:
                        best, _, _ = min_c_over_regular(b)
                        assert best == 1

    def test_matches_brute_force(self):
        # The first class in partitions_of order wins a tie, and the zeros
        # keep that order.
        for e in range(2, 5):
            for n in range(1, 9):
                regular = [lam for lam in partitions_of(n) if is_e_class_regular(lam, e)]
                for b in blocks_of(e, n):
                    counts = [c_mu(b, lam).count for lam in regular]
                    nonzero = [(c, i) for i, c in enumerate(counts) if c]
                    best, i = min(nonzero) if nonzero else (None, None)
                    assert min_c_over_regular(b) == (
                        best, None if i is None else regular[i],
                        [lam for lam, c in zip(regular, counts) if c == 0])


class TestOppositeSignPartner:
    def test_examples(self):
        b = BlockId(e=2, core=(), weight=1)
        assert opposite_sign_partner((2,), (), b, (1, 1)) == (1, 1)
        assert opposite_sign_partner((1, 1), (), b, (1, 1)) == (2,)

    def test_partner_properties_and_injectivity(self):
        for e in (2, 3):
            for n in range(2, 9):
                for b in blocks_of(e, n):
                    if b.weight == 0:
                        continue
                    for psi in block_partitions(b):
                        for lam in partitions_of(n):
                            if not is_e_class_regular(lam, e):
                                continue
                            if char_value(psi, lam) == 0:
                                continue
                            partners = {}
                            for k in range(1, b.weight + 1):
                                from charblocks.partitions import (
                                    remove_hooks_of_length,
                                )

                                for phi, _ in remove_hooks_of_length(psi, k * e):
                                    beta = opposite_sign_partner(psi, phi, b, lam)
                                    assert beta != psi
                                    assert e_core(beta, e) == b.core
                                    assert char_value(beta, lam) != 0
                                    assert phi not in partners
                                    partners[phi] = beta
                            # distinct removals give distinct partners
                            vals = list(partners.values())
                            assert len(vals) == len(set(vals))

    def test_precondition_errors(self):
        b = BlockId(e=2, core=(), weight=1)
        with pytest.raises(ValueError):
            # hook length 1 is not divisible by e=2
            opposite_sign_partner((2,), (1,), b, (1, 1))
        with pytest.raises(ValueError):
            # character value of psi on lam is zero
            b2 = BlockId(e=2, core=(), weight=2)
            opposite_sign_partner((2, 1, 1), (2,), b2, (3, 1))


@pytest.fixture
def fake_pool(monkeypatch):
    """The sweeps' process pool swapped for an in-process one that records
    the worker counts asked for and the tasks it is given; no pool starts."""
    seen = {"workers": [], "tasks": []}

    class FakePool:
        def __init__(self, max_workers):
            seen["workers"].append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            seen["tasks"].extend(tasks)
            return map(fn, tasks)

    # _sweep imports the pool class when it needs one, so patch it at its source.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakePool)
    return seen


class TestSweeps:
    def test_theorem1_small(self):
        report = verify_theorem1([2, 3], 8)
        assert report.passed()
        assert all(r["ok"] for r in report.rows)

    @pytest.mark.parametrize(
        "sweep",
        [
            lambda jobs: verify_theorem1([2, 3], 7, jobs=jobs),
            lambda jobs: verify_dichotomy([2, 3], 7, jobs=jobs),
            lambda jobs: verify_remark1([2, 3], 7, jobs=jobs),
            lambda jobs: verify_chibar(6, jobs=jobs),
            lambda jobs: lemma1_sweep(6, jobs=jobs),
            lambda jobs: verify_remark2(8, jobs=jobs),
            lambda jobs: nonvanishing_row_structure_check(7, [2, 3], jobs=jobs),
        ],
        ids=["theorem1", "dichotomy", "remark1", "chibar", "lemma1", "remark2",
             "rowstructure"],
    )
    def test_parallel_matches_serial(self, sweep):
        assert sweep(2).to_json(meta=False) == sweep(1).to_json(meta=False)

    def test_workers_capped_at_task_count(self, fake_pool):
        started = fake_pool["workers"]
        report = verify_chibar(3, jobs=64)
        assert started == [3]
        assert report.to_json(meta=False) == verify_chibar(3).to_json(meta=False)
        verify_chibar(1, jobs=64)
        assert started == [3]  # a single task runs in-process

    # Every sweep hands the pool one int per n (per m for lemma1), covering
    # every e, largest first.
    @pytest.mark.parametrize(
        "sweep,tasks",
        [
            (partial(verify_theorem1, [2, 3, 4], 5), [5, 4, 3, 2, 1]),
            (partial(verify_dichotomy, [2, 3, 4], 5), [5, 4, 3, 2, 1]),
            (partial(verify_remark1, [2, 3, 4], 5), [5, 4, 3, 2, 1]),
            (partial(verify_chibar, 5), [5, 4, 3, 2, 1]),
            (partial(nonvanishing_row_structure_check, 5, [2, 3, 4]), [5, 4, 3, 2, 1]),
            (partial(lemma1_sweep, 5), [5, 4, 3, 2]),
            (partial(verify_remark2, 5), [5, 4, 3]),
        ],
        ids=["verify_theorem1", "verify_dichotomy", "verify_remark1", "verify_chibar",
             "nonvanishing_row_structure_check", "lemma1_sweep", "verify_remark2"],
    )
    def test_block_sweeps_one_task_per_n(self, fake_pool, sweep, tasks):
        report = sweep(jobs=2)
        assert fake_pool["tasks"] == tasks
        assert report.to_json(meta=False) == sweep().to_json(meta=False)
        if "core" in report.rows[0]:  # the block sweeps list rows by (e, n, core)
            keys = [(r["e"], r["n"], r["core"]) for r in report.rows]
            assert keys == sorted(keys) and {e for e, _, _ in keys} == {2, 3, 4}

    def test_rowstructure_one_column_per_extremal_class_per_n(self, monkeypatch):
        built = {}

        def columns(classes, n):
            classes = list(classes)
            built[n] = built.get(n, 0) + len(classes)
            return _columns(classes, n)

        monkeypatch.setattr(sweeps, "_columns", columns)
        nonvanishing_row_structure_check(12, [2, 3, 4, 5])
        expected = {}
        for n in range(1, 13):
            ext = {extremal_lambda(b) for e in (2, 3, 4, 5) for b in blocks_of(e, n) if b.core}
            # and the near-hook column (n-1, 1), which may itself be extremal:
            # (n-1, 1) is the extremal class of core (2, 2) at e = 4, n = 8.
            expected[n] = len(ext | {(n - 1, 1)} if n >= 2 else ext)
        assert built == expected

    @pytest.mark.parametrize(
        "sweep",
        [
            lambda: verify_theorem1([2, 3], 0),
            lambda: verify_dichotomy([2], -1),
            lambda: verify_remark1([], 5),
            lambda: verify_chibar(-3),
            lambda: lemma1_sweep(1),
            lambda: nonvanishing_row_structure_check(0),
        ],
        ids=["theorem1", "dichotomy", "remark1-no-e", "chibar", "lemma1", "rowstructure"],
    )
    def test_empty_range_rejected(self, sweep):
        with pytest.raises(ValueError, match="nothing to verify: the range is empty"):
            sweep()

    def test_remark2_keeps_its_range_message(self):
        with pytest.raises(ValueError, match="n_max must be >= 3"):
            verify_remark2(2)

    @pytest.mark.parametrize("jobs", [0, -4])
    def test_jobs_below_one_rejected(self, jobs):
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            verify_theorem1([2], 3, jobs=jobs)
        with pytest.raises(ValueError, match="jobs must be >= 1"):
            lemma1_sweep(3, jobs=jobs)

    def test_dichotomy_small(self):
        report = verify_dichotomy([2, 3, 4], 8)
        assert report.passed()

    def test_lemma1_hand_case(self):
        # delta1=(2), delta2=(1,1): the only common removal results are
        # gamma=(1) (legs 0 and 1) and gamma=() (legs 0 and 1); sign product -1
        report = lemma1_sweep(2)
        assert report.passed()
        assert report.rows == [{"m": 2, "checked": 1, "failures": 0}]

    def test_lemma1_small(self):
        report = lemma1_sweep(6)
        assert report.passed()
        assert all(r["failures"] == 0 for r in report.rows)

    def test_remark1_exploratory(self):
        report = verify_remark1([2], 5)
        assert report.passed()
        # S_2 whole-table case: both characters non-zero on the 2-cycle
        b = BlockId(e=2, core=(), weight=1)
        assert c_mu(b, (2,)).count == 2

    def test_remark2_small(self):
        report = verify_remark2(7)
        assert report.passed()
        by_n = {r["n"]: r for r in report.rows}
        assert by_n[3]["c_(n-1,1)"] == 2
        assert by_n[4]["c_(n-1,1)"] == 3

    def test_chibar_sweep_small(self):
        assert verify_chibar(6).passed()

    def test_row_structure_small(self):
        report = nonvanishing_row_structure_check(8, (2, 3, 4))
        assert report.passed()

    def test_report_serialization(self):
        import json

        report = verify_theorem1([2], 5)
        obj = json.loads(report.to_json(meta=False))
        assert obj["verdict"] == "pass"
        assert "meta" not in obj
        obj = json.loads(report.to_json(meta=True))
        assert "generated" in obj["meta"]
        text = report.to_text()
        assert text.endswith("verdict: pass")
