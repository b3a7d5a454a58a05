import json
import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

from charblocks.characters import (
    _columns,
    _table,
    centralizer_order,
    char_degree,
    char_value,
    character_table,
    character_table_csv,
    character_table_json,
)
from charblocks.partitions import (
    _bead_masks,
    _moves,
    partitions_of,
    remove_hooks_of_length,
    render_partition,
)

from oracles import mn_ascending
from references import addition_signs, reference_column, row_signs

SRC = Path(__file__).resolve().parent.parent / "src"


class TestCharValue:
    def test_trivial_character_is_one(self):
        for n in range(1, 9):
            for lam in partitions_of(n):
                assert char_value((n,), lam) == 1

    def test_sign_character(self):
        for n in range(1, 9):
            for lam in partitions_of(n):
                assert char_value((1,) * n, lam) == (-1) ** (n - len(lam))

    def test_s4_value(self):
        assert char_value((2, 2), (3, 1)) == -1

    def test_empty_base_case(self):
        assert char_value((), ()) == 1

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            char_value((2,), (1, 1, 1))

    def test_conjugation_symmetry(self):
        from charblocks.partitions import conjugate

        for n in range(1, 11):
            for nu in partitions_of(n):
                for lam in partitions_of(n):
                    assert char_value(conjugate(nu), lam) == (-1) ** (
                        n - len(lam)
                    ) * char_value(nu, lam)

    def test_order_independence(self):
        # descending (library) vs ascending uncached recursion
        for n in range(1, 8):
            for nu in partitions_of(n):
                for lam in partitions_of(n):
                    assert char_value(nu, lam) == mn_ascending(nu, lam)

    def test_column_matches_ascending_recursion(self):
        # a walk over one class gives each value of the oracle
        for n in range(0, 7):
            for lam in partitions_of(n):
                (_, col), = _columns([lam])
                assert col == [mn_ascending(nu, lam) for nu in partitions_of(n)]


class TestDegreesAndOrthogonality:
    def test_degree_examples(self):
        assert char_degree((7,)) == 1
        assert char_degree((2, 1)) == 2
        assert char_degree((3, 1)) == 3

    def test_degree_matches_identity_column(self):
        for n in range(1, 11):
            for nu in partitions_of(n):
                assert char_value(nu, (1,) * n) == char_degree(nu)

    def test_centralizer_examples(self):
        assert centralizer_order((1, 1, 1, 1)) == 24
        assert centralizer_order((5,)) == 5
        assert centralizer_order((2, 1, 1)) == 4

    def test_centralizer_sums_to_group_order(self):
        for n in range(1, 9):
            assert sum(
                factorial(n) // centralizer_order(lam) for lam in partitions_of(n)
            ) == factorial(n)

    def test_column_orthogonality(self):
        for n in range(1, 7):
            ps = partitions_of(n)
            for lam in ps:
                for rho in ps:
                    s = sum(char_value(nu, lam) * char_value(nu, rho) for nu in ps)
                    assert s == (centralizer_order(lam) if lam == rho else 0)

    def test_table_12_orthogonality_and_identity_columns(self):
        n = 12
        ps = partitions_of(n)
        table = character_table(n)
        z = [centralizer_order(lam) for lam in ps]
        cols = list(zip(*table))
        for i, a in enumerate(cols):
            for j, b in enumerate(cols):
                s = sum(x * y for x, y in zip(a, b))
                assert s == (z[i] if i == j else 0)
        order = factorial(n)
        weights = [order // zl for zl in z]
        for i, a in enumerate(table):
            for j, b in enumerate(table):
                s = sum(w * x * y for w, x, y in zip(weights, a, b))
                assert s == (order if i == j else 0)
        for m in range(1, 15):
            (_, identity), = _columns([(1,) * m])
            assert identity == [char_degree(nu) for nu in partitions_of(m)]


class TestBatchColumns:
    def test_empty_class_of_s0(self):
        assert list(_columns([()])) == [((), [1])]

    def test_no_classes_yield_nothing(self):
        assert list(_columns([])) == []

    def test_walk_order_is_ascending_parts(self):
        # classes sharing their smallest parts come out together
        walked = [lam for lam, _ in _columns(partitions_of(5))]
        assert walked == sorted(partitions_of(5), key=lambda lam: lam[::-1])

    def test_move_tables_are_kept_across_n(self):
        # The tables live for the process and do not depend on the walk's n:
        # walks at a larger, a smaller and the same n read the same ones.
        for n in (12, 7, 0, 12, 9):
            ps = partitions_of(n)
            for lam, col in _columns(ps):
                single = reference_column(lam)
                assert col == [single.get(nu, 0) for nu in ps]
            kept = _table.cache_info().currsize, _bead_masks.cache_info().currsize
            for _ in _columns(ps):
                pass
            assert (_table.cache_info().currsize, _bead_masks.cache_info().currsize) == kept
        assert partitions_of(12) is partitions_of(12)

    def test_partitions_of_keeps_only_the_sizes_it_needs(self):
        # In a fresh interpreter, partitions_of(12) keeps one list and the
        # masks of sizes 0..12, each of them a hit when asked again.
        code = (
            "from charblocks.partitions import _bead_masks, _partitions, partitions_of\n"
            "partitions_of(12)\n"
            "kept = _partitions.cache_info().currsize, _bead_masks.cache_info()\n"
            "for m in range(13):\n"
            "    _bead_masks(m)\n"
            "after = _bead_masks.cache_info()\n"
            "print(kept[0], kept[1].currsize, after.hits - kept[1].hits, after.misses - kept[1].misses)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(SRC), "PYTHONDONTWRITEBYTECODE": "1"}
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["1", "13", "13", "0"]


class TestCharacterTable:
    def test_n1(self):
        assert character_table(1) == [[1]]

    def test_matches_ascending_recursion(self):
        # every cell of every table up to n = 8 against the uncached oracle
        for n in range(0, 9):
            ps = partitions_of(n)
            assert character_table(n) == [[mn_ascending(nu, lam) for lam in ps] for nu in ps]

    def test_s4_table(self):
        ps = partitions_of(4)
        table = character_table(4)
        row = table[ps.index((2, 2))]
        assert row[ps.index((3, 1))] == -1
        degrees = [table[i][ps.index((1, 1, 1, 1))] for i in range(len(ps))]
        assert degrees == [1, 3, 2, 3, 1]

    def test_csv_shape(self, capsys):
        character_table_csv(4)
        text = capsys.readouterr().out
        lines = text.strip().split("\n")
        assert len(lines) == 6
        assert lines[0].startswith('"","4","3,1"')

    def test_json_round_trip(self, capsys):
        character_table_json(4)
        obj = json.loads(capsys.readouterr().out)
        assert obj["n"] == 4
        assert obj["classes"] == [render_partition(p) for p in partitions_of(4)]
        assert len(obj["values"]) == 25
        assert all(isinstance(v, str) for v in obj["values"])
        ps = partitions_of(4)
        i, j = ps.index((2, 2)), ps.index((3, 1))
        assert obj["values"][i * 5 + j] == "-1"


class TestChiBar:
    def test_coeff_examples(self):
        assert addition_signs((), 2) == {(2,): 1, (1, 1): -1}
        # a length-1 hook always has leg 0, so both coefficients are +1
        assert addition_signs((1,), 1) == {(2,): 1, (1, 1): 1}
        assert addition_signs((), 1) == {(1,): 1}

    @staticmethod
    def removal_rows(n, t):
        """{phi: [(nu, sign), ...]} over the partitions phi of n - t, largest
        nu first: each partition nu of n that a t-hook removal takes to phi,
        signed (-1)^leg.  remove_hooks_of_length moves beads down, _table up."""
        rows = {phi: [] for phi in partitions_of(n - t)}
        for nu in partitions_of(n):
            for phi, leg in remove_hooks_of_length(nu, t):
                rows[phi].append((nu, (-1) ** leg))
        return {phi: sorted(pairs, reverse=True) for phi, pairs in rows.items()}

    def test_move_table_rows_are_the_coefficients(self):
        # verify chibar reads its signs from row phi of _table(n - t, t).
        for n in range(13):
            for t in range(1, n + 1):
                table = _table(n - t, t)
                expected = self.removal_rows(n, t)
                assert len(table) == len(expected)
                for phi, row in zip(partitions_of(n - t), table):
                    assert list(row_signs(row, n).items()) == expected[phi]

    def test_move_tables_match_moves(self):
        # _table's bulk loop against _moves, the single-object primitive, row
        # by row: source mask i with t more beads below it, targets in move order.
        for size in range(12):
            for t in range(1, 13 - size):
                to = _bead_masks(size + t)
                table = _table(size, t)
                assert len(table) == len(_bead_masks(size))
                for m, (even, odd) in zip(_bead_masks(size), table):
                    moves = _moves(m << t | (1 << t) - 1, t, True)
                    assert even == tuple(to[q] for q, leg in moves if leg % 2 == 0)
                    assert odd == tuple(to[q] for q, leg in moves if leg % 2 == 1)

    def test_one_flipped_sign_is_caught(self):
        # Negative control: moving any one target to the other leg parity
        # makes the decoded row differ from the removals' signs.
        n, flips = 7, 0
        for t in range(1, n + 1):
            expected = self.removal_rows(n, t)
            for phi, (even, odd) in zip(partitions_of(n - t), _table(n - t, t)):
                assert list(row_signs((even, odd), n).items()) == expected[phi]
                for k in range(len(even)):
                    flipped = (even[:k] + even[k + 1:], odd + (even[k],))
                    assert list(row_signs(flipped, n).items()) != expected[phi]
                for k in range(len(odd)):
                    flipped = (even + (odd[k],), odd[:k] + odd[k + 1:])
                    assert list(row_signs(flipped, n).items()) != expected[phi]
                flips += len(even) + len(odd)
        assert flips > 0

    def test_value_examples(self):
        # The value of a combination on a class is its coefficients read
        # against the class's column, as the chibar sweep computes it.
        def value(phi, length, lam):
            col = reference_column(lam)
            return sum(c * col.get(beta, 0) for beta, c in addition_signs(phi, length).items())

        assert value((), 2, (1, 1)) == 0
        assert value((), 2, (2,)) == 2
        assert value((2, 1), 4, (2, 2, 2, 1)) == 0
