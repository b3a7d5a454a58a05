import json
from math import factorial

import pytest

from charblocks.characters import (
    _columns,
    centralizer_order,
    char_degree,
    char_value,
    character_table,
    character_table_csv,
    character_table_json,
    chi_bar_coeffs,
    column,
)
from charblocks.partitions import partitions_of, render_partition

from oracles import mn_ascending


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
        # each column holds exactly the non-zero values of the oracle
        for n in range(0, 7):
            for lam in partitions_of(n):
                expected = {nu: mn_ascending(nu, lam) for nu in partitions_of(n)}
                assert column(lam) == {nu: v for nu, v in expected.items() if v != 0}


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
            identity = column((1,) * m)
            assert identity == {nu: char_degree(nu) for nu in partitions_of(m)}


class TestBatchColumns:
    def test_empty_class_of_s0(self):
        assert list(_columns([()], 0)) == [((), [1])]

    def test_no_classes_yield_nothing(self):
        assert list(_columns([], 5)) == []

    def test_walk_order_is_ascending_parts(self):
        # classes sharing their smallest parts come out together
        walked = [lam for lam, _ in _columns(partitions_of(5), 5)]
        assert walked == sorted(partitions_of(5), key=lambda lam: lam[::-1])


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
        assert chi_bar_coeffs((), 2, 2) == {(2,): 1, (1, 1): -1}
        # a length-1 hook always has leg 0, so both coefficients are +1
        assert chi_bar_coeffs((1,), 1, 2) == {(2,): 1, (1, 1): 1}
        assert chi_bar_coeffs((), 1, 1) == {(1,): 1}

    def test_coeff_size_mismatch(self):
        with pytest.raises(ValueError):
            chi_bar_coeffs((1,), 2, 2)

    def test_value_examples(self):
        # The value of a combination on a class is its coefficients read
        # against the class's column, as the chibar sweep computes it.
        def value(phi, length, lam):
            col = column(lam)
            return sum(c * col.get(beta, 0)
                       for beta, c in chi_bar_coeffs(phi, length, sum(lam)).items())

        assert value((), 2, (1, 1)) == 0
        assert value((), 2, (2,)) == 2
        assert value((2, 1), 4, (2, 2, 2, 1)) == 0
