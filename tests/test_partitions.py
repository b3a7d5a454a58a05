import pytest

from charblocks.partitions import (
    _beads,
    _parts,
    add_hooks_of_length,
    conjugate,
    diagonal_hooks,
    dominance_leq,
    e_core,
    e_weight,
    hook_lengths,
    is_e_class_regular,
    is_e_core,
    parse_partition,
    partitions_of,
    remove_hooks_of_length,
    render_partition,
)

from oracles import brute_force_additions, greedy_core, rim_walk_remove


class TestParseRender:
    @pytest.mark.parametrize(
        "text,expected",
        [
            ("10,2,1,1,1", (10, 2, 1, 1, 1)),
            ("2^3,1", (2, 2, 2, 1)),
            ("-", ()),
            ("1,2,3", (3, 2, 1)),
            (" 3 , 1 ", (3, 1)),
            ("2^2,1^3", (2, 2, 1, 1, 1)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_partition(text) == expected

    @pytest.mark.parametrize("text", ["", "0", "3,0", "-1", "2^0", "a", "3,,1", "2^"])
    def test_parse_errors(self, text):
        with pytest.raises(ValueError):
            parse_partition(text)

    def test_render(self):
        assert render_partition(()) == "-"
        assert render_partition((2, 2, 2, 1)) == "2^3,1"
        assert render_partition((2, 2)) == "2,2"
        assert render_partition((10, 2, 1, 1, 1)) == "10,2,1^3"

    def test_round_trip(self):
        for n in range(9):
            for p in partitions_of(n):
                assert parse_partition(render_partition(p)) == p


class TestConjugateHooks:
    def test_conjugate_examples(self):
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate(()) == ()
        assert conjugate((2, 2)) == (2, 2)

    def test_conjugate_involution(self):
        for n in range(9):
            for p in partitions_of(n):
                assert conjugate(conjugate(p)) == p

    def test_hook_length_examples(self):
        assert hook_lengths((4, 2, 1, 1))[(1, 1)] == 7
        assert hook_lengths((1,)) == {(1, 1): 1}
        assert (1, 3) not in hook_lengths((2, 1))

    def test_hook_multiset_6_4_2(self):
        hooks = sorted(hook_lengths((6, 4, 2)).values())
        assert hooks == sorted([8, 7, 5, 4, 2, 1, 5, 4, 2, 1, 2, 1])
        assert all(h % 3 != 0 for h in hooks)

    def test_hooks_by_arm_leg_count(self):
        # brute force: arm = cells right of (i,j), leg = cells below
        for n in range(1, 9):
            for p in partitions_of(n):
                brute = {}
                for i in range(1, len(p) + 1):
                    for j in range(1, p[i - 1] + 1):
                        arm = p[i - 1] - j
                        leg = sum(1 for a in range(i, len(p)) if p[a] >= j)
                        brute[(i, j)] = arm + leg + 1
                assert hook_lengths(p) == brute

    def test_hook_conjugation_symmetry(self):
        for n in range(1, 9):
            for p in partitions_of(n):
                transposed = hook_lengths(conjugate(p))
                for (i, j), h in hook_lengths(p).items():
                    assert transposed[(j, i)] == h


class TestDiagonalHooks:
    def test_examples(self):
        assert diagonal_hooks((2, 1)) == (3,)
        assert diagonal_hooks(()) == ()
        assert diagonal_hooks((2, 2)) == (3, 1)

    def test_frobenius_property(self):
        for n in range(11):
            for p in partitions_of(n):
                d = diagonal_hooks(p)
                assert sum(d) == n
                assert all(a > b for a, b in zip(d, d[1:]))


class TestBetaSets:
    def test_examples(self):
        assert _beads((3, 1), 2) == 0b10010
        assert _beads((), 4) == 0b1111
        assert _beads((2, 1), 3) == 0b10101
        assert _parts(0b10010) == (3, 1)
        assert _parts(0b111) == ()
        assert _parts(0b100000101) == (6, 1)

    def test_round_trip(self):
        for n in range(9):
            for p in partitions_of(n):
                for b in range(len(p), len(p) + 5):
                    mask = _beads(p, b)
                    assert mask.bit_count() == b
                    assert _parts(mask) == p


class TestHookRemoval:
    def test_examples(self):
        assert remove_hooks_of_length((2, 2), 3) == [((1,), 1)]
        assert remove_hooks_of_length((5,), 5) == [((), 0)]
        assert remove_hooks_of_length((3, 1), 2) == [((1, 1), 0)]

    def test_against_rim_walk(self):
        # The rim hook of every cell is among the removals of its length.
        for n in range(1, 10):
            for p in partitions_of(n):
                for (i, j), h in hook_lengths(p).items():
                    assert rim_walk_remove(p, i, j) in remove_hooks_of_length(p, h)

    def test_size_drop(self):
        for n in range(1, 10):
            for p in partitions_of(n):
                for h in set(hook_lengths(p).values()):
                    removals = remove_hooks_of_length(p, h)
                    assert removals
                    assert all(sum(q) == n - h for q, _ in removals)

    def test_length_below_one_rejected(self):
        with pytest.raises(ValueError, match="hook length must be >= 1"):
            remove_hooks_of_length((2, 1), 0)


class TestHookAddition:
    def test_examples(self):
        assert add_hooks_of_length((), 2) == [((2,), 0), ((1, 1), 1)]
        assert add_hooks_of_length((), 1) == [((1,), 0)]
        assert add_hooks_of_length((2, 1), 4) == [
            ((6, 1), 0),
            ((4, 3), 1),
            ((2, 2, 2, 1), 2),
            ((2, 1, 1, 1, 1, 1), 3),
        ]

    def test_against_brute_force(self):
        for n in range(9):
            for p in partitions_of(n):
                for length in range(1, 5):
                    assert add_hooks_of_length(p, length) == brute_force_additions(
                        p, length
                    )

    def test_inverse_of_removal(self):
        for n in range(9):
            for p in partitions_of(n):
                for length in range(1, 5):
                    for q, leg in add_hooks_of_length(p, length):
                        assert (p, leg) in remove_hooks_of_length(q, length)

    def test_length_below_one_rejected(self):
        with pytest.raises(ValueError, match="hook length must be >= 1"):
            add_hooks_of_length((2, 1), 0)


class TestCores:
    def test_examples(self):
        assert e_core((3, 1), 2) == ()
        assert e_core((6, 4, 2), 3) == (6, 4, 2)
        assert e_core((10, 2, 1, 1, 1), 3) == (4, 2)

    def test_against_greedy_stripping(self):
        for n in range(13):
            for p in partitions_of(n):
                for e in range(2, 16):
                    assert e_core(p, e) == greedy_core(p, e)

    def test_cost_does_not_grow_with_e(self):
        assert e_core((3, 1), 10**9) == (3, 1)
        assert e_weight((3, 1), 10**9) == 0

    def test_core_is_fixed_point(self):
        for n in range(9):
            for p in partitions_of(n):
                for e in range(2, 6):
                    core = e_core(p, e)
                    assert e_core(core, e) == core

    def test_e1_core_is_empty(self):
        for n in range(8):
            for p in partitions_of(n):
                assert e_core(p, 1) == ()
                assert e_weight(p, 1) == n

    def test_weight_examples(self):
        assert e_weight((3, 1), 2) == 2
        assert e_weight((6, 1), 4) == 1
        assert e_weight((6, 4, 2), 3) == 0

    def test_weight_rejects_a_core_of_the_wrong_size(self, monkeypatch):
        from charblocks import partitions

        monkeypatch.setattr(partitions, "e_core", lambda p, e: (1,))
        with pytest.raises(RuntimeError, match="not divisible by e = 2"):
            e_weight((3, 1), 2)

    def test_core_weight_consistency(self):
        for n in range(13):
            for p in partitions_of(n):
                for e in range(2, 7):
                    assert n == sum(e_core(p, e)) + e * e_weight(p, e)

    def test_is_e_core(self):
        assert is_e_core((2, 1), 4)
        assert not is_e_core((3,), 3)
        assert is_e_core((6, 4, 2), 3)
        with pytest.raises(ValueError):
            is_e_core((2, 1), 1)

    def test_is_e_core_matches_hook_criterion(self):
        # James-Kerber 2.7: p is an e-core iff no hook length of p is divisible by e.
        for n in range(11):
            for p in partitions_of(n):
                for e in range(2, 6):
                    assert is_e_core(p, e) == all(h % e for h in hook_lengths(p).values())

    def test_class_regular(self):
        assert is_e_class_regular((10, 2, 1, 1, 1), 3)
        assert not is_e_class_regular((3, 2), 3)
        assert is_e_class_regular((), 5)
        with pytest.raises(ValueError):
            is_e_class_regular((2,), 1)


class TestEnumeration:
    def test_small_values(self):
        assert partitions_of(0) == ((),)
        assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
        assert len(partitions_of(10)) == 42

    def test_counts_match_recurrence(self):
        # p(n) via Euler's pentagonal-number recurrence
        p = [1]
        for n in range(1, 16):
            total = 0
            k = 1
            while True:
                g1 = k * (3 * k - 1) // 2
                g2 = k * (3 * k + 1) // 2
                if g1 > n and g2 > n:
                    break
                sign = -1 if k % 2 == 0 else 1
                if g1 <= n:
                    total += sign * p[n - g1]
                if g2 <= n:
                    total += sign * p[n - g2]
                k += 1
            p.append(total)
        for n in range(16):
            assert len(partitions_of(n)) == p[n]

    def test_reverse_lex_order(self):
        for n in range(1, 10):
            ps = partitions_of(n)
            assert ps[0] == (n,)
            assert ps[-1] == (1,) * n
            assert all(a > b for a, b in zip(ps, ps[1:]))


class TestDominance:
    def test_examples(self):
        assert dominance_leq((3, 1), (4,))
        assert dominance_leq((2, 2), (3, 1))
        assert not dominance_leq((3, 1), (2, 2))

    def test_reflexive(self):
        for p in partitions_of(6):
            assert dominance_leq(p, p)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            dominance_leq((2,), (1, 1, 1))
