import tracemalloc
from itertools import groupby

import pytest

from charblocks.partitions import (
    _bead_masks,
    _beads,
    _core_mask,
    _moves,
    _parts,
    check_partition,
    conjugate,
    diagonal_hooks,
    dominance_leq,
    e_core,
    hook_lengths,
    is_e_class_regular,
    is_e_core,
    parse_partition,
    partitions_of,
    remove_hooks_of_length,
    render_partition,
)

from oracles import brute_force_additions, greedy_core, rim_walk_remove
from references import addition_signs


def weight(p, e):
    """The e-weight of p, (|p| - |core|) / e, as the core command and
    BlockId.n compute it; the division is exact."""
    diff = sum(p) - sum(e_core(p, e))
    assert diff % e == 0
    return diff // e


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
            ("1^2,3,2^2", (3, 2, 2, 1, 1)),
        ],
    )
    def test_parse(self, text, expected):
        assert parse_partition(text) == expected

    def test_repeated_part_expanded_once(self):
        # The returned tuple of a million pointers is 8 MB.  A list of the
        # parts and its sorted copy held beside it would triple that.
        tracemalloc.start()
        try:
            p = parse_partition("1^1000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(p) == 10**6 and set(p) == {1}
        assert peak < 12 * 10**6

    @pytest.mark.parametrize("text", ["", "0", "3,0", "-1", "2^0", "a", "3,,1", "2^",
                                      "0^" + "9" * 40])
    def test_parse_errors(self, text):
        with pytest.raises(ValueError):
            parse_partition(text)

    @pytest.mark.parametrize("text", ["10000001", "1^" + "9" * 40, "3^3333334", "9999999,2"])
    def test_size_past_limit(self, text):
        # Checked item by item, before a repeated part is expanded.
        with pytest.raises(ValueError, match="^partition size must be at most 10000000$"):
            parse_partition(text)

    def test_size_at_limit(self):
        assert parse_partition("1^3,9999997") == (9999997, 1, 1, 1)

    def test_check_partition_copies_nothing(self):
        # The neighbours are compared without a sliced copy of the parts (8 MB).
        p = (1,) * 10**6
        tracemalloc.start()
        try:
            assert check_partition(p) == p
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_only_decimal_digits_are_integers(self):
        # '²' and '①' pass str.isdigit but int() rejects them; the
        # Arabic-Indic '٣' is a decimal digit, which int() reads as 3.
        for text in ("²", "3^①"):
            with pytest.raises(ValueError, match="bad integer"):
                parse_partition(text)
        assert parse_partition("٣,1") == (3, 1)

    def test_render(self):
        assert render_partition(()) == "-"
        assert render_partition((2, 2, 2, 1)) == "2^3,1"
        assert render_partition((2, 2)) == "2,2"
        assert render_partition((10, 2, 1, 1, 1)) == "10,2,1^3"

    def test_render_against_run_lengths(self):
        def runs(p):
            out = []
            for a, run in groupby(p):
                m = len(list(run))
                out += [f"{a}^{m}"] if m >= 3 else [str(a)] * m
            return ",".join(out) or "-"

        for n in range(13):
            for p in partitions_of(n):
                assert render_partition(p) == runs(p)

    def test_render_long_runs(self):
        # Two runs of a million parts each: two bisections, not a walk over the parts.
        assert render_partition((5,) * 10**6 + (1,) * 10**6) == "5^1000000,1^1000000"

    def test_round_trip(self):
        for n in range(9):
            for p in partitions_of(n):
                assert parse_partition(render_partition(p)) == p


class TestConjugateHooks:
    def test_conjugate_examples(self):
        assert conjugate((3, 1)) == (2, 1, 1)
        assert conjugate(()) == ()
        assert conjugate((2, 2)) == (2, 2)

    def test_conjugate_counts_longer_parts(self):
        for n in range(13):
            for p in partitions_of(n):
                conj = conjugate(p)
                assert len(conj) == max(p, default=0)
                assert all(c == sum(1 for x in p if x > j) for j, c in enumerate(conj))

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

    def test_beads_hold_no_copy_of_the_parts(self):
        # A million equal parts are one run: the rim string is 1 MB, where a
        # shifted copy of the tuple and one piece per part held 16 MB.
        p = (1,) * 10**6
        tracemalloc.start()
        try:
            mask = _beads(p, len(p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mask == ((1 << 10**6) - 1) << 1
        assert peak < 4 * 10**6

    def test_bead_masks_follow_partitions_of(self):
        # Built from the masks of smaller sizes, in any order of asking.
        for n in (12, 0, 5, 12, *range(21)):
            masks = _bead_masks(n)
            assert list(masks) == [_beads(p, n) for p in partitions_of(n)]
            assert list(masks.values()) == list(range(len(partitions_of(n))))
        with pytest.raises(ValueError, match="n must be non-negative"):
            _bead_masks(-1)

    def test_partitions_of_refuses_a_negative_size(self):
        with pytest.raises(ValueError, match="n must be non-negative"):
            partitions_of(-1)


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


def strictly_monotone(masks, descending):
    return all(a > b if descending else a < b for a, b in zip(masks, masks[1:]))


class TestMoveOrder:
    """_moves yields removals in strictly descending mask order and additions
    in strictly ascending; remove_hooks_of_length returns them unsorted."""

    def cases(self):
        for n in range(15):
            for p in partitions_of(n):
                for beads in (len(p), len(p) + 3):
                    mask = _beads(p, beads)
                    for t in range(1, n + 3):
                        for add in (False, True):
                            yield [q for q, _ in _moves(mask, t, add)], not add

    def test_order(self):
        for masks, descending in self.cases():
            assert strictly_monotone(masks, descending)

    def test_reversed_order_is_rejected(self):
        # Negative control: the predicate sees a list out of order.
        longer = [(m, d) for m, d in self.cases() if len(m) >= 2]
        assert longer
        assert not any(strictly_monotone(m[::-1], d) for m, d in longer)


class TestHookAddition:
    """Hook additions, as row phi of characters._table(|phi|, t) holds them,
    decoded to {partition: (-1)^leg}."""

    def test_examples(self):
        assert list(addition_signs((), 2).items()) == [((2,), 1), ((1, 1), -1)]
        assert list(addition_signs((), 1).items()) == [((1,), 1)]
        assert list(addition_signs((2, 1), 4).items()) == [
            ((6, 1), 1),
            ((4, 3), -1),
            ((2, 2, 2, 1), 1),
            ((2, 1, 1, 1, 1, 1), -1),
        ]

    def test_against_brute_force(self):
        for n in range(9):
            for p in partitions_of(n):
                for length in range(1, 5):
                    assert list(addition_signs(p, length).items()) == [
                        (q, (-1) ** leg) for q, leg in brute_force_additions(p, length)
                    ]

    def test_inverse_of_removal(self):
        for n in range(9):
            for p in partitions_of(n):
                for length in range(1, 5):
                    for q, sign in addition_signs(p, length).items():
                        removals = remove_hooks_of_length(q, length)
                        assert [(-1) ** leg for r, leg in removals if r == p] == [sign]


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
        # No int longer than the bead mask is built, whatever e.
        assert e_core((3, 1), 10**9) == (3, 1)
        assert weight((3, 1), 10**9) == 0
        assert e_core((3, 1), 10**30) == (3, 1)

    def test_long_runner(self):
        # One bead a million positions up: the runner is read as one digit slice.
        assert e_core((10**6 + 1,), 2) == (1,)
        assert weight((10**6,), 2) == 500000

    def test_many_runners_and_many_parts(self):
        # Linear in the mask's length: a million positions on 300,000
        # runners, and a mask of 200,000 parts.
        assert e_core((10**6,), 300000) == (100000,)
        assert weight((10**6,), 300000) == 3
        assert e_core((1,) * 200000, 2) == ()

    def test_core_mask_matches_runner_masks(self):
        def runner_core(mask, e):
            # Runner r as a mask: count its beads, keep that many from the bottom.
            top = mask.bit_length()
            runner = sum(1 << x for x in range(0, top, e))
            core = 0
            for r in range(min(e, top)):
                k = (mask & (runner << r)).bit_count()
                core |= (runner << r) & ((1 << min(r + k * e, top)) - 1)
            return core

        for n in range(13):
            for mask in _bead_masks(n):
                for e in range(1, 15):
                    assert _core_mask(mask, e) == runner_core(mask, e)

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
                assert weight(p, 1) == n

    def test_weight_examples(self):
        assert weight((3, 1), 2) == 2
        assert weight((6, 1), 4) == 1
        assert weight((6, 4, 2), 3) == 0

    def test_core_weight_consistency(self):
        # e-hooks are removed to reach the core, so they account for |p| - |core|.
        for n in range(13):
            for p in partitions_of(n):
                for e in range(2, 7):
                    assert n == sum(e_core(p, e)) + e * weight(p, e)

    def test_is_e_core(self):
        assert is_e_core((2, 1), 4)
        assert not is_e_core((3,), 3)
        assert is_e_core((6, 4, 2), 3)
        with pytest.raises(ValueError):
            is_e_core((2, 1), 1)

    def test_is_e_core_at_scale(self):
        # A staircase has odd hooks only; a column of a million boxes has a 2-hook.
        assert is_e_core(tuple(range(2000, 0, -1)), 2)
        assert not is_e_core((1,) * 10**6, 2)

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


def pentagonal_counts(limit):
    """[p(0), ..., p(limit)] by Euler's pentagonal-number recurrence."""
    p = [1]
    for n in range(1, limit + 1):
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
    return p


def entries_are_partitions_of(ps, n):
    return all(check_partition(p) == p and sum(p) == n for p in ps)


def in_reverse_lex_order(ps, n):
    return ps[0] == (n,) and ps[-1] == (1,) * n and all(a > b for a, b in zip(ps, ps[1:]))


class TestEnumeration:
    # The count, the entries and the order together leave one list: p(n)
    # distinct partitions of n in strictly decreasing order.  These pins, not
    # the bead masks that partitions_of decodes, vouch for it.
    def test_small_values(self):
        assert partitions_of(0) == ((),)
        assert partitions_of(4) == ((4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1))
        assert len(partitions_of(10)) == 42

    def test_counts_match_recurrence(self):
        p = pentagonal_counts(30)
        assert p[30] == 5604
        for n in range(31):
            assert len(partitions_of(n)) == p[n]

    def test_every_entry_is_a_partition_of_n(self):
        for n in range(31):
            assert entries_are_partitions_of(partitions_of(n), n)

    def test_reverse_lex_order(self):
        for n in range(1, 31):
            assert in_reverse_lex_order(partitions_of(n), n)

    def test_pins_catch_a_changed_list(self):
        # Negative control: a swap of neighbours, a dropped entry or a
        # duplicated one, anywhere in the list, fails a pin.
        n, ps = 12, list(partitions_of(12))
        count = pentagonal_counts(n)[n]

        def pinned(qs):
            return len(qs) == count and entries_are_partitions_of(qs, n) \
                and in_reverse_lex_order(qs, n)

        assert pinned(ps)
        for i in range(len(ps)):
            assert not pinned(ps[:i] + ps[i + 1:])
            assert not pinned(ps[:i + 1] + ps[i:])
            if i + 1 < len(ps):
                assert not pinned(ps[:i] + [ps[i + 1], ps[i]] + ps[i + 2:])


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

    def test_against_padded_prefix_sums(self):
        def prefix_sums(p, length):
            padded = list(p) + [0] * (length - len(p))
            return [sum(padded[:i + 1]) for i in range(length)]

        for n in range(10):
            sums = {p: prefix_sums(p, n) for p in partitions_of(n)}
            for a in sums:
                for b in sums:
                    expected = all(x <= y for x, y in zip(sums[a], sums[b]))
                    assert dominance_leq(a, b) == expected
                    # Conjugation reverses the order (Macdonald I.1.11).
                    assert dominance_leq(conjugate(b), conjugate(a)) == expected
