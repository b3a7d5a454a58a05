"""lemma1 for every m, by a finite check on a window of abacus positions.

lemma1: let delta1 != delta2 be partitions of one size m, and gamma1 !=
gamma2 partitions that each of them gives by removing one rim hook.  Then
the four leg lengths (delta1 and delta2 to gamma1, delta1 and delta2 to
gamma2) have an odd sum.  `verify lemma1` checks it for m <= --max-size.
The reduction below turns it into a statement about four abacus positions,
and the tests check every case of that statement:

1. The four masks share one bead count, as the masks of `_bead_masks(m)`
   do.  Removing a rim t-hook moves one bead down by t onto a free
   position, and the leg is the number of beads strictly between the two
   ends.  So gamma1 gives delta1 and delta2 by moving one bead each up by
   the same t1 = m - |gamma1|, and gamma2 gives them by moves of t2.
2. delta1 ^ delta2 has exactly four bits a < b < c < d, and gamma1, gamma2
   are its two equal-length pairings.  It is {x, x + t1} ^ {y, y + t1} with
   x != y, since delta1 != delta2, and x + t1 != y, since y is a bead of
   gamma1 and x + t1 is free in it; likewise y + t1 != x.  Of the three
   pairings of the four bits, {ab, cd} and {ac, bd} have equal lengths
   exactly when b - a = d - c, and the third, outer with inner, never does
   (d - a > c - b).  A pairing fixes its result, the lower end of each pair
   with the masks' common beads, so one delta holds {b, c} of the four
   positions, the other {a, d}, and the results hold {a, c} and {a, b}.
3. Each leg is the bead count strictly between two of the four positions,
   and the four masks agree off them.  With g1, g2 and g3 the beads strictly
   inside (a, b), (b, c) and (c, d), the legs to the result holding {a, c}
   are g1 and g3, and those to the one holding {a, b} are g1 + g2 + 1 and
   g2 + g3.
4. Every gap's bead parity, with b - a = d - c on the outer gaps, is
   realised in a window of 7 positions (a, b, c, d = 0, 2, 4, 6).  So the
   leg sums of every m are among those of the bead masks on a window of at
   least 7 positions.

The window here has 12 positions, and every configuration on it is checked
for steps 2 and 3's four positions as well as for an odd leg sum, so a gap
in the reduction shows up as a failure rather than as a silent pass.  The
window's removals are computed here, bead by bead, with no engine code.
A counterexample on the window is a result: report it, and never shrink the
window to hide it.
"""

from collections import defaultdict
from functools import cache
from itertools import combinations

from charblocks.partitions import _bead_masks
from charblocks.sweeps import _lemma1_rows, _removal_map

WIDTH = 12


def removals(mask: int) -> dict:
    """Every single-hook removal from a bead mask, as {result mask: leg}: a
    bead x moves down to a free position y, and the leg is the number of
    beads strictly between them."""
    out = {}
    for x in range(mask.bit_length()):
        if mask >> x & 1:
            for y in range(x):
                if not mask >> y & 1:
                    between = mask >> (y + 1) & ((1 << (x - y - 1)) - 1)
                    out[mask ^ (1 << x) ^ (1 << y)] = between.bit_count()
    return out


@cache
def window_configurations(width: int) -> tuple:
    """Every (delta1, delta2, gamma1, gamma2, legs) on width positions:
    delta1 < delta2 with equal bead count and equal size (the sum of the
    bead positions), gamma1 < gamma2 both common removal results, and legs
    the four leg lengths in lemma1's order."""
    groups = defaultdict(list)
    for mask in range(1 << width):
        size = sum(x for x in range(width) if mask >> x & 1)
        groups[mask.bit_count(), size].append(mask)
    configs = []
    for masks in groups.values():
        maps = [removals(d) for d in masks]
        for (d1, map1), (d2, map2) in combinations(zip(masks, maps), 2):
            for g1, g2 in combinations(sorted(map1.keys() & map2.keys()), 2):
                configs.append((d1, d2, g1, g2, (map1[g1], map2[g1], map1[g2], map2[g2])))
    return tuple(configs)


def on_four_positions(d1: int, d2: int) -> bool:
    """Step 2: d1 ^ d2 has four bits a < b < c < d with b - a = d - c."""
    diff = d1 ^ d2
    if diff.bit_count() != 4:
        return False
    a, b, c, d = [x for x in range(diff.bit_length()) if diff >> x & 1]
    return b - a == d - c


def test_every_window_configuration_has_an_odd_leg_sum():
    configs = window_configurations(WIDTH)
    assert len(configs) == 24_320
    assert [c for c in configs if not on_four_positions(c[0], c[1])] == []
    assert [c for c in configs if sum(c[4]) % 2 == 0] == []


def test_a_mutated_leg_sum_fails():
    # Add 1 to the leg sum when delta1 ^ delta2 is divisible by 3.
    configs = window_configurations(WIDTH)
    failed = [c for c in configs if (sum(c[4]) + ((c[0] ^ c[1]) % 3 == 0)) % 2 == 0]
    assert 0 < len(failed) < len(configs)


def test_sweep_configurations_lie_on_the_window():
    # Every configuration _lemma1_rows(m) checks, for m <= 14, counted as the
    # sweep counts them; each one whose four positions span at most WIDTH,
    # shifted down to its lowest position and cut to the window, is a window
    # configuration.
    window = {(frozenset(c[:2]), frozenset(c[2:4])) for c in window_configurations(WIDTH)}
    cut = (1 << WIDTH) - 1
    compared = 0
    for m in range(2, 15):
        masks = _bead_masks(m)
        maps = [_removal_map(d) for d in masks]
        checked = 0
        for (d1, map1), (d2, map2) in combinations(zip(masks, maps), 2):
            for g1, g2 in combinations(map1.keys() & map2.keys(), 2):
                checked += 1
                diff = d1 ^ d2
                low = (diff & -diff).bit_length() - 1
                if diff.bit_length() - low <= WIDTH:
                    compared += 1
                    d1w, d2w, g1w, g2w = (q >> low & cut for q in (d1, d2, g1, g2))
                    assert (frozenset((d1w, d2w)), frozenset((g1w, g2w))) in window
        assert checked == _lemma1_rows(m)[0][0]["checked"], m
    assert compared > 0
