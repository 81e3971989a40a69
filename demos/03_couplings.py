"""Coupled constructions: what inserting or removing steps does to heights.

Three couplings, each run both by Monte Carlo and by exhaustive enumeration:

* dropping the first attach+freeze pair never increases the height, pathwise;
* inserting freeze+attach or attach+freeze after a freeze-out prefix changes
  heights in a controlled way (three freeze cases, each probability 1/3);
* removing the second attach of an attach,attach,freeze start relates the
  tree to a plain recursive tree with an exact mean offset of 1/2.
"""

from fractions import Fraction

from frostree import (
    FreezeCase,
    MonteCarloDriver,
    RngStream,
    couple_prop_ii,
    couple_prop_iii,
    couple_reduce,
    law_of,
    parse_sequence,
    reduce_once,
    reduce_to_prefix,
)

print("=== reduction: drop the last leading '+' and the first '-' ===")
seq = parse_sequence("+^3-^2+^2-")
red = reduce_once(seq)
print(f"  {red.original.text}  ->  {red.reduced.text}   (positions {red.removed_at}, {red.removed_at + 1} removed)")
print(f"  iterated to a 2-run prefix: {reduce_to_prefix(seq, 2).text}")

print()
print("=== pathwise height domination over 50000 coupled runs ===")
driver = MonteCarloDriver(RngStream(2024, 0))
worst = 0
for _ in range(50_000):
    s = couple_reduce(seq, driver)
    assert s.height_xhat <= s.height_x
    worst = max(worst, s.height_x - s.height_xhat)
print(f"  zero violations; largest observed gap {worst}")

print()
print("=== exhaustive joint law of (height, reduced height) for ++-+-- ===")
small = parse_sequence("++-+--")


def joint_heights(driver):
    s = couple_reduce(small, driver)
    return s.height_x, s.height_xhat


for (hx, hxh), p in sorted(law_of(joint_heights).items()):
    print(f"  P(height={hx}, reduced={hxh}) = {p}")

print()
print("=== attach+freeze insertion: the three freeze cases ===")
driver = MonteCarloDriver(RngStream(99, 0))
counts = {case: 0 for case in FreezeCase}
gaps = {case: set() for case in FreezeCase}
n_rep = 30_000
for _ in range(n_rep):
    s = couple_prop_ii(4, 8, driver)
    counts[s.case_tag] += 1
    gaps[s.case_tag].add(s.height_x - s.height_xhat)
for case in FreezeCase:
    print(f"  {case.value:>14}: frequency {counts[case] / n_rep:.4f}, "
          f"height gaps seen {sorted(gaps[case])}")

print()
print("=== attach removal: exact mean identity at small n ===")
for n in (2, 3, 4):
    law = law_of(lambda d: couple_prop_iii(n, d))
    mean_xhat = sum(hxh * w for (_, hxh, _), w in law.items())
    mean_rrt = sum(hrrt * w for (_, _, hrrt), w in law.items())
    print(f"  n={n}: E[reduced height] = {mean_xhat} = E[plain height] + 1/2 "
          f"({mean_rrt} + 1/2): {mean_xhat == mean_rrt + Fraction(1, 2)}")
