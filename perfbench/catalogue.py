"""List the pool exact_dp draws its sequences from (about a minute).

    python3 perfbench/catalogue.py > perfbench/exact_pool.txt

The pool is every valid sequence that starts with an attach and has 10-13
attaches and 1-3 freezes, whose forward DP makes TRANSITIONS state-to-state
moves (counted by ``workloads.forward_state_space``).  Equal DP work keeps a
seed's choice of members from moving the latency quantiles.
"""

from __future__ import annotations

import itertools
import sys

import run  # puts the checkout's src/ on sys.path
from frostree.sequences import ChoiceSequence, is_valid
from workloads import forward_state_space

ATTACHES = range(10, 14)
FREEZES = range(1, 4)
TRANSITIONS = (18_000, 22_000)


def main() -> int:
    lo, hi = TRANSITIONS
    print(f"# sequence transitions peak_states: {ATTACHES.start}-{ATTACHES.stop - 1} attaches, "
          f"{FREEZES.start}-{FREEZES.stop - 1} freezes, {lo}-{hi} forward-DP transitions")
    for a, f in itertools.product(ATTACHES, FREEZES):
        for freezes in itertools.combinations(range(1, a + f), f):
            signs = [-1 if j in freezes else 1 for j in range(a + f)]
            seq = ChoiceSequence.from_signs(signs)
            if not is_valid(seq):
                continue
            space = forward_state_space(seq, max_transitions=hi)
            if space is not None and space.transitions >= lo:
                print(seq.text, space.transitions, space.peak)
    return 0


if __name__ == "__main__":
    sys.exit(main())
