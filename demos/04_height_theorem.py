"""Freezing cannot shrink trees below the logarithmic height floor.

Monte Carlo check that heights stay above e ln(n) - 5 ln ln(n) across very
different sequence shapes, plus the growth laws that calibrate the bands and
the Bernoulli tail bound used to control the low-active regime.
"""

import math

from frostree import (
    BennettQuery,
    ChoiceSequence,
    alternating,
    attach_run,
    bennett_bound,
    check_theorem_main,
    height_threshold,
    run_mc,
)

N = 10_000
REPLICAS = 300
print(f"=== height floor at n = {N}: threshold {height_threshold(N):.3f} ===")
half = N // 2
members = {
    "no freezing      (+^n)": attach_run(N),
    "alternating      ((+-)^n)": alternating(N),
    "freeze-out split (+^h -^h-1 +^h)": attach_run(half)
    + ChoiceSequence.from_signs([-1] * (half - 1))
    + attach_run(half),
}
for name, seq in members.items():
    frac = check_theorem_main(seq, N, REPLICAS, master_seed=1, parallelism=8)
    print(f"  {name:<34} fraction above threshold: {frac:.3f}")

print()
print("=== growth calibration ===")
alt = run_mc(alternating(N), 300, 5, parallelism=8)
print(f"  alternating mean height / n = {alt.mean / N:.4f}  (concentrates near 1/2)")
for n in (1_000, 10_000):
    rep = run_mc(attach_run(n), 2_000, 6, parallelism=8)
    predicted = math.e * math.log(n) - 1.5 * math.log(math.log(n))
    print(f"  plain tree n={n}: mean {rep.mean:.2f} vs e ln n - 1.5 ln ln n = {predicted:.2f}")

print()
print("=== Bernoulli-sum tail bound ===")
for t in (5.0, 10.0):
    q = BennettQuery(mean_sum=10.0, t=t)
    print(f"  P(S > 10 + {t:g}) <= {bennett_bound(q):.5f}")
print("The same bound, applied to a Binomial(n, 1/r) depth minorant, closes the")
print("low-active-count case of the height floor.")
