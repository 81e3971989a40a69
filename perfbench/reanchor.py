"""Re-measure the cases of ROADMAP.md's re-anchor baseline and flag every one
that moved by more than the +-15 % that baseline states.

    python3 perfbench/reanchor.py

CLI cases run once, as the re-anchor measured them; per-layer cases report the
median of a few repetitions.  The output is a table for BASELINE.md.
"""

from __future__ import annotations

import os
import statistics
import sys
from time import perf_counter

import run  # puts the checkout's src/ on sys.path
from frostree.cli import main as cli_main
from frostree.exact import exact_height_distribution_forward
from frostree.forward import forward_height
from frostree.montecarlo import run_mc
from frostree.rng import MonteCarloDriver, RngStream
from frostree.sequences import attach_run, parse_sequence
from workloads import seeded_generator, reducible_walk

TOLERANCE = 0.15


def cli_seconds(argv: list[str]) -> float:
    out = run.WORK / f"reanchor-{os.getpid()}.out"
    t0 = perf_counter()
    status = cli_main([*argv, "--out", str(out)])
    seconds = perf_counter() - t0
    out.unlink(missing_ok=True)
    if status != 0:
        sys.exit(f"{' '.join(argv)} exited with status {status}")
    return seconds


def median_of(fn, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return statistics.median(times)


def per_replica_us(body, replicas: int) -> float:
    return median_of(lambda: [body(i) for i in range(replicas)]) / replicas * 1e6


def main() -> int:
    run.WORK.mkdir(exist_ok=True)
    walk = reducible_walk(seeded_generator(0, "reanchor"), 40).text
    alternating = parse_sequence("(+-)^10000")
    cases = [
        ("simulate (+-)^10000 x1000 --threads 2", "s", 9.3,
         lambda: cli_seconds(["simulate", "--seq", "(+-)^10000", "--replicas", "1000",
                              "--threads", "2", "--seed", "7"])),
        ("simulate +^100000 x1000", "s", 2.8,
         lambda: cli_seconds(["simulate", "--seq", "+^100000", "--replicas", "1000", "--seed", "7"])),
        ("simulate +^100 x100000", "s", 6.1,
         lambda: cli_seconds(["simulate", "--seq", "+^100", "--replicas", "100000", "--seed", "7"])),
        (f"couple reduce m=40 x20000 ({walk})", "s", 3.3,
         lambda: cli_seconds(["couple", "--which", "reduce", "--seq", walk,
                              "--replicas", "20000", "--seed", "7"])),
        ("exact +^12 (CLI)", "s", 0.37, lambda: cli_seconds(["exact", "--seq", "+^12"])),
        ("stream setup per replica", "us", 25.0,
         lambda: per_replica_us(lambda i: RngStream(7, i).generator(), 2000)),
        ("driver first index() refill per replica", "us", 26.0,
         lambda: per_replica_us(lambda i: MonteCarloDriver(RngStream(7, i)).index(2), 2000) - per_replica_us(
             lambda i: RngStream(7, i).generator(), 2000)),
        ("scalar forward kernel per step, (+-)^10000", "us", 1.3,
         lambda: per_replica_us(lambda i: forward_height(alternating, RngStream(7, i)), 20) / 20000),
        ("RRT height per replica via run_mc, n=100 (incl. stream setup)", "us", 94.0,
         lambda: median_of(lambda: run_mc(attach_run(100), 2000, 7)) / 2000 * 1e6),
        ("RRT height per replica via run_mc, n=1e5 (incl. stream setup)", "ms", 5.2,
         lambda: median_of(lambda: run_mc(attach_run(100_000), 50, 7), 3) / 50 * 1e3),
        ("forward DP +^12", "s", 0.19,
         lambda: median_of(lambda: exact_height_distribution_forward(attach_run(12)))),
        ("forward DP +^6-^3+^6", "s", 0.72,
         lambda: median_of(lambda: exact_height_distribution_forward(parse_sequence("+^6-^3+^6")), 3)),
    ]
    print("| case | unit | ROADMAP | now | now/ROADMAP | beyond +-15 % |")
    print("|---|---|---|---|---|---|")
    for name, unit, then, measure in cases:
        now = measure()
        ratio = now / then
        flag = "yes" if abs(ratio - 1) > TOLERANCE else "no"
        print(f"| {name} | {unit} | {then:g} | {now:.3g} | {ratio:.2f} | {flag} |", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
