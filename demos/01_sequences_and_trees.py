"""Tour of choice sequences and the two tree constructions.

A sequence of '+' (attach) and '-' (freeze) steps drives the growth of a
random rooted tree.  This script parses a few sequences, inspects their
walks, and builds the same law forwards and backwards.
"""

from frostree import (
    RngStream,
    build_forward,
    build_reverse,
    classify,
    parse_sequence,
)

print("=== sequence DSL ===")
for text in ["+^3", "(+-)^2", "+^2-^1(-+)+^1"]:
    seq = parse_sequence(text)
    steps = "".join("+" if attach else "-" for attach in seq.flags.tolist())
    print(f"{text:>16} -> {steps}   "
          f"actives after each step: {seq.walk.s_values.tolist()}")

print()
print("=== membership in the n-attachment family ===")
for text, n in [("+-+-", 2), ("+--", 1), ("+^2", 1)]:
    verdict = classify(parse_sequence(text), n)
    print(f"{text:>6} with n={n}: valid={verdict.valid}, member={verdict.in_x_n}")

print()
print("=== forward construction (uniform attach / uniform freeze) ===")
seq = parse_sequence("+^4-^2+")
arena = build_forward(seq, RngStream(master_seed=7, stream_index=0))
print(f"sequence {seq.text}: {len(arena)} vertices, height {arena.height}, "
      f"{arena.active_count()} active")
print("vertex dump (index parent depth status birth):")
print(arena.dump())

print()
print("=== reversed construction (growth-coalescent forest) ===")
arena2 = build_reverse(seq, RngStream(master_seed=7, stream_index=1))
print(f"same sequence, reversed build: {len(arena2)} vertices, "
      f"height {arena2.height}, {arena2.active_count()} active")
print("The two builders produce different samples but identical laws;")
print("see 02_exact_laws_and_dominance.py for the exact check.")
