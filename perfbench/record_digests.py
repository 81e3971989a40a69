"""Record the sha256 of every output of DEFAULT_SEED's calls into digests.json.

Run from the repository root, only at a commit whose report bytes are the
reference (a change that keeps the byte-identity contract must not need it):

    python3 perfbench/record_digests.py --seconds 40

Each workload's calls are recorded until their summed call time passes
``--seconds``, which should exceed the calls one benchmark run makes.
Every recorded output must pass the benchmark's output checks.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from time import perf_counter

import run  # puts the checkout's src/ on sys.path
from frostree.cli import main as cli_main
from workloads import DEFAULT_SEED, DIGESTS_PATH, WORKLOADS, check_output


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seconds", type=float, default=40.0)
    args = parser.parse_args()
    run.WORK.mkdir(exist_ok=True)
    out = run.WORK / f"record-{os.getpid()}.out"
    table: dict[str, str] = {}
    for workload in WORKLOADS.values():
        spent = 0.0
        calls = workload.calls(DEFAULT_SEED)
        recorded = 0
        while spent < args.seconds:
            call = next(calls)
            t0 = perf_counter()
            status = cli_main([*call.argv, "--out", str(out)])
            spent += perf_counter() - t0
            text = out.read_text()
            if status != 0:
                sys.exit(f"{' '.join(call.argv)} exited with status {status}")
            check_output(call, text)
            table[" ".join(call.argv)] = hashlib.sha256(text.encode()).hexdigest()
            recorded += 1
        print(f"{workload.name}: {recorded} calls recorded")
    out.unlink(missing_ok=True)
    DIGESTS_PATH.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"{len(table)} digests written to {DIGESTS_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
