"""Self-test of the benchmark at tiny sizes (about half a minute).

    python3 perfbench/selftest.py

Checks that every metric BENCHMARK.json names is emitted with its unit, that a
deliberately corrupted output is counted as a failed call, and that the
fidelity check of the traced run rejects a mismatched histogram.  Exits 1 on
the first check that does not hold.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
from pathlib import Path

import run  # puts the checkout's src/ on sys.path
import traced
from frostree.cli import main as cli_main
from workloads import DEFAULT_SEED, WORKLOADS, Couple, Digests, Exact, Simulate

TINY = (
    Simulate("tiny_pool", "", "(+-)^30", replicas=6, threads=2),
    Simulate("tiny_rrt", "", "+^12", replicas=8, threads=1),
    Couple("tiny_couple", "", lengths=(6, 10), replicas=10),
    Exact("tiny_exact", "", pool=("+^4-+", "+^3-+^2", "+^2-+^3", "+^5-^2+"), dp_members=2),
)


def require(condition: bool, what: str) -> None:
    if not condition:
        sys.exit(f"selftest FAILED: {what}")
    print(f"ok  {what}")


def quiet(fn, *args, **kwargs):
    with contextlib.redirect_stdout(io.StringIO()):
        return fn(*args, **kwargs)


def corrupting(kind: str):
    """A CLI entry point whose --out file breaks one check of its kind."""

    def main(argv: list[str]) -> int:
        status = cli_main(argv)
        out = Path(argv[argv.index("--out") + 1])
        obj = json.loads(out.read_text())
        if kind == "simulate":
            first = next(iter(obj["histogram"]))
            obj["histogram"][first] += 1  # counts no longer sum to replicas
        elif kind == "couple":
            row = obj["samples"][0]
            row["height_xhat"] = row["height_x"] + 1  # pathwise order broken
        else:
            obj["distribution"]["mass_num"][0] += 1  # masses no longer sum to 1
        out.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
        return status

    return main


def main() -> int:
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    require({w["name"] for w in bench["workloads"]} == set(WORKLOADS),
            "BENCHMARK.json lists exactly the workloads run.py defines")

    for w in TINY:
        result = quiet(run.measure, w, seed=3, seconds=0.1)
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        require(units == end_to_end and result["correct"] and result["failed"] == 0,
                f"{w.name}: every end_to_end metric emitted with its unit, no failures")
        result = quiet(run.measure_traced, w, seed=3, seconds=0.1)
        units = {k: v["unit"] for k, v in result["metrics"].items()}
        require(units == per_layer and result["correct"],
                f"{w.name}: every per_layer metric emitted with its unit, fidelity holds")
        kind = next(w.calls(3)).kind
        result = quiet(run.measure, w, seed=3, seconds=0.1, main=corrupting(kind))
        require(result["failed"] == result["attempted"] and not result["correct"],
                f"{w.name}: each corrupted output counted in failed_frac")

    # a byte-level change that keeps the output valid is caught by its digest
    exact = WORKLOADS["exact_dp"]
    call = next(exact.calls(DEFAULT_SEED))
    out = run.WORK / f"selftest-{os.getpid()}.out"
    digests = Digests()
    clean = run.run_call(call, cli_main, out, digests)
    require(clean.error is None and digests.checked == 1,
            "warm-up call of exact_dp matches its recorded digest")

    def padded(argv: list[str]) -> int:
        status = cli_main(argv)
        path = Path(argv[argv.index("--out") + 1])
        path.write_text(path.read_text() + " ")
        return status

    require(run.run_call(call, padded, out, Digests()).error is not None,
            "an output one byte off its recorded digest fails")

    try:
        traced.compare_histograms({1: 3, 2: 5}, {1: 4, 2: 4})
    except traced.FidelityError:
        require(True, "compare_histograms rejects a histogram with one replica moved")
    else:
        require(False, "compare_histograms rejects a histogram with one replica moved")

    # a CLI report from other streams, relabelled with the call's seed, is a valid
    # report, but the traced pipeline cannot reproduce it
    tiny = TINY[1]
    call = next(tiny.calls(3))

    def other_streams(argv: list[str]) -> int:
        argv = list(argv)
        argv[argv.index("--seed") + 1] = str(call.seed + 1)
        status = cli_main(argv)
        path = Path(argv[argv.index("--out") + 1])
        obj = json.loads(path.read_text())
        obj["seed"] = call.seed
        path.write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")
        return status

    try:
        traced.TracedRun(other_streams, out).trace(call)
    except traced.FidelityError as exc:
        require(True, f"traced run rejects a report built from other streams ({exc})")
    else:
        require(False, "traced run rejects a report built from other streams")
    out.unlink(missing_ok=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
