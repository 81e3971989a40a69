"""frostree benchmark: closed-loop CLI workloads and a traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload mc_alternating --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25          # every workload

One process is one client of a closed loop: it calls ``frostree.cli.main(argv)``
in-process, the next call only after the previous one returned, each call
writing its report with ``--out``.  The workload seed makes the inputs; the
program sees only those inputs.  Every output is checked (``workloads.py``).

``--trace 0`` reports the end-to-end metrics: throughput_per_s (printed as
replicas_per_s on the Monte Carlo workloads and laws_per_s on exact_dp, whose
calls have no replicas), the median and tail call latency, set-up time of a
fresh interpreter, and peak resident memory; it also prints failed_frac, which
the JSON carries as ``failed`` / ``attempted``.  ``--trace 1`` instead retraces
each call through the modules' public functions (``traced.py``) and reports
per-layer metrics.  The last line of output is one JSON object: ``correct``,
``attempted``, ``failed``, ``metrics``.  ``selftest.py`` checks the benchmark
itself; BASELINE.md holds the numbers of the commit that added it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / ".work"

MIN_CALLS = 11  # call_tail_s needs 10 calls beyond it
SETUP_REPEATS = 5
END_TO_END = {"throughput_per_s": "1/s", "call_p50_s": "s", "call_tail_s": "s",
              "setup_s": "s", "peak_rss_mb": "MB"}

if not (SRC / "frostree" / "cli.py").is_file():
    sys.exit(f"perfbench: no frostree sources in {SRC}; run from a repository checkout")
sys.path.insert(0, str(SRC))

import numpy  # noqa: E402

import frostree  # noqa: E402
from frostree.cli import main as cli_main  # noqa: E402

from traced import LAYER_METRICS, NOT_MEASURED, TracedRun  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS, Call, Digests, Workload, check_output  # noqa: E402

if Path(frostree.__file__).resolve().parent != (SRC / "frostree").resolve():
    sys.exit(f"perfbench: imported frostree from {frostree.__file__}, not from {SRC}")

Main = Callable[[list[str]], int]


@dataclass
class CallResult:
    call: Call
    seconds: float
    error: str | None


def run_call(call: Call, main: Main, out: Path, digests: Digests) -> CallResult:
    """One timed CLI call, then its output checks; failures are recorded, not raised."""
    out.unlink(missing_ok=True)
    t0 = perf_counter()
    try:
        status = main([*call.argv, "--out", str(out)])
    except SystemExit as exc:  # argparse rejects bad arguments this way
        status = exc.code
    except Exception as exc:  # a crash is a failed call; the loop goes on
        return CallResult(call, perf_counter() - t0, f"raised {exc!r}")
    seconds = perf_counter() - t0
    if status != 0:
        return CallResult(call, seconds, f"exit status {status}")
    try:
        text = out.read_text()
        check_output(call, text)
        digests.check(call, text)
    except Exception as exc:  # any way an output fails its checks counts the same
        return CallResult(call, seconds, f"{type(exc).__name__}: {exc}")
    return CallResult(call, seconds, None)


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with at least 10 values beyond it, and its percentile."""
    n = len(values)
    return sorted(values)[n - 11], 100.0 * (n - 10) / n


def setup_seconds(seq_text: str) -> float:
    """Time for a fresh interpreter to import frostree.cli and parse the input."""
    code = ("import sys, time\nt0 = time.perf_counter()\nimport frostree.cli\n"
            "from frostree.sequences import parse_sequence\nparse_sequence(sys.argv[1])\n"
            "print(time.perf_counter() - t0)")
    done = subprocess.run([sys.executable, "-c", code, seq_text],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout)


def peak_rss_mb(children_kib: int) -> float:
    """Peak RSS of this process plus ``children_kib``, its largest pool worker's."""
    return (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss + children_kib) / 1024


def run_metadata() -> dict:
    sources = sorted((SRC / "frostree").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=30, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        ).stdout.strip() or None
    except OSError:
        commit = None
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next((ln.split(":", 1)[1].strip() for ln in info if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit, "src_sha256": digest.hexdigest(),
            "src_lines": lines}


def warm_up(workload: Workload, main: Main, out: Path, digests: Digests) -> CallResult:
    """DEFAULT_SEED's first call, untimed: fills caches and checks byte identity."""
    return run_call(next(workload.calls(DEFAULT_SEED)), main, out, digests)


def measure(workload: Workload, seed: int, seconds: float, main: Main = cli_main) -> dict:
    """Closed loop for ``seconds`` (at least MIN_CALLS calls); end-to-end metrics.

    The SETUP_REPEATS fresh interpreters of setup_s start between calls, spread
    over the run, so that their median does not hang on one episode of host
    load.  Pool workers' peak RSS is read before the first of them is reaped.
    """
    out = WORK / f"{workload.name}-{os.getpid()}.out"
    digests = Digests()
    results = [warm_up(workload, main, out, digests)]
    timed: list[CallResult] = []
    setups: list[float] = []
    children_kib = 0
    calls = workload.calls(seed)
    pending = next(calls)  # drawing the inputs is the benchmark's work, not timed
    start = perf_counter()
    while perf_counter() < start + seconds or len(timed) < MIN_CALLS:
        timed.append(run_call(pending, main, out, digests))
        pending = next(calls)
        due = start + seconds * len(setups) / SETUP_REPEATS
        if len(setups) < SETUP_REPEATS and perf_counter() >= due:
            if not setups:
                children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            setups.append(setup_seconds(timed[0].call.seq))
    while len(setups) < SETUP_REPEATS:
        setups.append(setup_seconds(timed[0].call.seq))
    results += timed
    rss = peak_rss_mb(children_kib)
    out.unlink(missing_ok=True)
    durations = [r.seconds for r in timed]
    tail_s, tail_pct = tail(durations)
    throughput = sum(r.call.work for r in timed) / sum(durations)
    metrics = {"throughput_per_s": throughput, "call_p50_s": statistics.median(durations),
               "call_tail_s": tail_s, "setup_s": statistics.median(setups),
               "peak_rss_mb": rss}
    failed = [r for r in results if r.error]
    unit_name = "laws_per_s" if timed[0].call.kind == "exact" else "replicas_per_s"
    notes = {"throughput_per_s": f"= {unit_name}",
             "call_tail_s": f"p{tail_pct:.0f} of {len(timed)} timed calls",
             "setup_s": f"median of {SETUP_REPEATS} fresh interpreters spread over the run",
             "peak_rss_mb": "this process + largest pool worker"}
    for name, value in metrics.items():
        print(f"{name:18} {value:.6g} {END_TO_END[name]:5} {notes.get(name, '')}")
    print(f"{'failed_frac':18} {len(failed) / len(results):.6g} ratio "
          f"{len(failed)} of {len(results)} calls ({len(timed)} timed + 1 warm-up), "
          f"{digests.checked} byte-checked against digests.json")
    for r in failed[:5]:
        print(f"FAILED {' '.join(r.call.argv)[:120]}: {r.error}")
    return {"correct": not failed, "attempted": len(results), "failed": len(failed),
            "metrics": {k: {"value": v, "unit": END_TO_END[k]} for k, v in metrics.items()}}


def measure_traced(workload: Workload, seed: int, seconds: float, main: Main = cli_main,
                   spans_path: Path | None = None) -> dict:
    """Retrace calls for ``seconds`` (at least one); per-layer metrics."""
    out = WORK / f"{workload.name}-{os.getpid()}.out"
    warm = warm_up(workload, main, out, Digests())
    run = TracedRun(main, out)
    errors = [warm.error] if warm.error else []
    attempted = 1
    calls = workload.calls(seed)
    pending = next(calls)
    deadline = perf_counter() + seconds
    while perf_counter() < deadline or attempted < 2:
        attempted += 1
        call, pending = pending, next(calls)
        try:
            run.trace(call)
        except Exception as exc:  # output or fidelity failure: counted, the run goes on
            errors.append(f"{type(exc).__name__}: {exc}")
    out.unlink(missing_ok=True)
    if spans_path is not None:
        run.tracer.write(spans_path)
    metrics = run.metrics()
    for name, value in metrics.items():
        print(f"{name:22} {value:.6g} {LAYER_METRICS[name]}")
    print(f"traced {len(run.per_call)} calls; each value is the median over the calls "
          "that reached its layer; a layer this workload "
          f"does not reach reads 0; not measured: {', '.join(NOT_MEASURED)} "
          "(no CLI workload reaches them; the reverse DP lives in exact)")
    if spans_path is not None:
        print(f"spans: {len(run.tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    for e in errors[:5]:
        print(f"FAILED {e}")
    return {"correct": not errors, "attempted": attempted, "failed": len(errors),
            "metrics": {k: {"value": v, "unit": LAYER_METRICS[k]} for k, v in metrics.items()}}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[name]
    print(f"workload {name} (seed {seed}, {seconds:g} s, trace {int(trace)}): {workload.why}")
    if trace:
        spans = WORK / f"spans-{name}-seed{seed}.json"
        return measure_traced(workload, seed, seconds, spans_path=spans)
    return measure(workload, seed, seconds)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    WORK.mkdir(exist_ok=True)
    print("meta " + json.dumps(run_metadata(), sort_keys=True))
    if args.workload != "all":
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    else:
        parts = {name: run_workload(name, args.seed, args.seconds, bool(args.trace))
                 for name in WORKLOADS}
        result = {"correct": all(p["correct"] for p in parts.values()),
                  "attempted": sum(p["attempted"] for p in parts.values()),
                  "failed": sum(p["failed"] for p in parts.values()),
                  "metrics": {f"{name}.{k}": v for name, p in parts.items()
                              for k, v in p["metrics"].items()}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
