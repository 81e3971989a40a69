"""Traced run: a CLI call's inputs sent again through each module's public
functions, with a span at every layer boundary and counts beside them.

Spans live in memory as ``[name, start_ns, end_ns, parent_id, call_id]`` (the
list index is the span id) and are written out when the run ends.  Replica
work runs at parallelism 1 so every replica's ``rng`` and kernel spans show.
Each traced call must reproduce the CLI call's output exactly (fidelity).
"""

from __future__ import annotations

import json
import statistics
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter_ns
from typing import Callable, Iterator

from frostree.coupling import couple_reduce
from frostree.errors import StateSpaceExceeded
from frostree.exact import (
    exact_height_distribution_forward,
    exact_height_distribution_reverse,
)
from frostree.forward import forward_height, sample_rrt
from frostree.montecarlo import SimulationReport, run_mc
from frostree.rng import MonteCarloDriver, RngStream
from frostree.sequences import parse_sequence

from workloads import Call, CheckFailed, check_output, forward_state_space

# Per-layer metrics of a traced call, with units.  A layer the workload does not
# reach reports 0.  reverse.py and tree.py are reached by no CLI workload.
LAYER_METRICS = {
    "sequences.parse_s": "s",
    "rng.streams": "count",
    "rng.setup_s": "s",
    "rng.first_draw_s": "s",
    "rng.draws_used": "count",
    "rng.draws_generated": "count",
    "rng.draw_use_ratio": "ratio",
    "forward.kernel_s": "s",
    "forward.steps": "count",
    "forward.ns_per_step": "ns",
    "coupling.kernel_s": "s",
    "coupling.samples": "count",
    "coupling.violations": "count",
    "exact.forward_s": "s",
    "exact.reverse_s": "s",
    "exact.peak_states": "count",
    "montecarlo.run_mc_s": "s",
    "montecarlo.self_s": "s",
    "montecarlo.workers": "count",
    "cli.self_s": "s",
    "cli.serialize_s": "s",
    "trace_overhead_frac": "ratio",
}
NOT_MEASURED = ("reverse", "tree")


class FidelityError(Exception):
    """The rebuilt pipeline disagrees with the CLI call it retraces."""


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []

    def begin(self, name: str, parent: int | None, call: int) -> int:
        self.spans.append([name, perf_counter_ns(), 0, parent, call])
        return len(self.spans) - 1

    def end(self, span: int) -> None:
        self.spans[span][2] = perf_counter_ns()

    def ns(self, span: int) -> int:
        """Duration of a closed span."""
        return self.spans[span][2] - self.spans[span][1]

    @contextmanager
    def span(self, name: str, parent: int | None, call: int) -> Iterator[int]:
        sid = self.begin(name, parent, call)
        try:
            yield sid
        finally:
            self.end(sid)

    def seconds(self, first: int) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self seconds per span name, over spans from ``first`` on.
        Self time is the duration minus the time of direct child spans."""
        child: dict[int, int] = {}
        for name, t0, t1, parent, _ in self.spans[first:]:
            if parent is not None:
                child[parent] = child.get(parent, 0) + t1 - t0
        total: dict[str, float] = {}
        self_: dict[str, float] = {}
        for sid in range(first, len(self.spans)):
            name, t0, t1, _, _ = self.spans[sid]
            total[name] = total.get(name, 0.0) + (t1 - t0) / 1e9
            self_[name] = self_.get(name, 0.0) + (t1 - t0 - child.get(sid, 0)) / 1e9
        return total, self_

    def write(self, path: Path) -> None:
        path.write_text(json.dumps(
            {"fields": ["name", "start_ns", "end_ns", "parent", "call"], "spans": self.spans}))


class CountingGenerator:
    """Stands in for the numpy Generator behind a MonteCarloDriver: the same
    draws, counted, with every refill recorded as a span under ``parent``."""

    __slots__ = ("_gen", "_tracer", "_call", "parent", "generated")

    def __init__(self, gen, tracer: Tracer, call: int) -> None:
        self._gen = gen
        self._tracer = tracer
        self._call = call
        self.parent: int | None = None
        self.generated = 0

    def random(self, n: int):
        name = "rng.draw" if self.generated else "rng.first_draw"
        sid = self._tracer.begin(name, self.parent, self._call)
        out = self._gen.random(n)
        self._tracer.end(sid)
        self.generated += n
        return out


class CountingDriver(MonteCarloDriver):
    """MonteCarloDriver that counts the uniforms its consumer takes
    (``index`` takes one, ``uniform_block(n)`` takes n)."""

    __slots__ = ("used",)

    def __init__(self, gen: CountingGenerator) -> None:
        super().__init__(gen)
        self.used = 0

    def index(self, k: int) -> int:
        self.used += 1
        return super().index(k)

    def uniform_block(self, count: int):
        self.used += count
        return super().uniform_block(count)


def _same(expected, got, what: str) -> None:
    if expected != got:
        raise FidelityError(f"rebuilt {what} differs from the CLI call's")


def compare_histograms(cli: dict[int, int], rebuilt: dict[int, int]) -> None:
    _same(cli, rebuilt, "histogram")


class TracedRun:
    """Traces calls one by one; ``metrics`` gives the per-layer medians."""

    def __init__(self, main: Callable[[list[str]], int], out: Path) -> None:
        self.main = main
        self.out = out
        self.tracer = Tracer()
        self.per_call: list[dict[str, float]] = []
        self.traced_ns = 0  # replica or DP work with spans and counting proxies
        self.reference_ns = 0  # the same work, untraced
        self._peaks: dict[str, int] = {}

    def trace(self, call: Call) -> None:
        """Run the CLI call and its rebuilt pipeline; raises on any mismatch."""
        tr = self.tracer
        cid = len(self.per_call)
        first = len(tr.spans)
        with tr.span("call", None, cid) as root:
            self.out.unlink(missing_ok=True)
            with tr.span("cli.main", root, cid):
                status = self.main([*call.argv, "--out", str(self.out)])
            if status != 0:
                raise CheckFailed(f"exit status {status}")
            text = self.out.read_text()
            check_output(call, text)
            with tr.span("sequences.parse", root, cid):
                seq = parse_sequence(call.seq)
            pipeline = {"simulate": self._simulate, "couple": self._couple,
                        "exact": self._exact}[call.kind]
            m = pipeline(call, seq, text, root, cid)
        total, self_ = tr.seconds(first)
        m["sequences.parse_s"] = total["sequences.parse"]
        if "rng.setup" in total:
            m["rng.setup_s"] = total["rng.setup"]
            m["rng.first_draw_s"] = total["rng.first_draw"]
            m["rng.draw_use_ratio"] = m["rng.draws_used"] / m["rng.draws_generated"]
        if "forward.kernel" in self_:
            m["forward.kernel_s"] = self_["forward.kernel"]
            m["forward.ns_per_step"] = m["forward.kernel_s"] / m["forward.steps"] * 1e9
        if "coupling.kernel" in self_:
            m["coupling.kernel_s"] = self_["coupling.kernel"]
        m["cli.self_s"] = total["cli.main"] - total["sequences.parse"] - m.pop("library_s")
        m["cli.serialize_s"] = total["cli.serialize"]
        self.per_call.append(m)

    # -- one pipeline per CLI subcommand --------------------------------------

    def _replicas(self, call: Call, kernel_name: str, kernel, root: int, cid: int):
        """Per-replica spans at parallelism 1; returns results, replica ns, counts."""
        tr = self.tracer
        results, per_replica = [], []
        used = generated = 0
        with tr.span("replicas", root, cid) as rep:
            for i in range(call.replicas):
                setup = tr.begin("rng.setup", rep, cid)
                gen = CountingGenerator(RngStream(call.seed, i).generator(), tr, cid)
                driver = CountingDriver(gen)
                tr.end(setup)
                k = tr.begin(kernel_name, rep, cid)
                gen.parent = k
                results.append(kernel(driver))
                tr.end(k)
                per_replica.append(tr.spans[k][2] - tr.spans[setup][1])
                used += driver.used
                generated += gen.generated
        self.traced_ns += tr.ns(rep)
        counts = {"rng.streams": call.replicas, "rng.draws_used": used,
                  "rng.draws_generated": generated}
        return results, per_replica, counts

    def _simulate(self, call: Call, seq, text: str, root: int, cid: int) -> dict:
        tr = self.tracer
        with tr.span("montecarlo.run_mc", root, cid) as sid:
            report = run_mc(seq, call.replicas, call.seed, parallelism=call.threads)
        run_mc_ns = tr.ns(sid)
        with tr.span("cli.serialize", root, cid):
            rendered = report.to_json()
        _same(text, rendered, "run_mc report bytes")
        if seq.freeze_count == 0:
            # run_mc's freeze-free path reaches forward through a private helper;
            # sample_rrt runs the same draws but also builds the arena
            n = len(seq)
            kernel = lambda src: sample_rrt(n, src).height  # noqa: E731
        else:
            kernel = lambda src: forward_height(seq, src)  # noqa: E731
        with tr.span("reference", root, cid) as ref:
            for i in range(call.replicas):
                kernel(RngStream(call.seed, i))
        self.reference_ns += tr.ns(ref)
        heights, per_replica, counts = self._replicas(call, "forward.kernel", kernel, root, cid)
        rebuilt: dict[int, int] = {}
        for h in heights:
            rebuilt[h] = rebuilt.get(h, 0) + 1
        compare_histograms(SimulationReport.from_json(text).histogram, rebuilt)
        # run_mc starts a pool of `threads` workers when each gets two replicas,
        # and gives worker w the replicas [R*w//W, R*(w+1)//W)
        r = call.replicas
        workers = call.threads if call.threads > 1 and r >= 2 * call.threads else 1
        bounds = [r * w // workers for w in range(workers + 1)]
        critical = max(sum(per_replica[bounds[w]:bounds[w + 1]]) for w in range(workers))
        return {**counts, "forward.steps": len(seq) * r, "montecarlo.run_mc_s": run_mc_ns / 1e9,
                "montecarlo.self_s": (run_mc_ns - critical) / 1e9, "montecarlo.workers": workers,
                "library_s": run_mc_ns / 1e9}

    def _couple(self, call: Call, seq, text: str, root: int, cid: int) -> dict:
        tr = self.tracer
        with tr.span("reference", root, cid) as ref:
            samples = [couple_reduce(seq, RngStream(call.seed, i)) for i in range(call.replicas)]
        self.reference_ns += tr.ns(ref)
        with tr.span("cli.serialize", root, cid):
            rows = [{"replica": i, "height_x": s.height_x, "height_xhat": s.height_xhat,
                     "case": s.case_tag.value if s.case_tag else None}
                    for i, s in enumerate(samples)]
            rendered = json.dumps({"which": "reduce", "mode": "mc", "samples": rows},
                                  sort_keys=True, indent=2) + "\n"
        _same(text, rendered, "samples JSON")
        traced, _, counts = self._replicas(
            call, "coupling.kernel", lambda d: couple_reduce(seq, d), root, cid)
        _same([(s.height_x, s.height_xhat) for s in samples],
              [(s.height_x, s.height_xhat) for s in traced], "coupled samples")
        violations = sum(s.height_xhat > s.height_x for s in traced)
        return {**counts, "coupling.samples": len(traced), "coupling.violations": violations,
                "library_s": tr.ns(ref) / 1e9}

    def _exact(self, call: Call, seq, text: str, root: int, cid: int) -> dict:
        tr = self.tracer
        both = call.construction == "both"
        with tr.span("reference", root, cid) as ref:
            exact_height_distribution_forward(seq)
            if both:
                exact_height_distribution_reverse(seq)
        self.reference_ns += tr.ns(ref)
        peak = self._peak_states(seq)
        with tr.span("exact.forward", root, cid) as fwd:
            law = exact_height_distribution_forward(seq, state_cap=peak)
        reverse_ns = 0
        if both:
            with tr.span("exact.reverse", root, cid) as rev:
                equal = law == exact_height_distribution_reverse(seq)
            reverse_ns = tr.ns(rev)
        self.traced_ns += tr.ns(fwd) + reverse_ns
        with tr.span("cli.serialize", root, cid):
            obj: dict = {"sequence": seq.text, "construction": call.construction,
                         "distribution": law.to_json_obj()}
            if both:
                obj["laws_equal"] = equal
            rendered = json.dumps(obj, sort_keys=True, indent=2) + "\n"
        _same(text, rendered, "exact law JSON")
        out = {"exact.forward_s": tr.ns(fwd) / 1e9, "exact.peak_states": peak,
               "library_s": tr.ns(ref) / 1e9}
        if both:
            out["exact.reverse_s"] = reverse_ns / 1e9
        return out

    def _peak_states(self, seq) -> int:
        """Smallest public state_cap under which the forward DP does not raise."""
        if seq.text not in self._peaks:
            peak = forward_state_space(seq).peak
            try:
                exact_height_distribution_forward(seq, state_cap=peak - 1)
            except StateSpaceExceeded:
                pass
            else:
                raise FidelityError(f"forward DP passed state_cap={peak - 1} below the counted peak")
            self._peaks[seq.text] = peak
        return self._peaks[seq.text]

    def metrics(self) -> dict[str, float]:
        """Per metric, the median over the traced calls that reached its layer
        (0 when none did), plus the tracing overhead over all calls."""
        out = {}
        for name in LAYER_METRICS:
            values = [m[name] for m in self.per_call if name in m]
            out[name] = float(statistics.median(values)) if values else 0.0
        out["trace_overhead_frac"] = (
            self.traced_ns / self.reference_ns - 1 if self.reference_ns else 0.0)
        return out
