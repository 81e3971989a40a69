"""Command-line front end: one subcommand per experiment family."""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from functools import cache
from pathlib import Path

from .coupling import (
    CoupledSample,
    couple_prop_i,
    couple_prop_ii,
    couple_prop_iii,
    couple_reduce,
    couple_reduce_columns,
    reduce_once,
    reduce_to_prefix,
    render_samples,
)
from .errors import FrostreeError
from .exact import (
    HeightDistribution,
    exact_height_distribution_forward,
    exact_height_distribution_reverse,
    min_floor_search,
    stochastic_dominates,
)
from .forward import build_forward
from .montecarlo import (
    BennettQuery,
    bennett_bound,
    check_slack,
    check_theorem_main,
    empirical_dominance,
    height_threshold,
    run_mc,
)
from .rng import RngStream, law_of
from .sequences import parse_sequence


class _EnvSeed(str):
    """--seed's default, which stands for FROSTREE_SEED: ``_seed`` reads the
    variable when a command line is parsed, since one parser serves every
    ``main`` call of a process."""


def _seed(text: str) -> int:
    if isinstance(text, _EnvSeed):
        text = os.environ.get("FROSTREE_SEED", "0")
    try:
        seed = int(text)
    except ValueError:
        seed = -1
    if seed < 0:
        raise argparse.ArgumentTypeError(
            f"seed must be a nonnegative integer, got {text!r} "
            "(from --seed or FROSTREE_SEED)"
        )
    return seed


def _add_seed(p: argparse.ArgumentParser) -> None:
    # argparse runs a string default through type= only when --seed is absent,
    # so a bad FROSTREE_SEED is a usage error of the seeded subcommands alone
    p.add_argument("--seed", type=_seed, default=_EnvSeed("FROSTREE_SEED"))


@cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process."""
    parser = argparse.ArgumentParser(
        prog="frostree",
        description="Build, enumerate and compare uniform attachment trees with freezing.",
        epilog=(
            "Sequence grammar: seq := term+ ; term := atom ['^' count] ; "
            "atom := '+' | '-' | '(' seq ')'.  Example: \"+^3(-+)^2\".  "
            "Spell sequences that start with '-' as --seq=TEXT."
        ),
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(p: argparse.ArgumentParser, seq: bool = True) -> None:
        if seq:
            p.add_argument("--seq", required=True, help="choice sequence text")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        p.add_argument("--out", default=None, help="output file (default stdout)")

    p = sub.add_parser("simulate", help="Monte Carlo height histogram")
    common(p)
    p.add_argument("--replicas", type=int, default=10_000)
    _add_seed(p)
    p.add_argument("--threads", type=int, default=1)
    p.add_argument(
        "--dump-tree",
        action="store_true",
        help="dump the replica-0 tree (one vertex per line) instead of the report",
    )
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("exact", help="exact height distribution")
    common(p)
    p.add_argument(
        "--construction",
        choices=["forward", "reverse", "both"],
        default="forward",
    )
    p.set_defaults(handler=_cmd_exact)

    p = sub.add_parser("couple", help="coupled height samples")
    common(p, seq=False)
    p.add_argument(
        "--which",
        choices=["reduce", "prop_i", "prop_ii", "prop_iii"],
        required=True,
    )
    p.add_argument("--seq", default=None, help="sequence (reduce coupling only)")
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--mode", choices=["mc", "enumerate"], default="mc")
    p.add_argument("--replicas", type=int, default=10_000)
    _add_seed(p)
    p.set_defaults(handler=_cmd_couple)

    p = sub.add_parser("compare", help="stochastic dominance of two sequences")
    common(p, seq=False)
    p.add_argument("--seq", default=None)
    p.add_argument("--seq2", default=None)
    p.add_argument("--mode", choices=["enumerate", "mc"], default="enumerate")
    p.add_argument("--replicas", type=int, default=100_000)
    _add_seed(p)
    p.add_argument("--slack", type=float, default=0.01)
    p.add_argument("--n", type=int, default=None, help="floor search: reference size")
    p.add_argument(
        "--family",
        default=None,
        help="floor search: file of newline-delimited sequences",
    )
    p.set_defaults(handler=_cmd_compare)

    p = sub.add_parser("reduce", help="drop leading attach/freeze pairs")
    common(p)
    p.add_argument("--to-prefix", type=int, default=None, metavar="R")
    p.set_defaults(handler=_cmd_reduce)

    p = sub.add_parser("bound", help="Bernoulli-sum tail bound")
    p.add_argument("--mean-sum", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    common(p, seq=False)
    p.set_defaults(handler=_cmd_bound)

    p = sub.add_parser("theorem", help="height floor check at e ln n - 5 ln ln n")
    common(p)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--replicas", type=int, default=1_000)
    _add_seed(p)
    p.add_argument("--threads", type=int, default=1)
    p.set_defaults(handler=_cmd_theorem)

    return parser


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text, encoding="utf-8")


def _json(obj: object) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _kv_csv(obj: dict) -> str:
    """Flat key,value rendering for scalar results."""
    lines = ["key,value"]
    for key in sorted(obj):
        value = obj[key]
        if isinstance(value, bool):
            value = str(value).lower()
        lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"


def _flat(args: argparse.Namespace, obj: dict) -> str:
    return _kv_csv(obj) if args.format == "csv" else _json(obj)


def _frac_obj(value: Fraction) -> dict:
    return {"num": value.numerator, "den": value.denominator}


def _cmd_simulate(args: argparse.Namespace) -> str:
    seq = parse_sequence(args.seq)
    if args.dump_tree:
        arena = build_forward(seq, RngStream(args.seed, 0))
        return arena.dump() + "\n"
    report = run_mc(seq, args.replicas, args.seed, parallelism=args.threads)
    return report.to_json() if args.format == "json" else report.to_csv()


def _cmd_exact(args: argparse.Namespace) -> str:
    seq = parse_sequence(args.seq)
    construction = args.construction
    forward, reverse = exact_height_distribution_forward, exact_height_distribution_reverse
    dist = (reverse if construction == "reverse" else forward)(seq)
    equal = dist == reverse(seq) if construction == "both" else None
    if args.format == "csv":
        text = dist.to_csv()
        if equal is not None:
            text += f"# laws equal: {str(equal).lower()}\n"
        return text
    obj: dict = {"sequence": seq.text, "construction": construction}
    obj["distribution"] = dist.to_json_obj()
    if equal is not None:
        obj["laws_equal"] = equal
    return _json(obj)


def _reduce_seq(args: argparse.Namespace):
    if args.seq is None:
        raise FrostreeError("--seq is required for the reduce coupling")
    return parse_sequence(args.seq)


def _couple_sampler(which: str, args: argparse.Namespace):
    """fn(src) -> one coupled draw: a CoupledSample, or for prop_iii the
    heights (x, xhat, rrt)."""
    if which == "reduce":
        seq = _reduce_seq(args)
        return lambda src: couple_reduce(seq, src)
    if which == "prop_i" or which == "prop_ii":
        if args.m is None or args.n is None:
            raise FrostreeError(f"--m and --n are required for {which}")
        fn = couple_prop_i if which == "prop_i" else couple_prop_ii
        return lambda src: fn(args.m, args.n, src)
    if args.n is None:
        raise FrostreeError("--n is required for prop_iii")
    return lambda src: couple_prop_iii(args.n, src)


def _heights(draw: CoupledSample | tuple[int, int, int]) -> tuple[int, ...]:
    """A coupled draw's heights: (x, xhat), or prop_iii's (x, xhat, rrt)."""
    return draw if isinstance(draw, tuple) else (draw.height_x, draw.height_xhat)


def _couple_enumerate(args: argparse.Namespace) -> str:
    """Exact laws of the coupled heights: the marginals of one joint law."""
    sampler = _couple_sampler(args.which, args)
    joint = law_of(lambda d: _heights(sampler(d)))
    masses: dict[str, dict[int, Fraction]] = {}
    for heights, p in joint.items():
        for name, h in zip(("height_x", "height_xhat", "height_rrt"), heights):
            law = masses.setdefault(name, {})
            law[h] = law.get(h, Fraction(0)) + p
    if args.format == "csv":
        lines = ["law,height,mass_num,mass_den"]
        for name, law in masses.items():
            for h, p in sorted(law.items()):
                lines.append(f"{name},{h},{p.numerator},{p.denominator}")
        return "\n".join(lines) + "\n"
    laws = {name: HeightDistribution.from_exact(law) for name, law in masses.items()}
    obj = {"which": args.which, "mode": "enumerate"}
    obj.update((f"{name}_law", law.to_json_obj()) for name, law in laws.items())
    if args.which == "prop_iii":
        obj["mean_height_xhat"] = _frac_obj(laws["height_xhat"].mean())
        obj["mean_height_rrt"] = _frac_obj(laws["height_rrt"].mean())
    if args.which == "reduce":
        violations = sum((p for (hx, hxh), p in joint.items() if hxh > hx), Fraction(0))
        obj["pathwise_violation_mass"] = _frac_obj(violations)
    return _json(obj)


def _cmd_couple(args: argparse.Namespace) -> str:
    if args.mode == "enumerate":
        return _couple_enumerate(args)
    if args.replicas < 1:
        raise ValueError("need at least one replica")
    cases = None
    if args.which == "reduce":
        columns = couple_reduce_columns(_reduce_seq(args), args.replicas, args.seed)
    else:
        sampler = _couple_sampler(args.which, args)
        draws = [sampler(RngStream(args.seed, i)) for i in range(args.replicas)]
        columns = list(zip(*map(_heights, draws)))[:2]
        if args.which == "prop_ii":
            cases = [draw.case_tag for draw in draws]
    return render_samples(args.format, args.which, *columns, cases)


def _cmd_compare(args: argparse.Namespace) -> str:
    if args.family is not None:
        if args.n is None:
            raise FrostreeError("--family requires --n")
        lines = Path(args.family).read_text(encoding="utf-8").splitlines()
        family = [parse_sequence(line) for line in lines if line.strip()]
        floor = min_floor_search(args.n, family)
        return _flat(args, {"n": args.n, "family_size": len(family), "min_floor": floor})

    if args.seq is None or args.seq2 is None:
        raise FrostreeError("compare needs --seq and --seq2 (or --family)")
    seq1 = parse_sequence(args.seq)
    seq2 = parse_sequence(args.seq2)
    if args.mode == "enumerate":
        d1 = exact_height_distribution_forward(seq1)
        d2 = exact_height_distribution_forward(seq2)
        fwd = stochastic_dominates(d1, d2)
        bwd = stochastic_dominates(d2, d1)
        verdict = (
            "equal"
            if fwd and bwd
            else "dominates"
            if fwd
            else "dominated"
            if bwd
            else "incomparable"
        )
        return _flat(
            args,
            {
                "seq": seq1.text,
                "seq2": seq2.text,
                "seq_dominates_seq2": fwd,
                "seq2_dominates_seq": bwd,
                "verdict": verdict,
            },
        )
    check_slack(args.slack)  # before the replicas, not after them
    # distinct master seeds keep the two runs independent
    r1 = run_mc(seq1, args.replicas, args.seed)
    r2 = run_mc(seq2, args.replicas, args.seed + 1)
    verdict = empirical_dominance(r1, r2, args.slack)
    return _flat(
        args,
        {
            "seq": seq1.text,
            "seq2": seq2.text,
            "replicas": args.replicas,
            "slack": args.slack,
            "verdict": verdict.value,
        },
    )


def _cmd_reduce(args: argparse.Namespace) -> str:
    seq = parse_sequence(args.seq)
    if args.to_prefix is not None:
        result = reduce_to_prefix(seq, args.to_prefix)
        return _flat(
            args,
            {
                "original": seq.text,
                "target_run": args.to_prefix,
                "result": result.text,
            },
        )
    red = reduce_once(seq)
    return _flat(
        args,
        {
            "original": red.original.text,
            "reduced": red.reduced.text,
            "removed_at": red.removed_at,
        },
    )


def _cmd_theorem(args: argparse.Namespace) -> str:
    seq = parse_sequence(args.seq)
    fraction = check_theorem_main(
        seq, args.n, args.replicas, args.seed, parallelism=args.threads
    )
    return _flat(
        args,
        {
            "sequence": seq.text,
            "n": args.n,
            "replicas": args.replicas,
            "seed": args.seed,
            "threshold": height_threshold(args.n),
            "fraction": fraction,
        },
    )


def _cmd_bound(args: argparse.Namespace) -> str:
    bound = bennett_bound(BennettQuery(args.mean_sum, args.t))
    return _flat(args, {"mean_sum": args.mean_sum, "t": args.t, "bound": bound})


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _emit(args.handler(args), args.out)
    except (FrostreeError, ValueError, OSError) as exc:
        print(f"frostree: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
