import contextlib
import hashlib
import io
import itertools
import json
import math
import subprocess
import sys
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frostree import (
    ChoiceSequence,
    RngStream,
    SimulationReport,
    TreeArena,
    couple_reduce,
    forward,
    parse_sequence,
)
from frostree import cli, coupling
from frostree.cli import main
from sample_rows import csv_loop


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# sha256 of exact's JSON.  The last step is an attach or a freeze, each on
# the int64 dtype and on the object dtype (keys over 62 bits).
EXACT_DIGESTS = {
    ("+^6-+^2-+",): "43f7a053e46d6bad0622d09d0614026d446c998135bb95fee6a85cde762acbd8",
    ("+^7-+^3-",): "5d0ea2b29cf4753e9e0c982bcd73bf018eba132a33c3401787a1f82350369d5c",
    ("+^7-+^7",): "440ef1b7fd607a5ac9c36173cbc81971afebcb115b9f3d762df87998a49f1361",
    ("+^7-+^7-",): "2a05849f5cf615767c73111645e1ce82e10dc0bfad1a1bc93da4d852ec72454e",
    ("+^3-^2+^4", "--construction", "both"):
        "ea5ab1fd474cf497ff63a13b2d0ae90b38af32a700dec47dd1a7bddfb7a1bc5b",
}


class TestExact:
    def test_both_constructions_agree(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--seq", "(+-)^3", "--construction", "both"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["laws_equal"] is True
        masses = dict(
            zip(
                obj["distribution"]["support"],
                zip(obj["distribution"]["mass_num"], obj["distribution"]["mass_den"]),
            )
        )
        assert masses == {1: (1, 4), 2: (1, 2), 3: (1, 4)}

    def test_csv_mentions_equality(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "exact",
            "--seq",
            "+^2",
            "--construction",
            "both",
            "--format",
            "csv",
        )
        assert code == 0
        assert "# laws equal: true" in out
        assert "height,probability" in out

    def test_reverse_only(self, capsys):
        code, out, _ = run_cli(
            capsys, "exact", "--seq", "+-+", "--construction", "reverse"
        )
        obj = json.loads(out)
        assert obj["construction"] == "reverse"
        assert obj["distribution"]["support"] == [1, 2]

    def test_both_stops_at_the_reverse_cap_before_the_forward_dp(self, capsys, monkeypatch):
        def fail(seq):
            raise AssertionError("the forward DP ran")

        monkeypatch.setattr(cli, "exact_height_distribution_forward", fail)
        code, out, err = run_cli(capsys, "exact", "--seq", "+^20", "--construction", "both")
        assert code == 1 and out == ""
        assert "reverse enumeration capped at length 12, got 20" in err

    def test_both_reports_an_invalid_sequence_before_the_reverse_cap(self, capsys):
        code, out, err = run_cli(capsys, "exact", "--seq=+^13-^15", "--construction", "both")
        assert code == 1 and out == ""
        assert "exhausts its active vertices early" in err

    @pytest.mark.parametrize("argv", EXACT_DIGESTS)
    def test_output_bytes_are_pinned(self, capsys, argv):
        code, out, err = run_cli(capsys, "exact", "--seq", *argv)
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == EXACT_DIGESTS[argv]


class TestSimulate:
    def test_byte_identical_across_threads(self, capsys):
        args = ["simulate", "--seq", "+^100", "--replicas", "4000", "--seed", "7"]
        code1, out1, _ = run_cli(capsys, *args, "--threads", "1")
        code2, out2, _ = run_cli(capsys, *args, "--threads", "8")
        assert code1 == code2 == 0
        assert out1 == out2

    def test_report_round_trips(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--seq", "(+-)^10", "--replicas", "500", "--seed", "2"
        )
        assert code == 0
        report = SimulationReport.from_json(out)
        assert report.replicas == 500
        assert report.to_json() == out

    def test_dump_tree(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--seq", "+^5-^2", "--seed", "4", "--dump-tree"
        )
        assert code == 0
        arena = TreeArena.from_dump(out)
        assert len(arena) == 6
        assert arena.active_count() == 4

    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--seq",
            "+",
            "--replicas",
            "10",
            "--seed",
            "0",
            "--out",
            str(path),
        )
        assert code == 0 and out == ""
        assert json.loads(path.read_text())["histogram"] == {"1": 10}

    def test_env_seed_fallback(self, capsys, monkeypatch):
        monkeypatch.setenv("FROSTREE_SEED", "99")
        _, out1, _ = run_cli(capsys, "simulate", "--seq", "+^30", "--replicas", "50")
        _, out2, _ = run_cli(
            capsys, "simulate", "--seq", "+^30", "--replicas", "50", "--seed", "99"
        )
        assert out1 == out2


class TestSeed:
    @pytest.mark.parametrize("env", ["abc", "-1", "1.5", ""])
    def test_bad_env_seed_is_usage_error(self, monkeypatch, env):
        monkeypatch.setenv("FROSTREE_SEED", env)
        with pytest.raises(SystemExit) as info:
            main(["simulate", "--seq", "+", "--replicas", "2"])
        assert info.value.code == 2

    @pytest.mark.parametrize("seed", ["-1", "abc"])
    def test_bad_seed_flag_is_usage_error(self, seed):
        with pytest.raises(SystemExit) as info:
            main(["couple", "--which", "prop_iii", "--n", "2", "--seed", seed])
        assert info.value.code == 2

    def test_seed_flag_overrides_bad_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FROSTREE_SEED", "abc")
        code, out, _ = run_cli(
            capsys, "simulate", "--seq", "+", "--replicas", "2", "--seed", "5"
        )
        assert code == 0 and json.loads(out)["seed"] == 5

    def test_env_seed_is_read_at_each_call(self, capsys, monkeypatch):
        # one parser serves every call of the process
        argv = ("simulate", "--seq", "(+-)^20", "--replicas", "40")
        reports = {}
        for seed in ("3", "8"):
            monkeypatch.setenv("FROSTREE_SEED", seed)
            reports[seed] = run_cli(capsys, *argv)
        monkeypatch.delenv("FROSTREE_SEED")
        for seed, (code, out, _) in reports.items():
            assert code == 0 and json.loads(out)["seed"] == int(seed)
            assert out == run_cli(capsys, *argv, "--seed", seed)[1]
        assert reports["3"][1] != reports["8"][1]
        assert cli._build_parser() is cli._build_parser()

    def test_unseeded_subcommand_ignores_env(self, capsys, monkeypatch):
        monkeypatch.setenv("FROSTREE_SEED", "abc")
        code, out, _ = run_cli(capsys, "bound", "--mean-sum", "1", "--t", "1")
        assert code == 0 and json.loads(out)["bound"] > 0


class TestCouple:
    def test_reduce_enumerate(self, capsys):
        code, out, _ = run_cli(
            capsys, "couple", "--which", "reduce", "--seq", "+-+", "--mode", "enumerate"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["pathwise_violation_mass"] == {"num": 0, "den": 1}
        assert obj["height_xhat_law"]["support"] == [1]

    def test_prop_iii_enumerate_identity(self, capsys):
        code, out, _ = run_cli(
            capsys, "couple", "--which", "prop_iii", "--n", "3", "--mode", "enumerate"
        )
        obj = json.loads(out)
        mean_xhat = Fraction(
            obj["mean_height_xhat"]["num"], obj["mean_height_xhat"]["den"]
        )
        mean_rrt = Fraction(
            obj["mean_height_rrt"]["num"], obj["mean_height_rrt"]["den"]
        )
        assert mean_xhat == mean_rrt + Fraction(1, 2)

    def test_mc_csv_batch(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "couple",
            "--which",
            "prop_ii",
            "--m",
            "2",
            "--n",
            "2",
            "--replicas",
            "5",
            "--seed",
            "1",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "replica,height_x,height_xhat,case"
        assert len(lines) == 6

    def test_missing_seq_is_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "couple", "--which", "reduce")
        assert code == 1
        assert "seq" in err

    @pytest.mark.parametrize("replicas", ["0", "-3"])
    @pytest.mark.parametrize(
        "which", [["reduce", "--seq", "+-+"], ["prop_i", "--m", "2", "--n", "2"]]
    )
    def test_mc_without_replicas_is_domain_error(self, capsys, which, replicas):
        code, out, err = run_cli(
            capsys, "couple", "--which", *which, "--replicas", replicas
        )
        assert code == 1 and out == ""
        assert "need at least one replica" in err

    def test_reduce_mc_bytes_match_the_per_replica_loop(self, capsys, monkeypatch):
        # batches of at most 4 replicas: 19 replicas cross four batch boundaries
        monkeypatch.setattr(forward, "MAX_BATCH", 4)
        text, replicas, seed = "+^3-+-^2(+-)^2+-^3", 19, 12
        seq = parse_sequence(text)
        samples = [couple_reduce(seq, RngStream(seed, i)) for i in range(replicas)]
        rows = [
            {"replica": i, "height_x": s.height_x, "height_xhat": s.height_xhat, "case": None}
            for i, s in enumerate(samples)
        ]
        want_json = json.dumps(
            {"which": "reduce", "mode": "mc", "samples": rows}, sort_keys=True, indent=2
        ) + "\n"
        argv = ["couple", "--which", "reduce", "--seq", text,
                "--replicas", str(replicas), "--seed", str(seed)]
        assert run_cli(capsys, *argv) == (0, want_json, "")
        assert run_cli(capsys, *argv, "--format", "csv") == (0, csv_loop(samples), "")


# sha256 of couple's stdout for every --which x --mode x --format; mc runs
# draw 40 replicas at seed 7.  A change to any draw, law or serialized byte
# changes a digest.
COUPLE_ARGS = {
    "reduce": ["--seq", "++-+-+--"],
    "prop_i": ["--m", "3", "--n", "2"],
    "prop_ii": ["--m", "2", "--n", "3"],
    "prop_iii": ["--n", "3"],
}
COUPLE_DIGESTS = {
    ("reduce", "mc", "json"): "4b7db8c59de31044ce51535d4a9ab2268bfcb6f862217ab9b3d57613ca8e8812",
    ("reduce", "mc", "csv"): "8ad4da8c9e9cb4fe901d4008ceadfe76da93fd04ef7bcf4d5ee1486cbee7a530",
    ("reduce", "enumerate", "json"): "3bc1a4611510982317ce21af46f1f33e033008b577da0649c27efdfb12c3e287",
    ("reduce", "enumerate", "csv"): "21a645325b7ba795d8b234c4e350859b437f6df2ff1242ed04e6cbe9bad7b409",
    ("prop_i", "mc", "json"): "6181a6fce5214acb2f1508be9d3faca4a8637c15355dcb0b6fb3341eac55784a",
    ("prop_i", "mc", "csv"): "f45f0e126e9bb347f391edade41602a768a5af1b6dac9697f448b9ddc57b3349",
    ("prop_i", "enumerate", "json"): "f3dfa2b94884e6a53ca7754611dc5b5ff1527a33ac64af5840bd82e0e64e5399",
    ("prop_i", "enumerate", "csv"): "9757ff8ef539867f82ce0b047045927f0169facf422019e97e02ed86016c1561",
    ("prop_ii", "mc", "json"): "a6bb89add0fb6f25054c1bc2bc2ee90c2242ec1dccd3fe56a3d0ef82303da909",
    ("prop_ii", "mc", "csv"): "ab96b83573f426f32e88a14230f34b8942bb49220dbef8dd9398309e52371c6e",
    ("prop_ii", "enumerate", "json"): "3774c83735973a7c4436086d9bf90c0dbb987043180560b8ff8e937a98c783ab",
    ("prop_ii", "enumerate", "csv"): "55999764f995ef450faabe2e51874424acedb39fa8debba75f5b9033d42aacab",
    ("prop_iii", "mc", "json"): "cbc43226267dcb83433ba908cb263ad0f417dff6098f887c4d4cd64d8ae17d6d",
    ("prop_iii", "mc", "csv"): "67db792d8b7574e476a09a482b3d1b0d27128e9b8f863ea4424d350b705e508d",
    ("prop_iii", "enumerate", "json"): "de790f4148ca3e0d3ab176692106b9942efde94148dc1e7b8c75ee919fbc94cb",
    ("prop_iii", "enumerate", "csv"): "a0f72a8925c9af72a5f626254c7a1e7dae81db0ce4d30d138a57103f8cf7c59c",
}

# Batch output bytes at seed 7, each across several batches: 3 freeze-free
# batches of up to 655; 2 batches whose blocks hold table groups and lane
# groups at once; 3 reduction-coupling batches of up to 1024.
BATCH_DIGESTS = {
    ("simulate", "--seq", "+^100", "--replicas", "1400"):
        "4e6f8a145af2eda956a88d83c3d9e6dad18ba0be4582b0ed9d2868744c9a3e41",
    # batches of 256, 256 and 88: two column passes, then pointer doubling
    ("simulate", "--seq", "+^256", "--replicas", "600"):
        "83f86b81487bd5c8319212b4b82aa67799cad84ed57f2c7d4027003413abd67a",
    ("simulate", "--seq", "(+-+^2-^2)^30(+^6-^6)^2", "--replicas", "300"):
        "809aa56e3d4b74c739de94be3a4155a291f4965d58f461b5fb90eb4706c9f231",
    ("couple", "--which", "reduce", "--seq", "++-+-+--", "--replicas", "2100"):
        "3e31790efaaf6255e1ddd4d438101ce3a0c567c54cef3076e6ff0e03dbde6c74",
}


@pytest.mark.parametrize("argv", BATCH_DIGESTS)
def test_batch_output_bytes_are_pinned(capsys, argv):
    code, out, err = run_cli(capsys, *argv, "--seed", "7")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == BATCH_DIGESTS[argv]


@pytest.mark.parametrize(
    "which, mode, fmt",
    itertools.product(COUPLE_ARGS, ["mc", "enumerate"], ["json", "csv"]),
)
def test_couple_output_bytes_are_pinned(capsys, which, mode, fmt):
    argv = ["couple", "--which", which, *COUPLE_ARGS[which], "--mode", mode, "--format", fmt]
    if mode == "mc":
        argv += ["--replicas", "40", "--seed", "7"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == COUPLE_DIGESTS[which, mode, fmt]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_reduce_mc_builds_no_samples_and_calls_no_json_dumps(capsys, monkeypatch, fmt):
    def fail(*args, **kwargs):
        raise AssertionError("couple --mode mc built a sample object or called json.dumps")

    monkeypatch.setattr(cli, "json", types.SimpleNamespace(dumps=fail))
    monkeypatch.setattr(coupling, "CoupledSample", fail)
    argv = ["couple", "--which", "reduce", *COUPLE_ARGS["reduce"], "--format", fmt,
            "--replicas", "40", "--seed", "7"]
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == COUPLE_DIGESTS["reduce", "mc", fmt]


@st.composite
def reducible_walks(draw):
    """A leading attach run of k >= 1, the freeze after it, free steps that
    keep the walk positive, and optionally freezes down to 0."""
    k = draw(st.integers(1, 6))
    signs, s = [1] * k + [-1], k
    for is_attach in draw(st.lists(st.booleans(), max_size=30)):
        step = 1 if is_attach or s == 1 else -1
        signs.append(step)
        s += step
    if draw(st.booleans()):
        signs += [-1] * s
    return ChoiceSequence.from_signs(signs)


def stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue()


@settings(max_examples=60, deadline=None)
@given(
    seq=reducible_walks(),
    seed=st.one_of(st.integers(0, 2**32), st.integers(2**64 - 3, 2**64 + 3)),
    replicas=st.integers(1, 25),
    max_batch=st.integers(1, 6),
)
def test_reduce_mc_bytes_match_the_per_replica_loop_across_batches(
    seq, seed, replicas, max_batch
):
    samples = [couple_reduce(seq, RngStream(seed, i)) for i in range(replicas)]
    rows = [
        {"replica": i, "height_x": s.height_x, "height_xhat": s.height_xhat, "case": None}
        for i, s in enumerate(samples)
    ]
    want_json = json.dumps(
        {"which": "reduce", "mode": "mc", "samples": rows}, sort_keys=True, indent=2
    ) + "\n"
    argv = ["couple", "--which", "reduce", "--seq", seq.text,
            "--replicas", str(replicas), "--seed", str(seed)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forward, "MAX_BATCH", max_batch)
        assert stdout_of(argv) == want_json
        assert stdout_of([*argv, "--format", "csv"]) == csv_loop(samples)


@pytest.mark.parametrize(
    "argv",
    [
        ["simulate", "--seq", "+^100", "--replicas", "1400"],
        ["couple", "--which", "reduce", "--seq", "+^4-+-^2(+-)^15+-^3", "--replicas", "1700"],
    ],
)
def test_mc_bytes_do_not_depend_on_the_batch_cap(argv):
    # default caps: +^100 runs in batches of 655, 655 and 90, and the reduce
    # walk's 42 draws per replica in batches of 1024 and 676
    default = stdout_of([*argv, "--seed", "5"])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(forward, "MAX_BATCH", 7)
        assert stdout_of([*argv, "--seed", "5"]) == default


class TestCompare:
    def test_enumerate_incomparable(self, capsys):
        code, out, _ = run_cli(
            capsys, "compare", "--seq", "(+-)^3", "--seq2", "+^3"
        )
        obj = json.loads(out)
        assert obj["verdict"] == "incomparable"
        assert obj["seq_dominates_seq2"] is False
        assert obj["seq2_dominates_seq"] is False

    def test_enumerate_equal(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--seq", "+-+", "--seq2", "+^2-")
        obj = json.loads(out)
        assert obj["verdict"] == "equal"

    def test_mc_verdict(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "compare",
            "--seq",
            "+^3",
            "--seq2",
            "+",
            "--mode",
            "mc",
            "--replicas",
            "20000",
            "--seed",
            "3",
        )
        assert json.loads(out)["verdict"] == "dominates"

    @pytest.mark.parametrize("slack", ["nan", "inf", "-0.01"])
    def test_mc_rejects_bad_slack(self, capsys, slack):
        code, out, err = run_cli(
            capsys, "compare", "--seq", "+^2", "--seq2", "+-+", "--mode", "mc",
            "--replicas", "50", "--slack", slack,
        )
        assert code == 1 and out == ""
        assert "slack must be finite and at least 0" in err

    @pytest.mark.parametrize("slack", ["nan", "-0.01"])
    def test_mc_checks_slack_before_any_replica(self, capsys, monkeypatch, slack):
        monkeypatch.setattr(cli, "run_mc", lambda *a, **k: pytest.fail("run_mc called"))
        code, out, err = run_cli(
            capsys, "compare", "--seq", "+^2", "--seq2", "+-+", "--mode", "mc",
            "--slack", slack,
        )
        assert code == 1 and out == ""
        assert f"slack must be finite and at least 0, got {float(slack)}" in err

    def test_family_floor_search(self, capsys, tmp_path):
        family = tmp_path / "family.txt"
        family.write_text("(+-)^3\n+^3\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "compare", "--n", "3", "--family", str(family)
        )
        obj = json.loads(out)
        assert obj == {"family_size": 2, "min_floor": 2, "n": 3}


class TestReduceAndBound:
    def test_reduce(self, capsys):
        code, out, _ = run_cli(capsys, "reduce", "--seq", "+^2-^2")
        obj = json.loads(out)
        assert obj == {"original": "+^2-^2", "reduced": "+-", "removed_at": 2}

    def test_reduce_to_prefix(self, capsys):
        code, out, _ = run_cli(
            capsys, "reduce", "--seq", "+-+^3-^2", "--to-prefix", "3"
        )
        assert json.loads(out)["result"] == "+^3-^2"

    def test_reduce_unreachable_is_domain_error(self, capsys):
        code, _, err = run_cli(
            capsys, "reduce", "--seq", "(+-)^2", "--to-prefix", "2"
        )
        assert code == 1 and "cannot reach" in err

    def test_bound(self, capsys):
        code, out, _ = run_cli(capsys, "bound", "--mean-sum", "10", "--t", "10")
        obj = json.loads(out)
        assert math.isclose(obj["bound"], math.exp(-10 * (2 * math.log(2) - 1)))

    @pytest.mark.parametrize("mean_sum, t", [("1e-320", "1"), ("1e-300", "1e10")])
    def test_bound_is_json_where_t_over_mean_sum_overflows(self, capsys, mean_sum, t):
        code, out, err = run_cli(capsys, "bound", "--mean-sum", mean_sum, "--t", t)
        assert (code, err) == (0, "")

        def reject(constant):
            raise ValueError(f"{constant} is not JSON")

        bound = json.loads(out, parse_constant=reject)["bound"]
        assert 0 <= bound < 1e-300

    def test_bound_domain_error(self, capsys):
        code, _, err = run_cli(capsys, "bound", "--mean-sum", "-1", "--t", "1")
        assert code == 1

    @pytest.mark.parametrize(
        "mean_sum, t", [("nan", "1"), ("inf", "1"), ("1", "nan"), ("1", "inf")]
    )
    def test_bound_rejects_non_finite_input(self, capsys, mean_sum, t):
        code, out, err = run_cli(capsys, "bound", "--mean-sum", mean_sum, "--t", t)
        assert code == 1 and out == ""
        assert "must be finite and positive" in err

    def test_scalar_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys, "bound", "--mean-sum", "4", "--t", "2", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines()[0] == "key,value"
        assert any(line.startswith("bound,") for line in out.splitlines())

    def test_couple_enumerate_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "couple",
            "--which",
            "prop_iii",
            "--n",
            "2",
            "--mode",
            "enumerate",
            "--format",
            "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "law,height,mass_num,mass_den"
        assert "height_x,1,1,18" in lines  # (1/3) * 1/3!
        assert "height_rrt,1,1,2" in lines


class TestTheorem:
    def test_alternating_fraction_is_one(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "theorem",
            "--seq",
            "(+-)^10000",
            "--n",
            "10000",
            "--replicas",
            "60",
            "--seed",
            "1",
            "--threads",
            "4",
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["fraction"] == 1.0
        assert abs(obj["threshold"] - 13.93) < 0.01


class TestErrors:
    def test_usage_error_exit_code(self):
        with pytest.raises(SystemExit) as info:
            main(["simulate"])  # missing --seq
        assert info.value.code == 2

    def test_unknown_subcommand(self):
        with pytest.raises(SystemExit) as info:
            main(["frobnicate"])
        assert info.value.code == 2

    def test_domain_error_exit_code(self, capsys):
        # leading-dash sequence texts need the --seq=TEXT spelling
        code, _, err = run_cli(capsys, "exact", "--seq=-^2")
        assert code == 1
        assert "frostree:" in err

    def test_long_sequence_error_stays_short(self, capsys):
        code, out, err = run_cli(
            capsys, "reduce", "--seq", "(+-)^100000", "--to-prefix", "2"
        )
        assert code == 1 and out == ""
        assert len(err) < 300, len(err)
        assert "cannot reach a leading attach run of 2 from '+-+-" in err
        assert "... (200000 steps)" in err

    @pytest.mark.parametrize("argv", [
        ["exact", "--seq", "(+-)^5000--+"],
        ["simulate", "--seq", "(+-)^5000--+", "--replicas", "1"],
        ["couple", "--which", "reduce", "--seq", "(+-)^5000--+", "--replicas", "1"],
    ])
    def test_invalid_long_sequence_error_stays_short(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 1 and out == ""
        assert len(err) < 300, len(err)
        assert "... (10003 steps) exhausts its active vertices early" in err

    def test_syntax_error_offset(self, capsys):
        code, _, err = run_cli(capsys, "exact", "--seq", "+^x")
        assert code == 1
        assert "offset" in err

    def test_non_ascii_repetition_count_is_a_syntax_error(self, capsys):
        code, out, err = run_cli(capsys, "exact", "--seq", "+^\u00b2")
        assert code == 1 and out == ""
        assert "expected repetition count after '^' (at offset 2)" in err


def test_console_script_subprocess():
    result = subprocess.run(
        [sys.executable, "-m", "frostree.cli", "bound", "--mean-sum", "4", "--t", "2"],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0
    assert json.loads(result.stdout)["bound"] > 0
