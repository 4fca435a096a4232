import argparse
import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.galoistools import gf_gcd, gf_strip

import eulerseq
from eulerseq import complexity, sequences, verify
from eulerseq.cli import main
from eulerseq.complexity import kerror_lc_bruteforce, profile_entries
from eulerseq.quotients import PrimePowerModulus
from eulerseq.sequences import PeriodicSequence, binary_class_sequence, read_sequence


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestGenerate:
    def test_class_sequence_to_file(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        code, stdout, _ = run(
            capsys, "generate", "--p", "3", "--r", "2", "--kind", "class",
            "--I", "0", "--out", str(out),
        )
        assert code == 0
        assert "period 27 weight 6" in stdout
        header = out.read_text().splitlines()[0]
        assert header == "seq 2 27 p=3 r=2 kind=class"

    def test_class_sequence_to_stdout(self, capsys):
        code, stdout, stderr = run(
            capsys, "generate", "--p", "3", "--r", "2", "--kind", "class", "--I", "0"
        )
        assert code == 0
        assert stderr == "period 27 weight 6\n"
        seq = binary_class_sequence(PrimePowerModulus(3, 2), {0})
        assert read_sequence(io.StringIO(stdout)) == (
            seq, {"p": 3, "r": 2, "kind": "class"}
        )

    def test_level_sequence(self, tmp_path, capsys):
        out = tmp_path / "lvl.txt"
        code, stdout, _ = run(
            capsys, "generate", "--p", "3", "--r", "2", "--kind", "level",
            "--j", "1", "--out", str(out),
        )
        assert code == 0
        assert "period 27" in stdout
        assert out.read_text().startswith("seq 3 27 ")

    def test_threshold_r1(self, tmp_path, capsys):
        out = tmp_path / "t.txt"
        code, stdout, _ = run(
            capsys, "generate", "--p", "3", "--r", "1", "--kind", "threshold",
            "--out", str(out),
        )
        assert code == 0
        assert out.read_text().startswith("seq 2 9 ")

    @pytest.mark.parametrize("target", ["missing_dir", "directory"])
    def test_unwritable_out_exits_2(self, tmp_path, capsys, target):
        out = tmp_path / "no" / "x.txt" if target == "missing_dir" else tmp_path
        code, stdout, stderr = run(
            capsys, "generate", "--p", "3", "--r", "2", "--kind", "class",
            "--I", "0", "--out", str(out),
        )
        assert code == 2
        assert stdout == ""
        assert stderr.startswith(f"error: {out}: ")

    def test_invalid_p(self, capsys):
        code, _, stderr = run(
            capsys, "generate", "--p", "4", "--r", "1", "--kind", "threshold"
        )
        assert code == 2
        assert "odd prime" in stderr

    def test_missing_index_set(self, capsys):
        code, _, stderr = run(
            capsys, "generate", "--p", "3", "--r", "2", "--kind", "class"
        )
        assert code == 2
        assert "--I" in stderr


# the options each kind reads besides --I, and the kinds that read --I
KIND_OPTIONS = {
    "class": [],
    "balanced": [],
    "threshold": [],
    "level": ["--j", "1"],
    "mary": ["--order", "2"],
    "fermat-order": ["--i", "2"],
}
READS_I = {"class", "balanced", "fermat-order"}


class TestKindOptions:
    @pytest.mark.parametrize("command", ["generate", "analyze"])
    @pytest.mark.parametrize("kind,given,message", [
        # each kind given every option but its own: threshold reads none
        ("class", ["--j", "1", "--order", "2", "--i", "2"], "kind=class requires --I"),
        ("balanced", ["--j", "1", "--order", "2", "--i", "2"],
         "kind=balanced requires --I"),
        ("threshold", ["--j", "1", "--order", "2", "--i", "2", "--I", "0"], None),
        ("level", ["--order", "2", "--i", "2", "--I", "0"], "kind=level requires --j"),
        ("mary", ["--j", "1", "--i", "2", "--I", "0"], "kind=mary requires --order"),
        ("fermat-order", ["--j", "1", "--order", "2"],
         "kind=fermat-order requires --i and --I"),
        ("fermat-order", ["--i", "2"], "kind=fermat-order requires --i and --I"),
        ("fermat-order", ["--I", "0"], "kind=fermat-order requires --i and --I"),
    ])
    def test_missing_option(self, capsys, command, kind, given, message):
        code, stdout, stderr = run(
            capsys, command, "--p", "3", "--r", "2", "--kind", kind, *given
        )
        if message is None:
            assert code == 0
        else:
            assert (code, stdout, stderr) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("kind", list(KIND_OPTIONS))
    def test_I_reported_only_where_read(self, capsys, kind):
        code, stdout, _ = run(
            capsys, "analyze", "--p", "3", "--r", "2", "--kind", kind,
            *KIND_OPTIONS[kind], "--I", "1", "0", "--format", "json",
        )
        assert code == 0
        expected = {"p": 3, "r": 2, "kind": kind}
        if kind in READS_I:
            expected["I"] = [0, 1]
        assert json.loads(stdout)["sequence"] == expected


class TestAnalyze:
    def test_level_sequence_lc(self, capsys):
        code, stdout, _ = run(
            capsys, "analyze", "--p", "3", "--r", "2", "--kind", "level", "--j", "1"
        )
        assert code == 0
        assert "linear complexity: 11" in stdout

    def test_class_profile_json(self, capsys):
        code, stdout, _ = run(
            capsys, "analyze", "--p", "3", "--r", "2", "--kind", "class",
            "--I", "0", "--k-max", "6", "--format", "json",
        )
        assert code == 0
        doc = json.loads(stdout)
        assert list(doc) == ["sequence", "lc", "method", "kerror"]
        assert list(doc["sequence"]) == ["p", "r", "kind", "I"]
        assert doc["kerror"][3] == {"k": 3, "lc": 19, "exact": True}
        assert doc["lc"] == 20
        assert [e["lc"] for e in doc["kerror"]] == [20, 20, 20, 19, 19, 19, 0]
        assert all(e["exact"] for e in doc["kerror"])

    def test_class_profile_past_theorem_hypothesis(self, capsys):
        # 2 is not primitive mod 49, yet period 7^5 = 16,807 takes the
        # structural engine: every entry up to the weight 2058 is exact, and
        # its LC_0 agrees with the bitmask gcd
        code, stdout, stderr = run(
            capsys, "analyze", "--p", "7", "--r", "4", "--kind", "class",
            "--I", "0", "--k-max", "2058", "--format", "json",
        )
        assert code == 0, stderr
        doc = json.loads(stdout)
        assert len(doc["kerror"]) == 2059
        assert all(e["exact"] for e in doc["kerror"])
        assert doc["kerror"][0]["lc"] == doc["lc"]
        assert doc["kerror"][-1]["lc"] == 0

    def test_json_method_names_engine(self, capsys):
        _, binary, _ = run(
            capsys, "analyze", "--p", "3", "--r", "2", "--kind", "class",
            "--I", "0", "--format", "json",
        )
        _, ternary, _ = run(
            capsys, "analyze", "--p", "3", "--r", "2", "--kind", "level",
            "--j", "1", "--format", "json",
        )
        _, mary, _ = run(
            capsys, "analyze", "--p", "7", "--r", "2", "--kind", "mary",
            "--order", "3", "--format", "json",
        )
        # period 3^3 over F_2 and period 7^3 over F_3: the cyclotomic engine
        assert json.loads(binary)["method"] == "cyclotomic"
        assert json.loads(binary)["lc"] == 20
        assert json.loads(ternary)["method"] == "games_chan"
        assert json.loads(ternary)["lc"] == 11
        assert json.loads(mary)["method"] == "cyclotomic"
        assert json.loads(mary)["lc"] == 42

    def test_class_profile_outside_theorem(self, capsys):
        # |I| = 2 > (p-1)/2 = 1: no theorem profile, the k-error engine answers
        code, stdout, stderr = run(
            capsys, "analyze", "--p", "3", "--r", "2", "--kind", "class",
            "--I", "0", "1", "--k-max", "2", "--format", "json",
        )
        assert code == 0, stderr
        doc = json.loads(stdout)
        f = binary_class_sequence(PrimePowerModulus(3, 2), {0, 1})
        assert doc["kerror"] == [
            {"k": k, "lc": lc, "exact": exact}
            for k, lc, exact in profile_entries(kerror_lc_bruteforce(f, 2), 2)
        ]

    def test_file_not_the_class_sequence(self, tmp_path, capsys):
        # a class file for I = {1} analyzed as I = {0}: input from outside
        # the program is checked against the class sequence it claims to be
        f = tmp_path / "s.txt"
        run(
            capsys, "generate", "--p", "3", "--r", "2", "--kind", "class",
            "--I", "1", "--out", str(f),
        )
        code, stdout, stderr = run(
            capsys, "analyze", "--file", str(f), "--I", "0", "--k-max", "6"
        )
        assert code == 2
        assert stdout == ""
        assert "not the binary class sequence" in stderr

    def test_file_period_not_the_headers(self, tmp_path, capsys):
        # the header names the class sequence of period 3^501; the file's
        # period 9 is compared with it before that sequence is built
        f = tmp_path / "r500.txt"
        f.write_text("seq 2 9 p=3 r=500 kind=class\n0 1 1 0 1 0 0 1 0\n")
        code, stdout, stderr = run(
            capsys, "analyze", "--file", str(f), "--I", "0", "--k-max", "1"
        )
        assert code == 2
        assert stdout == ""
        assert stderr.startswith(f"error: {f}: ")

    def test_file_and_inline_agree(self, tmp_path, capsys):
        f = tmp_path / "s.txt"
        spec = ["--p", "5", "--r", "2", "--kind", "class", "--I", "0", "1"]
        profile = ["--k-max", "40", "--format", "json"]
        run(capsys, "generate", *spec, "--out", str(f))
        code, from_file, _ = run(
            capsys, "analyze", "--file", str(f), "--I", "0", "1", *profile
        )
        assert code == 0
        code, inline, _ = run(capsys, "analyze", *spec, *profile)
        assert code == 0
        assert from_file == inline

    @pytest.mark.parametrize(
        "kind_args", [["--kind", "threshold"], ["--kind", "level", "--j", "1"]]
    )
    def test_sequence_omits_unread_I(self, kind_args, capsys):
        # threshold and level sequences ignore I, so the report leaves it out
        code, stdout, _ = run(
            capsys, "analyze", "--p", "3", "--r", "2", *kind_args, "--I", "0",
            "--format", "json",
        )
        assert code == 0
        assert list(json.loads(stdout)["sequence"]) == ["p", "r", "kind"]

    def test_contradicted_theorem_exits_1(self, monkeypatch, capsys):
        # the theorem's breakpoints at (3,2), |I| = 1, are ((0, 20), (3, 19),
        # (6, 0)): moving the first drop to 4 predicts 20 at k = 3, where the
        # engine computes 19; the breakpoint comparison and the value it
        # names at the first bad k both read the patched breakpoints
        monkeypatch.setattr(
            complexity, "_theorem_steps", lambda m, size: ((0, 20), (4, 19), (6, 0))
        )
        code, stdout, stderr = run(
            capsys, "analyze", "--p", "3", "--r", "2", "--kind", "class",
            "--I", "0", "--k-max", "6",
        )
        assert code == 1
        assert stdout == ""
        assert stderr == (
            "FAIL: computed LC_3 = 19 contradicts predicted 20 at (p=3, r=2, I=[0])\n"
        )

    def test_lc0_disagreement_exits_1(self, monkeypatch, capsys):
        real = complexity.kerror_lc_profile

        def off_by_one_lc0(seq, k_max, budget):
            (k, lc, exact), *rest = real(seq, k_max, budget)
            return [(k, lc + 1, exact), *rest]

        monkeypatch.setattr(complexity, "kerror_lc_profile", off_by_one_lc0)
        code, stdout, stderr = run(
            capsys, "analyze", "--p", "3", "--r", "2", "--kind", "threshold",
            "--k-max", "3",
        )
        assert code == 1
        assert stdout == ""
        assert stderr == (
            "FAIL: k-error engine LC_0 = 25 contradicts LC = 24 from cyclotomic\n"
        )

    def test_missing_file(self, tmp_path, capsys):
        missing = tmp_path / "nonexistent.txt"
        code, _, stderr = run(capsys, "analyze", "--file", str(missing))
        assert code == 2
        assert stderr.startswith(f"error: {missing}: ")

    def test_non_prime_alphabet_file(self, tmp_path, capsys):
        f = tmp_path / "m4.txt"
        code, _, _ = run(
            capsys, "generate", "--p", "5", "--r", "1", "--kind", "mary",
            "--order", "4", "--out", str(f),
        )
        assert code == 0
        assert f.read_text().startswith("seq 4 25 ")
        code, _, stderr = run(capsys, "analyze", "--file", str(f))
        assert code == 2
        assert stderr.startswith(f"error: {f}: alphabet size 4 is not prime")

    def test_non_prime_alphabet_inline(self, capsys):
        code, _, stderr = run(
            capsys, "analyze", "--p", "5", "--r", "1", "--kind", "mary", "--order", "4"
        )
        assert code == 2
        assert "alphabet size 4 is not prime" in stderr
        assert "prime field" in stderr

    def test_non_binary_k_max(self, capsys):
        # the k-error engine's own check answers, not a second one in the CLI
        code, stdout, stderr = run(
            capsys, "analyze", "--p", "3", "--r", "2", "--kind", "level",
            "--j", "1", "--k-max", "2",
        )
        assert (code, stdout) == (2, "")
        assert stderr == "error: binary sequence required\n"

    def test_negative_k_max(self, capsys):
        code, stdout, stderr = run(
            capsys, "analyze", "--p", "3", "--r", "2", "--kind", "class",
            "--I", "0", "--k-max", "-3",
        )
        assert code == 2
        assert stdout == ""
        assert "--k-max" in stderr

    def test_negative_budget(self, capsys):
        # a usage error whichever engine the period picks
        for budget in ("-5", "-1"):
            code, stdout, stderr = run(
                capsys, "analyze", "--p", "7", "--r", "2", "--kind", "class",
                "--I", "0", "--k-max", "1", "--budget", budget,
            )
            assert (code, stdout) == (2, "")
            assert stderr == f"error: --budget must be >= 0, got {budget}\n"

    def test_default_budget(self, monkeypatch, capsys):
        # the parser's default is None; analyze reads the engine's default
        # when it runs
        real = complexity.kerror_lc_profile
        budgets = []

        def recording(seq, k_max, budget):
            budgets.append(budget)
            return real(seq, k_max, budget)

        monkeypatch.setattr(complexity, "kerror_lc_profile", recording)
        code, _, _ = run(
            capsys, "analyze", "--p", "3", "--r", "2", "--kind", "threshold",
            "--k-max", "5",
        )
        assert code == 0
        assert budgets == [complexity.DEFAULT_PATTERN_BUDGET]

    def test_k_max_up_to_the_period(self, tmp_path, capsys):
        argv = ["--p", "3", "--r", "2", "--kind", "class", "--I", "0", "--format", "json"]
        code, stdout, _ = run(capsys, "analyze", *argv, "--k-max", "27")
        assert code == 0
        assert json.loads(stdout)["kerror"][-1] == {"k": 27, "lc": 0, "exact": True}
        code, stdout, stderr = run(capsys, "analyze", *argv, "--k-max", "28")
        assert (code, stdout) == (2, "")
        assert "k_max must lie in [0, 27], got 28" in stderr
        f = tmp_path / "s.txt"
        run(capsys, "generate", *argv[:-2], "--out", str(f))
        code, stdout, stderr = run(
            capsys, "analyze", "--file", str(f), "--I", "0", "--k-max", "28"
        )
        assert (code, stdout) == (2, "")
        assert stderr.startswith(f"error: {f}: k_max must lie in [0, 27]")

    def test_file_round_trip(self, tmp_path, capsys):
        out = tmp_path / "s.txt"
        run(
            capsys, "generate", "--p", "3", "--r", "2", "--kind", "class",
            "--I", "0", "--out", str(out),
        )
        code, stdout, _ = run(
            capsys, "analyze", "--file", str(out), "--format", "json"
        )
        assert code == 0
        assert json.loads(stdout)["lc"] == 20

    def test_all_zero_file(self, tmp_path, capsys):
        f = tmp_path / "z.txt"
        f.write_text("seq 2 5 p=3 r=1 kind=class\n0 0 0 0 0\n")
        code, stdout, _ = run(capsys, "analyze", "--file", str(f))
        assert code == 0
        assert "linear complexity: 0" in stdout

    def test_f17_file_takes_the_packed_euclid(self, tmp_path, capsys):
        # period 30 is not a power of 17: the packed Euclid on 16-bit lanes,
        # checked against sympy's gf_gcd, LC = 30 - deg gcd(X^30 - 1, S(X))
        rng = random.Random(17)
        symbols = [rng.randrange(17) for _ in range(30)]
        f = tmp_path / "f17.txt"
        with f.open("w") as fh:
            sequences.write_sequence(fh, PeriodicSequence(17, 30, symbols), 3, 1, "mary")
        code, stdout, _ = run(capsys, "analyze", "--file", str(f), "--format", "json")
        gcd = gf_gcd([1] + [0] * 29 + [16], gf_strip(symbols[::-1]), 17, ZZ)
        assert code == 0
        assert json.loads(stdout)["method"] == "packed_gcd"
        assert json.loads(stdout)["lc"] == 30 - (len(gcd) - 1)

    def test_period_1_file_past_every_array_type(self, tmp_path, capsys):
        # alphabet 2^64 + 13, a prime whose symbols fit no array type
        f = tmp_path / "big.txt"
        f.write_text("seq 18446744073709551629 1 p=3 r=1 kind=mary\n18446744073709551628\n")
        code, stdout, _ = run(capsys, "analyze", "--file", str(f), "--format", "json")
        assert code == 0
        assert stdout == ('{"sequence": {"p": 3, "r": 1, "kind": "mary"}, "lc": 1, '
                          '"method": "games_chan", "kerror": []}\n')

    @pytest.mark.parametrize("text,message", [
        ("", "empty file"),
        ("seq 2 x p=3 r=1 kind=class\n0 1 1\n", "bad header numbers"),
        ("seq 2 3 p=x r=1 kind=class\n0 1 1\n", "bad header numbers"),
        ("seq 2 3 q=3 r=1 kind=class\n0 1 1\n", "bad header field: 'q=3'"),
        # p twice leaves r missing
        ("seq 2 27 p=3 p=3 kind=class\n" + "0 " * 27 + "\n", "bad header field: 'p=3'"),
    ])
    def test_bad_header(self, tmp_path, capsys, text, message):
        f = tmp_path / "bad.txt"
        f.write_text(text)
        code, stdout, stderr = run(
            capsys, "analyze", "--file", str(f), "--I", "0", "--k-max", "1"
        )
        assert (code, stdout) == (2, "")
        assert stderr.startswith(f"error: {f}: line 1: {message}")

    def test_no_sequence_given(self, capsys):
        code, stdout, stderr = run(capsys, "analyze", "--k-max", "1")
        assert (code, stdout) == (2, "")
        assert "needs --p and --kind (or use --file)" in stderr

    @pytest.mark.parametrize("order,message", [
        ([], "kind=mary requires --order"),
        (["--order", "1"], "character order must be > 1, got 1"),
    ])
    def test_mary_order(self, capsys, order, message):
        code, stdout, stderr = run(
            capsys, "analyze", "--p", "5", "--r", "1", "--kind", "mary", *order
        )
        assert (code, stdout) == (2, "")
        assert stderr == f"error: {message}\n"

    def test_malformed_file(self, tmp_path, capsys):
        f = tmp_path / "bad.txt"
        f.write_text("seq 2 3 p=3 r=1 kind=class\n0 x 1\n")
        code, _, stderr = run(capsys, "analyze", "--file", str(f))
        assert code == 2
        assert "line 2" in stderr

    def test_budget_exceeded_partial_report(self, tmp_path, capsys):
        # period 961 = 31^2: the cyclic codes of length 31 have up to 2^26
        # words, past the structural engine's cap, so k-error LC comes from
        # budgeted exhaustive search, which covers k <= 1 (962 patterns)
        # within 1000
        f = tmp_path / "s.txt"
        run(
            capsys, "generate", "--p", "31", "--r", "1", "--kind", "class",
            "--I", "0", "--out", str(f),
        )
        code, stdout, _ = run(
            capsys, "analyze", "--file", str(f), "--k-max", "3",
            "--budget", "1000", "--format", "json",
        )
        assert code == 0
        doc = json.loads(stdout)
        assert [e["exact"] for e in doc["kerror"]] == [True, True, False, False]
        # inexact entries carry LC_1, reached with one error: an upper bound
        lc1 = doc["kerror"][1]["lc"]
        assert [e["lc"] for e in doc["kerror"][2:]] == [lc1, lc1]


def exit_code(argv) -> int:
    """cli.main's exit code, its output discarded."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        return main(argv)


small_ints = st.integers(-1, 5)
index_sets = st.lists(small_ints.map(str), min_size=1, max_size=3)


@st.composite
def sequence_files(draw):
    """A sequence file: a genuine class sequence under its theorem-valid
    header, or small contents under a header whose p, r and kind come from
    small sets, r = 500 among them. Most files parse, so that the draws
    reach the analysis; the rest hold a wrong count, a symbol outside the
    alphabet, a header field repeated, missing or unknown, or nothing."""
    if draw(st.booleans()):
        p, r = draw(st.sampled_from([(3, 2), (5, 2)]))
        levels = draw(st.sets(st.integers(0, p - 1), min_size=1))
        seq = binary_class_sequence(PrimePowerModulus(p, r), levels)
        alphabet, period, kind = 2, seq.period, "class"
        symbols = list(seq.symbols)
    else:
        alphabet = draw(st.sampled_from([2, 2, 3, 1]))
        period = draw(st.integers(0, 30))
        p = draw(st.sampled_from([3, 5, 4]))
        r = draw(st.sampled_from([500, 1, 2]))
        kind = draw(st.sampled_from(["class", "level", "threshold"]))
        count = draw(st.sampled_from([period, period, period + 1]))
        top = draw(st.sampled_from([alphabet - 1, alphabet - 1, alphabet]))
        symbols = draw(st.lists(st.integers(0, top), min_size=count, max_size=count))
    fields = [f"p={p}", f"r={r}", f"kind={kind}"]
    fault = draw(st.sampled_from([None, None, "repeated", "missing", "unknown", "empty"]))
    if fault == "empty":
        return ""
    if fault == "repeated":  # p twice and no r
        fields[1] = fields[0]
    elif fault == "missing":
        del fields[draw(st.integers(0, 2))]
    elif fault == "unknown":
        fields[draw(st.integers(0, 2))] = "q=1"
    header = " ".join(["seq", str(alphabet), str(period), *fields])
    return header + "\n" + " ".join(map(str, symbols)) + "\n"


options = st.fixed_dictionaries({
    "--k-max": st.sampled_from(["1", "2", "0", "-1"]),
    "--budget": st.sampled_from(["1000", "1"]),
    "--format": st.sampled_from(["text", "json"]),
})


class TestExitCodeContract:
    """No input ends in a traceback: every exit code is 0, 1 or 2. Drawn
    values keep periods small, so no draw allocates much."""

    @settings(max_examples=200, deadline=None)
    @given(sequence_files(), options, st.one_of(st.just(["0"]), st.none(), index_sets))
    def test_fuzzed_sequence_files(self, text, opts, levels):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "seq.txt"
            path.write_text(text)
            argv = ["analyze", "--file", str(path)]
            argv += [x for kv in opts.items() for x in kv]
            if levels:
                argv += ["--I", *levels]
            assert exit_code(argv) in (0, 1, 2)

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(["1", "2", "3", "4", "5"]),
        st.integers(0, 3),
        st.sampled_from(
            ["class", "balanced", "threshold", "level", "mary", "fermat-order"]
        ),
        st.fixed_dictionaries({}, optional={
            "--I": index_sets,
            "--j": small_ints.map(str),
            "--i": st.integers(-1, 3).map(str),
            "--order": small_ints.map(str),
        }),
        options,
    )
    def test_fuzzed_analyze_argv(self, p, r, kind, kind_args, opts):
        argv = ["analyze", "--p", p, "--r", str(r), "--kind", kind]
        for key, value in {**kind_args, **opts}.items():
            argv += [key, *value] if isinstance(value, list) else [key, value]
        assert exit_code(argv) in (0, 1, 2)


    # p^{r+1} at r = 100 (or p^{i+1} at i = 100), or at p = 10^18 + 3,
    # overflows an index while the period's list is sized, which each
    # sequence kind does before any per-unit or per-class work
    @pytest.mark.parametrize("argv", [
        "generate --p 3 --r 100 --kind threshold",
        "generate --p 3 --r 100 --kind mary --order 2",
        "generate --p 3 --r 100 --kind level --j 99",
        "generate --p 3 --r 100 --kind balanced --I 0",
        "analyze --p 3 --r 100 --kind class --I 0",
        "partition --p 3 --r 100 --summary",
        "verify --suite theorem-hh --p 3 --r 100",
        "generate --p 3 --kind fermat-order --i 100 --I 0",
        "verify --suite klc --p 1000000000000000003 --r 2",
        "generate --p 1000000000000000003 --kind class --I 0",
        "partition --p 1000000000000000003 --r 1 --summary",
    ])
    def test_absurd_sizes_exit_2(self, argv, capsys):
        code, stdout, stderr = run(capsys, *argv.split())
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: period too large to build (OverflowError")
        assert "Traceback" not in stderr

    def test_out_of_memory_exits_2(self, monkeypatch, capsys):
        # the builder sizes the period's buffer before anything else; there
        # (1000003, 2) would ask for 1e18 bytes, and the stub raises instead
        sized = []

        def out_of_memory(period, fill, wide):
            sized.append(period)
            raise MemoryError

        monkeypatch.setattr(sequences, "_period_buffer", out_of_memory)
        code, stdout, stderr = run(
            capsys, "generate", "--p", "1000003", "--r", "2", "--kind", "threshold"
        )
        assert sized == [1000003**3]
        assert code == 2
        assert stdout == ""
        assert stderr == "error: period too large to build (MemoryError)\n"

    @pytest.mark.parametrize("argv", [
        "generate --p 1000003 --kind class --I 0",
        "partition --p 1000003 --r 1 --summary",
    ])
    def test_no_per_class_table_before_the_period(self, argv, monkeypatch, capsys):
        # a table with one entry per class, p of them, made before the
        # period's buffer is sized would take 8 MB here, and at p = 10^18 + 3
        # it fills memory before the builder can refuse the period
        traced = []

        def out_of_memory(period, fill, wide):
            traced.append(tracemalloc.get_traced_memory()[0])
            raise MemoryError

        monkeypatch.setattr(sequences, "_period_buffer", out_of_memory)
        tracemalloc.start()
        try:
            code, stdout, stderr = run(capsys, *argv.split())
        finally:
            tracemalloc.stop()
        assert len(traced) == 1 and traced[0] < 2**20
        assert (code, stdout) == (2, "")
        assert stderr == "error: period too large to build (MemoryError)\n"


class TestVerify:
    def test_help_lists_the_suites(self, capsys):
        # the parser holds the suite names without importing verify
        code, stdout, _ = run_or_exit(capsys, ["verify", "--help"])
        assert code == 0
        listed = re.search(r"--suite \{([^}]*)\}", stdout).group(1)
        assert listed.split(",") == sorted(verify.SUITES)

    @pytest.mark.parametrize("suite", ["theorem-hh", "hh-period", "q-r-s", "lc-p"])
    def test_suites_pass(self, suite, capsys):
        code, stdout, _ = run(capsys, "verify", "--suite", suite, "--p", "3", "--r", "2")
        assert code == 0
        assert "PASS" in stdout and "FAIL" not in stdout

    def test_lemmas_suite(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--suite", "lemmas", "--p", "5", "--r", "2")
        assert code == 0
        assert stdout.count("PASS") == 2

    def test_lemmas_suite_refuses_p_past_cap(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--suite", "lemmas", "--p", "19", "--r", "2")
        assert code == 0
        assert stdout.count("PASS") == 2 and "refused" not in stdout
        assert "PASS G(X) uniqueness at p=19\n" in stdout
        # 16411 is prime and past the size guard
        code, stdout, _ = run(capsys, "verify", "--suite", "lemmas", "--p", "16411", "--r", "1")
        assert code == 0
        assert (
            "PASS G(X) uniqueness at p=16411 — refused: the Berlekamp matrix of "
            f"Phi_p needs p <= {complexity._POLY_P_CAP}, got p=16411\n"
        ) in stdout

    def test_lemmas_suite_fails_when_phi_p_splits(self, monkeypatch, capsys):
        monkeypatch.setattr(complexity, "_cyclotomic_factor_count", lambda p: 2)
        code, stdout, _ = run(capsys, "verify", "--suite", "lemmas", "--p", "5", "--r", "2")
        assert code == 1
        assert stdout.splitlines() == [
            "PASS root-group lemmas at (p=5, r=2)",
            "FAIL G(X) uniqueness at p=5",
        ]

    def test_klc_refusal_p7(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--suite", "klc", "--p", "7", "--r", "2")
        assert code == 0
        assert stdout.startswith("PASS klc at (p=7, r=2) — refused: ")
        assert "2 is not a primitive root modulo 7^2" in stdout

    def test_klc_refusal_r1(self, capsys):
        # every failed precondition gives the same refusal line, exit 0
        code, stdout, _ = run(capsys, "verify", "--suite", "klc", "--p", "3", "--r", "1")
        assert code == 0
        assert stdout.startswith("PASS klc at (p=3, r=1) — refused: ")
        assert "needs r >= 2" in stdout

    @pytest.mark.parametrize("p,weight", [(3, 6), (5, 20)])
    def test_klc_suite_matches_theorem(self, p, weight):
        assert verify.suite_klc(p, 2) == [(
            f"klc at (p={p}, r=2)",
            True,
            f"profile for k <= {weight} matches ({weight + 1}/{weight + 1} entries exact)",
        )]

    def test_klc_contradiction_exits_1(self, monkeypatch, capsys):
        real = verify.kerror_lc_profile

        def off_by_one_lc3(seq, k_max):
            # the breakpoints at (3,2) are (0, 20), (3, 19), (6, 0): moving
            # the drop at k = 3 to k = 4 makes LC_3 one more
            profile = real(seq, k_max)
            k, lc, exact = profile[1]
            profile[1] = (k + 1, lc, exact)
            return profile

        monkeypatch.setattr(verify, "kerror_lc_profile", off_by_one_lc3)
        code, stdout, _ = run(capsys, "verify", "--suite", "klc", "--p", "3", "--r", "2")
        assert code == 1
        assert stdout == (
            "FAIL klc at (p=3, r=2) — computed LC_3 = 20 contradicts "
            "predicted 19 at (p=3, r=2, I=[0])\n"
        )

    @pytest.mark.parametrize("suite,p,r,message", [
        ("q-r-s", 9, 1, "p must be an odd prime, got 9"),
        ("lemmas", 9, 1, "p must be an odd prime, got 9"),
        ("lemmas", 3, 0, "r must be >= 1, got 0"),
    ])
    def test_invalid_modulus_exits_2(self, capsys, suite, p, r, message):
        # (p, r) is checked before a suite calls itself vacuous for r < 2
        code, stdout, stderr = run(
            capsys, "verify", "--suite", suite, "--p", str(p), "--r", str(r)
        )
        assert (code, stdout, stderr) == (2, "", f"error: {message}\n")

    def test_shift_law_violation_exits_1(self, monkeypatch, capsys):
        real = verify.quotient_table

        def off_at_one(m):  # H(1) + 1 breaks the law at v = 1 for k = 1..p-1
            table = real(m)
            table[1] += m.p ** (m.r - 1)  # H is the top digit of Q_r
            return table

        monkeypatch.setattr(verify, "quotient_table", off_at_one)
        code, stdout, _ = run(
            capsys, "verify", "--suite", "theorem-hh", "--p", "3", "--r", "2"
        )
        assert code == 1
        assert stdout == "FAIL shift law at (p=3, r=2) — 2 violations\n"

    # the suite calls both engines by their names in verify, so either one
    # perturbed there must fail every trial
    @pytest.mark.parametrize("name", ["berlekamp_massey", "lc_via_gcd"])
    def test_oracle_disagreement_exits_1(self, monkeypatch, capsys, name):
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda *args: real(*args) + 1)
        code, stdout, _ = run(capsys, "verify", "--suite", "oracles")
        assert code == 1
        assert stdout == (
            "FAIL oracle equivalence (100 random sequences, seed=0) — 100 disagreements\n"
        )

    def test_oracles_seeded(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--suite", "oracles", "--seed", "5")
        assert code == 0
        assert "seed=5" in stdout

    def test_unknown_suite_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "bogus"])
        assert exc.value.code == 2


class TestPartition:
    def test_summary(self, capsys):
        code, stdout, _ = run(capsys, "partition", "--p", "3", "--r", "2", "--summary")
        assert code == 0
        assert "|D_l| = [6, 6, 6], |P| = 9" in stdout

    def test_json_summary(self, capsys):
        code, stdout, _ = run(
            capsys, "partition", "--p", "3", "--r", "2", "--format", "json", "--summary"
        )
        assert code == 0
        assert json.loads(stdout) == {
            "p": 3, "r": 2, "class_sizes": [6, 6, 6], "multiples_size": 9,
        }

    def test_text_listing(self, capsys):
        code, stdout, _ = run(capsys, "partition", "--p", "3", "--r", "1")
        assert code == 0
        assert stdout == "D_0: 1 8\nD_1: 2 7\nD_2: 4 5\nP: 0 3 6\n"

    def test_json_listing_covers_everything(self, capsys):
        code, stdout, _ = run(
            capsys, "partition", "--p", "3", "--r", "2", "--format", "json"
        )
        assert code == 0
        doc = json.loads(stdout)
        union = set(doc["multiples"])
        for c in doc["classes"]:
            union |= set(c)
        assert union == set(range(27))
        assert 2 in doc["classes"][2]


def run_or_exit(capsys, argv):
    """cli.main's (exit code, stdout, stderr), a SystemExit's code included."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_fresh(argv, columns, command=("-m", "eulerseq.cli")):
    """(exit code, stdout, stderr) of `python <command> <argv>` in a new process,
    `python -m eulerseq.cli <argv>` by default."""
    src = str(Path(eulerseq.__file__).parents[1])
    env = dict(
        os.environ, COLUMNS=columns, PYTHONIOENCODING="utf-8",
        PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]),
    )
    done = subprocess.run(
        [sys.executable, *command, *argv],
        capture_output=True, encoding="utf-8", timeout=120, env=env,
    )
    return done.returncode, done.stdout, done.stderr


# cli.main(argv) in a new process, which then prints every module it has
# loaded to stderr
LIST_MODULES = """
import sys
from eulerseq import cli
try:
    code = cli.main(sys.argv[1:])
except SystemExit as exc:
    code = exc.code
print(*sorted(sys.modules), file=sys.stderr)
sys.exit(code)
"""


class TestModulesLoaded:
    """Each command imports only the modules it runs."""

    @staticmethod
    def loaded(argv) -> set[str]:
        code, _, stderr = run_fresh(argv, "80", command=("-c", LIST_MODULES))
        assert code == 0, stderr
        return set(stderr.split())

    @staticmethod
    def package(modules) -> set[str]:
        return {m for m in modules if m.split(".")[0] == "eulerseq"}

    def test_help_loads_only_the_cli(self):
        modules = self.loaded(["--help"])
        assert self.package(modules) == {"eulerseq", "eulerseq.cli"}
        assert not modules & {"json", "dataclasses"}

    def test_builders_load_no_engine(self, tmp_path):
        engines = {"eulerseq.complexity", "eulerseq.verify", "eulerseq.fieldarith"}
        for argv in (
            ["generate", "--p", "3", "--r", "2", "--kind", "class", "--I", "0",
             "--out", str(tmp_path / "c.txt")],
            ["partition", "--p", "3", "--r", "2", "--summary"],
        ):
            modules = self.package(self.loaded(argv))
            assert "eulerseq.sequences" in modules, argv
            assert not modules & engines, argv

    def test_analyze_loads_no_suite(self):
        modules = self.package(self.loaded(
            ["analyze", "--p", "3", "--r", "2", "--kind", "class", "--I", "0",
             "--k-max", "3"]
        ))
        assert "eulerseq.complexity" in modules
        assert "eulerseq.verify" not in modules


class TestRepeatedCalls:
    """cli.main builds its argument parser once per process and reuses it."""

    def test_parser_built_once(self, tmp_path, monkeypatch, capsys):
        argvs = [
            ["generate", "--p", "3", "--r", "2", "--kind", "class", "--I", "0",
             "--out", str(tmp_path / "c.txt")],
            ["analyze", "--p", "3", "--r", "2", "--kind", "level", "--j", "1"],
            ["verify", "--suite", "hh-period"],
            ["partition", "--p", "3", "--r", "1"],
        ]
        first = [run(capsys, *argv) for argv in argvs]  # the first call builds the parser

        def rebuild(*args, **kwargs):
            raise AssertionError("cli.main rebuilt its argument parser")

        monkeypatch.setattr(argparse.ArgumentParser, "add_argument", rebuild)
        for argv, before in zip(argvs, first):
            assert before[0] == 0, before
            assert run(capsys, *argv) == before

    def test_calls_carry_no_state(self, monkeypatch, capsys):
        # each argv would show what an earlier one left behind: k-error
        # entries or level indices of the first analyze, the error state of
        # a usage error, or the help width of the other COLUMNS
        class_args = ["analyze", "--p", "3", "--r", "2", "--kind", "class"]
        cases = [
            ("80", [*class_args, "--I", "0", "1", "--k-max", "3", "--format", "json"]),
            ("80", [*class_args, "--I", "2", "--format", "json"]),
            ("80", ["analyze", "--bogus"]),
            ("80", ["verify", "--suite", "oracles"]),
            ("80", ["partition", "--p", "3", "--r", "2", "--summary"]),
            ("60", ["--help"]),
            ("150", ["--help"]),
            ("80", ["verify", "--help"]),
            ("80", ["analyze", "--help"]),
        ]
        results = []
        for columns, argv in cases:
            monkeypatch.setenv("COLUMNS", columns)
            result = run_or_exit(capsys, argv)
            assert result == run_fresh(argv, columns), argv
            results.append(result)
        first, second, bogus, oracles, _, narrow, wide, verify_help, analyze_help = results
        assert len(json.loads(first[1])["kerror"]) == 4
        doc = json.loads(second[1])
        assert doc["kerror"] == [] and doc["sequence"]["I"] == [2]
        assert bogus[0] == 2
        assert oracles[0] == 0 and "seed=0" in oracles[1]
        assert narrow[0] == wide[0] == 0 and narrow[1] != wide[1]
        assert verify_help[0] == analyze_help[0] == 0
