import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerseq import complexity, sequences, verify
from eulerseq.cli import main
from eulerseq.complexity import kerror_lc_bruteforce
from eulerseq.quotients import PrimePowerModulus
from eulerseq.sequences import binary_class_sequence, read_sequence


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
        assert json.loads(binary)["method"] == "bitmask_gcd"
        assert json.loads(ternary)["method"] == "games_chan"
        assert json.loads(ternary)["lc"] == 11
        # alphabet 3 at period 7^3, not a power of 3: Berlekamp-Massey
        assert json.loads(mary)["method"] == "berlekamp_massey"
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
            for k, lc, exact in kerror_lc_bruteforce(f, 2)
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
        real = complexity.theorem_kerror_lc
        monkeypatch.setattr(
            complexity,
            "theorem_kerror_lc",
            lambda m, size, k: real(m, size, k) + (k == 3),
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
            "FAIL: k-error engine LC_0 = 25 contradicts LC = 24 from bitmask_gcd\n"
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
        # period 343 takes exhaustive search, which reported an inexact LC_1
        code, stdout, stderr = run(
            capsys, "analyze", "--p", "7", "--r", "2", "--kind", "class",
            "--I", "0", "--k-max", "1", "--budget", "-5",
        )
        assert (code, stdout) == (2, "")
        assert stderr == "error: --budget must be >= 0, got -5\n"

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
        # period 343: 2 has order 21 mod 49, so k-error LC comes from budgeted
        # exhaustive search, which covers k <= 1 (344 patterns) within 1000
        f = tmp_path / "s.txt"
        run(
            capsys, "generate", "--p", "7", "--r", "2", "--kind", "class",
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


    # p^{r+1} at r = 100 (or p^{i+1} at i = 100) overflows an index while
    # the table is sized, before anything is allocated
    @pytest.mark.parametrize("argv", [
        "generate --p 3 --r 100 --kind threshold",
        "analyze --p 3 --r 100 --kind class --I 0",
        "partition --p 3 --r 100 --summary",
        "verify --suite theorem-hh --p 3 --r 100",
        "generate --p 3 --kind fermat-order --i 100 --I 0",
    ])
    def test_absurd_sizes_exit_2(self, argv, capsys):
        code, stdout, stderr = run(capsys, *argv.split())
        assert code == 2
        assert stdout == ""
        assert stderr.startswith("error: period too large to build (OverflowError")
        assert "Traceback" not in stderr

    def test_out_of_memory_exits_2(self, monkeypatch, capsys):
        # (1000003, 2) would ask for an 8e18-byte table; the stub raises first
        def out_of_memory(m):
            raise MemoryError

        monkeypatch.setattr(sequences, "quotient_table", out_of_memory)
        code, stdout, stderr = run(
            capsys, "generate", "--p", "1000003", "--r", "2", "--kind", "threshold"
        )
        assert code == 2
        assert stdout == ""
        assert stderr == "error: period too large to build (MemoryError)\n"


class TestVerify:
    @pytest.mark.parametrize("suite", ["theorem-hh", "hh-period", "q-r-s", "lc-p"])
    def test_suites_pass(self, suite, capsys):
        code, stdout, _ = run(capsys, "verify", "--suite", suite, "--p", "3", "--r", "2")
        assert code == 0
        assert "PASS" in stdout and "FAIL" not in stdout

    def test_lemmas_suite(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--suite", "lemmas", "--p", "5", "--r", "2")
        assert code == 0
        assert stdout.count("PASS") == 2

    def test_lemmas_suite_refuses_p_past_search(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--suite", "lemmas", "--p", "19", "--r", "1")
        assert code == 0
        assert "PASS G(X) uniqueness at p=19 — refused: " in stdout

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
            profile = real(seq, k_max)
            k, lc, exact = profile[3]
            profile[3] = (k, lc + 1, exact)
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

    def test_oracle_disagreement_exits_1(self, monkeypatch, capsys):
        real = verify.berlekamp_massey
        monkeypatch.setattr(verify, "berlekamp_massey", lambda seq, fp: real(seq, fp) + 1)
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
