import json

import pytest

from eulerseq.cli import main
from eulerseq.complexity import kerror_lc_bruteforce
from eulerseq.quotients import PrimePowerModulus
from eulerseq.sequences import binary_class_sequence


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
        assert json.loads(binary)["method"] == "bitmask_gcd"
        assert json.loads(ternary)["method"] == "berlekamp_massey"
        assert json.loads(ternary)["lc"] == 11

    def test_class_profile_outside_theorem(self, capsys):
        # |I| = 2 > (p-1)/2 = 1: no theorem profile, the k-error engine answers
        code, stdout, stderr = run(
            capsys, "analyze", "--p", "3", "--r", "2", "--kind", "class",
            "--I", "0", "1", "--k-max", "2", "--format", "json",
        )
        assert code == 0, stderr
        doc = json.loads(stdout)
        f = binary_class_sequence(PrimePowerModulus(3, 2), {0, 1})
        assert [e["lc"] for e in doc["kerror"]] == [
            kerror_lc_bruteforce(f, k) for k in range(3)
        ]
        assert all(e["exact"] for e in doc["kerror"])

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
        assert "not prime" in stderr

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

    def test_klc_refusal_p7(self, capsys):
        code, stdout, _ = run(capsys, "verify", "--suite", "klc", "--p", "7", "--r", "2")
        assert code == 0
        assert "refused" in stdout
        assert "primitive root" in stdout

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
