"""The benchmark's workloads: fixed job lists whose inputs come from a seed.

A job is one call into eulerseq: a CLI argv passed to ``eulerseq.cli.main``
in-process, or a library call where the CLI has no command for it. Every
job has a check that compares its output with a reference computed outside
the timed pass (or recorded at the commit that introduced the benchmark).

The seed only picks the members of each level index set I (keeping |I|
and the theorem preconditions fixed, so the expected values do not move;
the (3, 2) profile job keeps I = {0}, see ``klc_confirm``), the random
sequence files, and the seed passed to ``verify --suite oracles``.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from eulerseq import cli, sequences
from eulerseq.complexity import berlekamp_massey, lc_binary, theorem_kerror_lc
from eulerseq.fieldarith import PrimeField
from eulerseq.quotients import PrimePowerModulus


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], str | None]  # None when the output is right
    profile: bool = False  # output carries a k-error profile (for exact_frac)

    def profile_counts(self, result) -> tuple[int, int]:
        """(entries marked exact, entries reported) of a k-error profile job."""
        if not self.profile:
            return 0, 0
        entries = json.loads(result[1])["kerror"]
        return sum(1 for e in entries if e["exact"]), len(entries)


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run one CLI command in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def _cli_job(label: str, argv: list, check, profile: bool = False) -> Job:
    argv = [str(a) for a in argv]
    return Job(label, lambda: run_cli(argv), check, profile)


def _read_back(path: Path):
    with open(path) as fh:
        return sequences.read_sequence(fh)


# --- output checks ------------------------------------------------------------

def _analyze_json(result) -> dict:
    rc, out, err = result
    if rc != 0:
        raise ValueError(f"exit code {rc}: {err.strip()[:200]}")
    return json.loads(out)


def _expect_lc(expected: int, recorded: int | None = None):
    def check(result):
        if recorded is not None and expected != recorded:
            return f"reference LC {expected} differs from recorded {recorded}"
        doc = _analyze_json(result)
        if doc["lc"] != expected:
            return f"lc {doc['lc']} != reference {expected}"
        return None
    return check


def _expect_profile(expected: list[int], theorem: bool, recorded: list[int] | None = None):
    """Profile entries k = 0..k_max. Exact entries must equal the reference.

    On the theorem path every entry carries the theorem value; on the
    brute-force path an inexact entry is an upper bound.
    """
    def check(result):
        if recorded is not None and expected != recorded:
            return f"reference profile {expected} differs from recorded {recorded}"
        doc = _analyze_json(result)
        if doc["lc"] != expected[0]:
            return f"lc {doc['lc']} != reference {expected[0]}"
        entries = doc["kerror"]
        if [e["k"] for e in entries] != list(range(len(expected))):
            return f"profile covers k = {[e['k'] for e in entries]}"
        for e, want in zip(entries, expected):
            ok = e["lc"] == want if (e["exact"] or theorem) else e["lc"] >= want
            if not ok:
                return f"LC_{e['k']} = {e['lc']} (exact={e['exact']}) vs reference {want}"
        return None
    return check


def _expect_pass_lines(count: int):
    def check(result):
        rc, out, err = result
        lines = out.splitlines()
        if rc != 0:
            return f"exit code {rc}: {err.strip()[:200]}"
        if len(lines) != count or not all(line.startswith("PASS ") for line in lines):
            return f"expected {count} PASS lines, got {lines!r}"
        return None
    return check


def _expect_stdout(text: str):
    def check(result):
        rc, out, err = result
        if rc != 0 or out != text:
            return f"exit code {rc}, stdout {out!r}, expected {text!r}"
        return None
    return check


def _expect_round_trip(reference, meta: dict):
    def check(result):
        seq, got_meta = result
        if got_meta != meta:
            return f"header {got_meta} != {meta}"
        if seq != reference:
            return "sequence read back differs from the one generated"
        return None
    return check


# --- workloads ----------------------------------------------------------------

def _mask(seq) -> int:
    """One period of a binary sequence as a bitmask, bit i holding symbol i."""
    return sum(s << i for i, s in enumerate(seq.symbols))


def _members(rng: random.Random, p: int, size: int) -> list[int]:
    return sorted(rng.sample(range(p), size))


def _one_error_profile(seq) -> list[int]:
    """[LC, 1-error LC] of a binary sequence, enumerating every flip with lc_binary."""
    mask, n = _mask(seq), seq.period
    lc0 = lc_binary(mask, n)
    return [lc0, min(lc0, min(lc_binary(mask ^ (1 << i), n) for i in range(n)))]


# Threshold sequence at (3, 2): k-error LC for k <= 5, recorded at the commit
# that introduced the benchmark (exhaustive search, all entries exact).
THRESHOLD_3_2_PROFILE = [24, 24, 20, 20, 18, 18]


def klc_confirm(rng: random.Random, workdir: Path, seed: int) -> list[Job]:
    """k-error engines: theorem-path profiles plus the brute-force fallback."""
    jobs = []
    # At (3, 2) the search reaches k = weight, where it stops at the first
    # pattern that zeroes the LC; its position depends on the member, and
    # I = {1} takes 45% longer than I = {0}. So I = {0} there for every seed.
    for p, r, size, budget in ((3, 2, 1, None), (3, 3, 1, 10**5),
                               (5, 2, 2, 10**5), (11, 2, 1, 10**5)):
        m = PrimePowerModulus(p, r)
        levels = [0] if (p, r) == (3, 2) else _members(rng, p, size)
        weight = p ** (r - 1) * (p - 1) * size
        expected = [theorem_kerror_lc(m, size, k) for k in range(weight + 1)]
        argv = ["analyze", "--p", p, "--r", r, "--kind", "class", "--I", *levels,
                "--k-max", weight, "--format", "json"]
        if budget:
            argv += ["--budget", budget]
        jobs.append(_cli_job(f"class ({p},{r}) I={levels} k<={weight}", argv,
                             _expect_profile(expected, theorem=True), profile=True))

    thr = sequences.threshold_sequence(PrimePowerModulus(3, 2))
    expected = [lc_binary(_mask(thr), thr.period)] + THRESHOLD_3_2_PROFILE[1:]
    jobs.append(_cli_job(
        "threshold (3,2) k<=5",
        ["analyze", "--p", 3, "--r", 2, "--kind", "threshold", "--k-max", 5,
         "--budget", 10**6, "--format", "json"],
        _expect_profile(expected, theorem=False, recorded=THRESHOLD_3_2_PROFILE),
        profile=True))

    levels = _members(rng, 7, 1)  # 2 is not primitive mod 49: brute force
    seq = sequences.binary_class_sequence(PrimePowerModulus(7, 2), levels)
    jobs.append(_cli_job(
        f"class (7,2) I={levels} k<=1",
        ["analyze", "--p", 7, "--r", 2, "--kind", "class", "--I", *levels,
         "--k-max", 1, "--format", "json"],
        _expect_profile(_one_error_profile(seq), theorem=False), profile=True))
    return jobs


def _write_random(path: Path, rng: random.Random, q: int, p: int, n: int):
    """A random sequence over F_q with period p^n, in the sequence file format."""
    symbols = [rng.randrange(q) for _ in range(p**n)]
    lines = [f"seq {q} {p**n} p={p} r={n - 1} kind=random"]
    lines += [" ".join(map(str, symbols[i:i + 40])) for i in range(0, len(symbols), 40)]
    path.write_text("\n".join(lines) + "\n")
    return sequences.PeriodicSequence(q, p**n, tuple(symbols))


def lc_scale(rng: random.Random, workdir: Path, seed: int) -> list[Job]:
    """LC engines at N = 729..3125 without k-error."""
    jobs = []
    binary = (
        ("class", 13, 2, _members(rng, 13, 1), 2040),
        ("threshold", 7, 3, None, 2400),
        ("balanced", 3, 6, _members(rng, 3, 1), 1459),
    )
    for kind, p, r, levels, recorded in binary:
        m = PrimePowerModulus(p, r)
        if kind == "threshold":
            seq = sequences.threshold_sequence(m)
        else:
            build = (sequences.binary_class_sequence if kind == "class"
                     else sequences.balanced_class_sequence)
            seq = build(m, levels)
        argv = ["analyze", "--p", p, "--r", r, "--kind", kind, "--format", "json"]
        if levels:
            argv += ["--I", *levels]
        jobs.append(_cli_job(f"{kind} ({p},{r}) I={levels}", argv,
                             _expect_lc(lc_binary(_mask(seq), seq.period), recorded)))

    for p, r, j in ((3, 6, 5), (7, 3, 2)):
        seq = sequences.level_sequence(PrimePowerModulus(p, r), j)
        recorded = p ** (j + 1) + p - 1  # top-digit LC p^r + p - 1 at r = j + 1
        jobs.append(_cli_job(
            f"level j={j} ({p},{r})",
            ["analyze", "--p", p, "--r", r, "--kind", "level", "--j", j, "--format", "json"],
            _expect_lc(berlekamp_massey(seq, PrimeField(p)), recorded)))

    for p, r in ((3, 6), (5, 4)):
        jobs.append(_cli_job(f"verify lc-p ({p},{r})",
                             ["verify", "--suite", "lc-p", "--p", p, "--r", r],
                             _expect_pass_lines(2)))
    jobs.append(_cli_job(f"verify oracles seed={seed}",
                         ["verify", "--suite", "oracles", "--seed", seed],
                         _expect_pass_lines(1)))

    for name, q, n in (("bin", 2, 7), ("ter", 3, 6)):
        path = workdir / f"random-{name}.txt"
        seq = _write_random(path, rng, q, 3, n)
        reference = (lc_binary(_mask(seq), seq.period) if q == 2
                     else berlekamp_massey(seq, PrimeField(q)))
        jobs.append(_cli_job(f"analyze --file random {name} N={seq.period}",
                             ["analyze", "--file", path, "--format", "json"],
                             _expect_lc(reference)))
    return jobs


def gen_props(rng: random.Random, workdir: Path, seed: int) -> list[Job]:
    """Quotients and sequence generation at N = 6e4..1.8e5, with file I/O."""
    jobs = []
    specs = (
        ("class", 3, 10, {"I": _members(rng, 3, 1)}),
        ("threshold", 5, 6, {}),
        ("level", 7, 5, {"j": 4}),
        ("mary", 3, 9, {"order": 2}),
        ("balanced", 5, 6, {"I": _members(rng, 5, 2)}),
        ("fermat-order", 3, None, {"i": 9, "I": _members(rng, 3, 1)}),
    )
    for kind, p, r, extra in specs:
        path = workdir / f"gen-{kind}.txt"
        argv = ["generate", "--p", p, "--kind", kind, "--out", path]
        if r is not None:
            argv += ["--r", r]
        for key, value in extra.items():
            argv += [f"--{key}", *(value if isinstance(value, list) else [value])]
        m = PrimePowerModulus(p, r) if r is not None else None
        if kind == "class":
            ref = sequences.binary_class_sequence(m, extra["I"])
        elif kind == "balanced":
            ref = sequences.balanced_class_sequence(m, extra["I"])
        elif kind == "threshold":
            ref = sequences.threshold_sequence(m)
        elif kind == "level":
            ref = sequences.level_sequence(m, extra["j"])
        elif kind == "mary":
            ref = sequences.mary_sequence(m, extra["order"])
        else:
            ref = sequences.order_i_binary_sequence(p, extra["i"], extra["I"])
        meta = {"p": p, "r": r if r is not None else extra["i"], "kind": kind}
        label = f"{kind} p={p} r={meta['r']} {extra}"
        jobs.append(_cli_job(f"generate {label}", argv,
                             _expect_stdout(f"period {ref.period} weight {ref.weight}\n")))
        jobs.append(Job(f"read_sequence {label}", lambda path=path: _read_back(path),
                        _expect_round_trip(ref, meta)))

    p, r = 3, 9
    sizes = ", ".join([str(p ** (r - 1) * (p - 1))] * p)
    jobs.append(_cli_job("partition --summary (3,9)",
                         ["partition", "--p", p, "--r", r, "--summary"],
                         _expect_stdout(f"|D_l| = [{sizes}], |P| = {p**r}\n")))
    for suite, p, r, lines in (("theorem-hh", 3, 10, 1), ("hh-period", 3, 10, 1),
                               ("q-r-s", 3, 8, 1), ("lemmas", 3, 9, 2)):
        jobs.append(_cli_job(f"verify {suite} ({p},{r})",
                             ["verify", "--suite", suite, "--p", p, "--r", r],
                             _expect_pass_lines(lines)))
    return jobs


WORKLOADS = {"klc-confirm": klc_confirm, "lc-scale": lc_scale, "gen-props": gen_props}


def build(name: str, seed: int, workdir: Path) -> list[Job]:
    """The job list of a workload for a seed; references are computed here."""
    return WORKLOADS[name](random.Random(f"{name}:{seed}"), workdir, seed)
