"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.
"""

import random

import pytest
import sympy

from eulerseq.complexity import (
    berlekamp_massey,
    check_poly_p_lemma,
    check_root_group_lemmas,
    check_theorem_profile,
    constructive_error_patterns,
    kerror_lc_bruteforce,
    kerror_lc_profile,
    lc_via_gcd,
    theorem_kerror_lc,
)
from eulerseq.fieldarith import PrimeField
from eulerseq.quotients import PrimePowerModulus, fermat_quotient_order, new_quotient_h
from eulerseq.sequences import (
    PeriodicSequence,
    binary_class_sequence,
    level_sequence,
    order_i_binary_sequence,
)
from eulerseq.verify import suite_qrs


def report(num, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num}: {detail}")
    assert ok, detail


def test_criterion_1_highest_level_lc():
    """LC over F_p of the highest-level sequence is p^r + p - 1."""
    expected = {(3, 2): 11, (3, 3): 29, (5, 2): 29, (7, 2): 55}
    results = {}
    for (p, r), want in expected.items():
        m = PrimePowerModulus(p, r)
        seq = level_sequence(m, r - 1)
        results[(p, r)] = (berlekamp_massey(seq, PrimeField(p)), lc_via_gcd(seq))
    ok = all(bm == gd == expected[key] for key, (bm, gd) in results.items())
    report(1, ok, f"highest-level LC (BM, gcd) = {results}, expected {expected}")


def test_criterion_2_full_kerror_profile_p3():
    """Full k-error profile at (3,2), I={0}: theorem and exhaustive search."""
    m = PrimePowerModulus(3, 2)
    f = binary_class_sequence(m, {0})
    profile = kerror_lc_profile(f, 6)
    check_theorem_profile(profile, m, {0})
    values = [lc for _, lc, _ in profile]
    all_exact = all(exact for _, _, exact in profile)
    brute = kerror_lc_bruteforce(f, 6)
    want = [20, 20, 20, 19, 19, 19, 0]
    ok = values == want and all_exact and profile == brute
    report(
        2,
        ok,
        f"profile {values} (want {want}), all exact: {all_exact}, "
        f"exhaustive search {[lc for _, lc, _ in brute]}",
    )


def test_criterion_3_partial_verification_p5_odd():
    """(5,2), I={0}: LC_0 = 104, constructive drops to 101 and 100, no early drop."""
    m = PrimePowerModulus(5, 2)
    f = binary_class_sequence(m, {0})
    lc0 = lc_via_gcd(f)
    lam, full = constructive_error_patterns(m)
    lam_lc = lc_via_gcd(f.flip(lam))
    full_lc = lc_via_gcd(f.flip(full))
    brute = kerror_lc_bruteforce(f, 2)
    bf2 = [lc for _, lc, _ in brute]
    ok = (
        lc0 == 104
        and len(lam) == 5
        and lam_lc == 101
        and len(full) == 20
        and full_lc == 100
        and brute == [(k, 104, True) for k in range(3)]
    )
    report(
        3,
        ok,
        f"LC_0={lc0} (want 104), lambda(w={len(lam)})->LC {lam_lc} (want 101), "
        f"lambda_times_full(w={len(full)})->LC {full_lc} (want 100), "
        f"brute force k<=2: {bf2} (want 104 each, no early drop)",
    )


def test_criterion_4_even_index_branch():
    """(5,2), I={0,1}: LC_0 = 100 and no drop through k = 2."""
    m = PrimePowerModulus(5, 2)
    f = binary_class_sequence(m, {0, 1})
    lc0 = lc_via_gcd(f)
    brute = kerror_lc_bruteforce(f, 2)
    bf2 = [lc for _, lc, _ in brute]
    ok = lc0 == 100 and brute == [(k, 100, True) for k in range(3)]
    report(4, ok, f"even |I|: LC_0={lc0}, brute force k<=2: {bf2} (want 100 each)")


def test_criterion_5_shift_law_and_least_period():
    """Shift law and least period p^{r+1}, exhaustively at four (p, r)."""
    cases = [(3, 2), (3, 3), (5, 2), (7, 2)]
    failures = []
    for p, r in cases:
        m = PrimePowerModulus(p, r)
        for v in range(m.modulus):
            if v % p == 0:
                continue
            hv = new_quotient_h(m, v)
            for k in range(p):
                want = (hv - k * pow(v, p - 2, p)) % p
                if new_quotient_h(m, v + k * m.modulus) != want:
                    failures.append(("shift", p, r, v, k))
        seq = level_sequence(m, r - 1)
        if seq.least_period() != m.sequence_period:
            failures.append(("period", p, r))
    report(5, not failures, f"shift law + least period at {cases}: failures={failures}")


def test_criterion_6_qrs_congruence():
    """Q_r == Q_s mod p^s for all u in one period, all 0 < s < r."""
    cases = [(3, 3), (3, 4), (5, 3)]
    ok = all(passed for p, r in cases for _, passed, _ in suite_qrs(p, r))
    report(6, ok, f"quotient congruence exhaustive at {cases}")


def test_criterion_7_lemma_suite():
    """Divisibility lemmas hold; hypotheses-violating p = 7 is refused."""
    root_ok = all(
        check_root_group_lemmas(PrimePowerModulus(p, r))
        for p, r in [(3, 2), (5, 2), (3, 3)]
    )
    poly_ok = all(check_poly_p_lemma(p) for p in (3, 5, 11, 13))
    refused = False
    try:
        check_poly_p_lemma(7)
    except ValueError:
        refused = True
    # ord(2 mod 49) = 21, so the k-error theorem hypothesis fails at p=7 too
    klc_hypothesis_fails = sympy.n_order(2, 49) == 21
    ok = root_ok and poly_ok and refused and klc_hypothesis_fails
    report(
        7,
        ok,
        f"root-group lemmas: {root_ok}, G(X) lemma p in 3/5/11/13: {poly_ok}, "
        f"p=7 refused: {refused}, ord(2 mod 49)=21: {klc_hypothesis_fails}",
    )


def test_criterion_8_order_i_quotients():
    """LC of order-i quotient sequences is p^i + p - 1; f^(2) k-error profile."""
    lc_ok = True
    lcs = {}
    for p in (3, 5):
        fp = PrimeField(p)
        for i in (1, 2, 3):
            period = p ** (i + 1)
            seq = PeriodicSequence(
                p, period, tuple(fermat_quotient_order(p, i, u) for u in range(period))
            )
            lc = berlekamp_massey(seq, fp)
            lcs[(p, i)] = lc
            lc_ok &= lc == p**i + p - 1
    f = order_i_binary_sequence(3, 2, {0})
    brute = kerror_lc_bruteforce(f, 6)
    profile = [lc for _, lc, _ in brute]
    want = [20, 20, 20, 19, 19, 19, 0]  # p^{i+1}-p^i+p-1 / +1 / 0 branches at i=2
    ok = lc_ok and brute == [(k, lc, True) for k, lc in enumerate(want)]
    report(8, ok, f"order-i LCs {lcs}, f^(2) brute-force profile {profile} (want {want})")


def test_criterion_9_worked_example_congruences():
    """H_0 = c_1 and H_1 = (p-1)/2 c_1^2 + c_2 from the exact power expansion.

    Known failure at p = 3: the stated H_1 formula drops the binomial term
    C(p,3) c_1^3 p^3, which is nonzero modulo p^4 only for p = 3 (p does
    not divide C(3,3) = 1), adding c_1^3 to H_1 there. Counterexample
    u = 2: c_1 = 1, c_2 = 0, formula 1, actual H_1(2) = 2. The formula
    holds for p in {5, 7}; the corrected form passes everywhere (see the
    quotient module tests).
    """
    mismatches = {}
    for p in (3, 5, 7):
        m1 = PrimePowerModulus(p, 1)
        m2 = PrimePowerModulus(p, 2)
        bad = 0
        for u in range(1, p**3):
            if u % p == 0:
                continue
            t = u ** (p - 1)
            c1 = t // p % p
            c2 = t // p**2 % p
            if new_quotient_h(m1, u) != c1:
                bad += 1
            if new_quotient_h(m2, u) != ((p - 1) // 2 * c1 * c1 + c2) % p:
                bad += 1
        mismatches[p] = bad
    ok = all(v == 0 for v in mismatches.values())
    report(
        9,
        ok,
        f"H_0/H_1 congruence mismatches per prime: {mismatches} "
        "(stated H_1 formula is provably false at p=3: missing C(3,3) c_1^3 term)",
    )


def test_criterion_10_oracle_equivalence():
    """Berlekamp-Massey equals the gcd formula on 500 random sequences."""
    rng = random.Random(20260825)
    disagreements = 0
    for _ in range(500):
        char = rng.choice([2, 3])
        T = rng.randint(1, 200)
        seq = PeriodicSequence(char, T, tuple(rng.randrange(char) for _ in range(T)))
        if berlekamp_massey(seq, PrimeField(char)) != lc_via_gcd(seq):
            disagreements += 1
    report(10, disagreements == 0, f"500 random sequences, {disagreements} disagreements")


def test_criterion_11_full_profiles_at_scale():
    """Every profile entry exact and equal to the theorem, k = 0..weight."""
    cases = [(5, 2, {0}), (5, 2, {0, 1}), (13, 2, {4}), (3, 8, {0}), (13, 3, {0})]
    mismatches = {}
    for p, r, levels in cases:
        m = PrimePowerModulus(p, r)
        f = binary_class_sequence(m, levels)
        profile = kerror_lc_profile(f, f.weight)
        check_theorem_profile(profile, m, levels)
        want = [theorem_kerror_lc(m, len(levels), k) for k in range(f.weight + 1)]
        got = [lc for _, lc, exact in profile if exact]
        if got != want:
            mismatches[(p, r, tuple(sorted(levels)))] = got
    report(
        11,
        not mismatches,
        f"full exact profiles at {[(p, r, sorted(I)) for p, r, I in cases]}: "
        f"mismatches={mismatches}",
    )


def test_criterion_12_engine_follows_period():
    """Periods p^n with 2 primitive mod p^n are exact under any budget;
    periods 49 and 343 (ord(2 mod 49) = 21) fall back to budgeted search."""
    budget = 1  # exhaustive search gets k = 0 only
    structural = {}
    for period in (27, 125, 1331):
        seq = PeriodicSequence(2, period, (1,) * 3 + (0,) * (period - 3))
        structural[period] = [e for _, _, e in kerror_lc_profile(seq, 3, budget)]
    exhaustive = {}
    for period in (49, 343):
        seq = PeriodicSequence(2, period, (1,) * 3 + (0,) * (period - 3))
        exhaustive[period] = [e for _, _, e in kerror_lc_profile(seq, 3, budget)]
    ok = all(flags == [True] * 4 for flags in structural.values()) and all(
        flags == [True, False, False, False] for flags in exhaustive.values()
    )
    report(
        12,
        ok,
        f"exact flags at budget {budget}: structural {structural}, "
        f"exhaustive {exhaustive}",
    )
