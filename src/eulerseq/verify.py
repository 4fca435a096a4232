"""Named verification suites: each runs a batch of property checks at a
given (p, r) and returns (check name, passed, detail) triples. The CLI's
verify command is a thin wrapper over these.
"""

from __future__ import annotations

import random

from .complexity import (
    berlekamp_massey,
    check_poly_p_lemma,
    check_root_group_lemmas,
    check_theorem_profile,
    kerror_lc_profile,
    lc_via_gcd,
    linear_complexity,
    poly_p_precondition_error,
    theorem_precondition_error,
)
from .fieldarith import PrimeField
from .quotients import PrimePowerModulus, euler_quotient, quotient_table
from .sequences import PeriodicSequence, binary_class_sequence, level_sequence

CheckResult = tuple[str, bool, str]


def suite_theorem_hh(p: int, r: int, seed: int = 0) -> list[CheckResult]:
    """Shift law H(v + k p^r) == H(v) - k v^{p-2} mod p, exhaustively."""
    m = PrimePowerModulus(p, r)
    table = quotient_table(m)
    base = p ** (r - 1)
    pr = m.modulus
    failures = 0
    for v in range(pr):
        if v % p == 0:
            continue
        hv = table[v] // base
        step = pow(v, p - 2, p)
        for k in range(p):
            lhs = table[v + k * pr] // base
            if lhs != (hv - k * step) % p:
                failures += 1
    return [
        (
            f"shift law at (p={p}, r={r})",
            failures == 0,
            "all units checked" if failures == 0 else f"{failures} violations",
        )
    ]


def suite_hh_period(p: int, r: int, seed: int = 0) -> list[CheckResult]:
    """Least period of the top-digit sequence is exactly p^{r+1}."""
    m = PrimePowerModulus(p, r)
    seq = level_sequence(m, r - 1)
    lp = seq.least_period()
    return [
        (
            f"least period at (p={p}, r={r})",
            lp == m.sequence_period,
            f"measured {lp}, expected {m.sequence_period}",
        )
    ]


def suite_qrs(p: int, r: int, seed: int = 0) -> list[CheckResult]:
    """Congruence Q_r == Q_s mod p^s for all u in one period, all 0 < s < r.

    Q_r comes from quotient_table and each Q_s from its definition,
    euler_quotient, so the check covers the table at every u.
    """
    m = PrimePowerModulus(p, r)
    if r < 2:
        return [(f"q-r-s at (p={p}, r={r})", True, "vacuous for r < 2")]
    table = quotient_table(m)
    lowers = [PrimePowerModulus(p, s) for s in range(1, r)]
    ok = all(
        q % lower.modulus == euler_quotient(lower, u)
        for lower in lowers
        for u, q in enumerate(table)
    )
    return [(f"q-r-s at (p={p}, r={r})", ok, f"u < {m.sequence_period}, s < {r}")]


# Berlekamp-Massey is quadratic in the period: lc-p takes 5.7 s at N = 3^10
# and 49 s at N = 3^11 on a shared 2-core host, nearly all of it in that engine.
_BM_PERIOD_CAP = 59_049


def suite_lc_p(p: int, r: int, seed: int = 0) -> list[CheckResult]:
    """Linear complexity of the highest-level sequence equals p^r + p - 1.

    Berlekamp-Massey checks it independently up to period _BM_PERIOD_CAP
    and passes as skipped above it; the second line is linear_complexity's
    value, labelled with the engine that computed it.
    """
    m = PrimePowerModulus(p, r)
    seq = level_sequence(m, r - 1)
    expected = p**r + p - 1
    bm_name = f"BM LC at (p={p}, r={r})"
    if seq.period > _BM_PERIOD_CAP:
        bm_line = (bm_name, True, f"skipped: N > {_BM_PERIOD_CAP}")
    else:
        bm = berlekamp_massey(seq, PrimeField(p))
        bm_line = (bm_name, bm == expected, f"{bm} vs {expected}")
    lc, method = linear_complexity(seq)
    return [
        bm_line,
        (f"{method} LC at (p={p}, r={r})", lc == expected, f"{lc} vs {expected}"),
    ]


def suite_lemmas(p: int, r: int, seed: int = 0) -> list[CheckResult]:
    """Class-polynomial divisibility lemmas and the G(X) uniqueness lemma."""
    m = PrimePowerModulus(p, r)
    roots = f"root-group lemmas at (p={p}, r={r})"
    if r >= 2:
        results = [(roots, check_root_group_lemmas(m), "")]
    else:
        results = [(roots, True, "vacuous for r < 2")]
    uniqueness = f"G(X) uniqueness at p={p}"
    reason = poly_p_precondition_error(p)
    if reason:
        results.append((uniqueness, True, f"refused: {reason}"))
    else:
        results.append((uniqueness, check_poly_p_lemma(p), ""))
    return results


def suite_klc(p: int, r: int, seed: int = 0) -> list[CheckResult]:
    """k-error profile of the I={0} class sequence against the theorem."""
    m = PrimePowerModulus(p, r)
    reason = theorem_precondition_error(m, 1)
    if reason:
        return [(f"klc at (p={p}, r={r})", True, f"refused: {reason}")]
    seq = binary_class_sequence(m, {0})
    weight = seq.weight
    profile = kerror_lc_profile(seq, weight)
    try:
        check_theorem_profile(profile, m, {0})
    except RuntimeError as exc:
        return [(f"klc at (p={p}, r={r})", False, str(exc))]
    exact = sum(1 for _, _, e in profile if e)
    return [
        (
            f"klc at (p={p}, r={r})",
            True,
            f"profile for k <= {weight} matches "
            f"({exact}/{len(profile)} entries exact)",
        )
    ]


_ORACLE_TRIALS = 100


def suite_oracles(p: int, r: int, seed: int = 0) -> list[CheckResult]:
    """Berlekamp-Massey agrees with the gcd formula on random sequences."""
    rng = random.Random(seed)
    failures = 0
    for _ in range(_ORACLE_TRIALS):
        char = rng.choice([2, 3])
        period = rng.randint(1, 200)
        seq = PeriodicSequence(
            char, period, tuple(rng.randrange(char) for _ in range(period))
        )
        if berlekamp_massey(seq, PrimeField(char)) != lc_via_gcd(seq):
            failures += 1
    return [
        (
            f"oracle equivalence ({_ORACLE_TRIALS} random sequences, seed={seed})",
            failures == 0,
            "all agree" if failures == 0 else f"{failures} disagreements",
        )
    ]


SUITES = {
    "theorem-hh": suite_theorem_hh,
    "hh-period": suite_hh_period,
    "q-r-s": suite_qrs,
    "lc-p": suite_lc_p,
    "lemmas": suite_lemmas,
    "klc": suite_klc,
    "oracles": suite_oracles,
}
