"""Named verification suites: each runs a batch of property checks at a
given (p, r) and returns (check name, passed, detail) triples. The CLI's
verify command is a thin wrapper over these.
"""

from __future__ import annotations

import random
from itertools import repeat
from operator import countOf, mod, mul, ne, sub

from .complexity import (
    berlekamp_massey,
    check_poly_p_lemma,
    check_root_group_lemmas,
    check_theorem_profile,
    kerror_lc_profile,
    lc_games_chan_lists,
    lc_via_gcd,
    linear_complexity,
    poly_p_precondition_error,
    theorem_precondition_error,
)
from .fieldarith import PrimeField
from .quotients import PrimePowerModulus, quotient_map, quotient_table
from .sequences import PeriodicSequence, binary_class_sequence, level_sequence

CheckResult = tuple[str, bool, str]


def _lookup(
    symbols: bytes | bytearray | list[int], table: list[int]
) -> bytes | bytearray | list[int]:
    """table[x] at every symbol x: one map over a list, else one translate."""
    if isinstance(symbols, list):
        return list(map(table.__getitem__, symbols))
    return symbols.translate(bytes(table).ljust(256, b"\xff"))


def suite_theorem_hh(p: int, r: int, seed: int = 0) -> list[CheckResult]:
    """Shift law H(v + k p^r) == H(v) - k v^{p-2} mod p, exhaustively.

    H is the top digit Q_r // p^{r-1}, taken along the walk over the powers
    of a primitive root (quotients.quotient_map), whose cycle holds the
    quotients 0..p^r - 1 in order, so its top digits are p runs of p^{r-1}.
    The walk writes them at one byte per u for p < 256 (else a list), with
    no table of Q_r. It is independent of sequences._quotient_blocks, which
    builds every top-digit sequence from this law generalised; so the check
    is independent of that builder.
    v^{p-2} is the inverse of c = v mod p, so with G(u) = c H(u) mod p,
    u = v + k p^r, the law reads G(v + k p^r) == G(v) - k mod p, one
    rotation for every unit. G overwrites H in place, one lookup per
    residue class c, and each shift k takes one lookup of G's first p^r
    entries: O(p) calls, each over a whole slice. The multiples of p hold p
    in G, which every rotation keeps, so only units can differ; with digits
    in [0, p) each differing entry is one (v, k) pair that breaks the law.
    In a fresh process at (3,14), N = 3^15, the suite takes about 1.4 s and
    48 MB peak on a shared 2-core host, against 3.7 s and 309 MB for a list
    of Q_r.
    """
    m = PrimePowerModulus(p, r)
    pr, top, wide = m.modulus, p ** (r - 1), p > 255

    def top_digit_runs(qs):  # q // p^{r-1} at q = 0..p^r - 1: p runs of p^{r-1}
        if wide:
            return [d for d in range(p) for _ in range(top)]
        return b"".join(bytes([d]) * top for d in range(p))

    g = quotient_map(m, top_digit_runs, p, wide)
    residues = list(range(p)) * p  # x mod p at x < p^2: tables by slicing
    for c in range(1, p):
        g[c::p] = _lookup(g[c::p], residues[: p * c : c])  # x -> c x mod p
    head = g[:pr]
    failures = 0
    for k in range(1, p):
        expected = _lookup(head, residues[p - k : 2 * p - k] + [p])  # x -> x - k mod p
        got = g[k * pr : (k + 1) * pr]
        if got != expected:
            failures += sum(map(ne, got, expected))
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


# Units per chunk of the q-r-s powering chain: its lists stay near 1 MB
# at every size, so the table sets the suite's peak memory.
_QRS_CHUNK = 1 << 14


def _qrs_holds(table: list[int], p: int, r: int) -> bool:
    """Every t_s, 0 < s <= r, against table, at every u; see suite_qrs."""
    if any(table[::p]) or min(table) < 0 or max(table) >= p**r:
        return False
    n, big = len(table), p ** (2 * r)
    span = p * _QRS_CHUNK
    for c in range(1, p):
        for start in range(c, n, span):
            units = range(start, min(start + span, n), p)
            qs = table[start : start + span : p]
            t = list(map(pow, units, repeat(p - 1), repeat(big)))  # T_1
            ps = 1
            for s in range(1, r + 1):
                if s > 1:
                    t = list(map(pow, t, repeat(p), repeat(big)))  # T_s = T_{s-1}^p
                ps *= p
                # t_s = 1 + p^s (Q_r mod p^s), as (T_s - p^s Q_r) mod p^{2s} == 1
                held = map(mod, map(sub, t, map(mul, qs, repeat(ps))), repeat(ps * ps))
                if countOf(held, 1) != len(qs):
                    return False
    return True


def suite_qrs(p: int, r: int, seed: int = 0) -> list[CheckResult]:
    """Congruence Q_r == Q_s mod p^s for all u in one period, all 0 < s <= r.

    Q_r comes from quotient_table (the walk) and each Q_s from its
    definition, so the check covers the table at every u, its top digit by
    s = r. The definition runs as one powering chain per unit u:
    phi(p^{s+1}) = p phi(p^s), so T_1 = u^{p-1} and T_{s+1} = T_s^p, all
    mod p^{2r}, give t_s = T_s mod p^{2s} = u^{phi(p^s)} mod p^{2s}, and by
    Euler's theorem t_s = 1 + p^s Q_s(u). Each t_s is compared with
    1 + p^s (Q_r(u) mod p^s).
    The units run per residue class c mod p, over range(c, N, p) against
    table[c::p], in chunks of _QRS_CHUNK units, each step one map over the
    chunk. The multiples of p must hold 0, and every entry must lie in
    [0, p^r), so that s = r pins each entry to its definition.
    """
    m = PrimePowerModulus(p, r)
    if r < 2:
        return [(f"q-r-s at (p={p}, r={r})", True, "vacuous for r < 2")]
    ok = _qrs_holds(quotient_table(m), p, r)
    return [(f"q-r-s at (p={p}, r={r})", ok, f"u < {m.sequence_period}, s <= {r}")]


def suite_lc_p(p: int, r: int, seed: int = 0) -> list[CheckResult]:
    """Linear complexity of the highest-level sequence equals p^r + p - 1.

    Two engines check it at every size: lc_games_chan_lists, Games-Chan on
    Python lists, and linear_complexity, whose line is labelled with the
    engine it picked (division by powers of Y - 1 on packed lanes).
    """
    m = PrimePowerModulus(p, r)
    seq = level_sequence(m, r - 1)
    expected = p**r + p - 1
    lists = lc_games_chan_lists(seq)
    lc, method = linear_complexity(seq)
    return [
        (f"games_chan_lists LC at (p={p}, r={r})", lists == expected, f"{lists} vs {expected}"),
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
        check_theorem_profile(profile, m, {0}, weight)
    except RuntimeError as exc:
        return [(f"klc at (p={p}, r={r})", False, str(exc))]
    # each breakpoint's exact holds up to the next one
    ends = [k for k, _, _ in profile[1:]] + [weight + 1]
    exact = sum(end - k for (k, _, is_exact), end in zip(profile, ends) if is_exact)
    return [
        (
            f"klc at (p={p}, r={r})",
            True,
            f"profile for k <= {weight} matches "
            f"({exact}/{weight + 1} entries exact)",
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
        seq = PeriodicSequence(char, period, [rng.randrange(char) for _ in range(period)])
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
