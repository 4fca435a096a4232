"""Linear complexity and k-error linear complexity engines.

linear_complexity is the one entry point for LC. It picks the engine from
the alphabet: a binary sequence goes to the bitmask F_2[X] gcd lc_binary
(method "bitmask_gcd"), any other prime alphabet to Berlekamp-Massey
(method "berlekamp_massey"). The gcd formula LC = T - deg gcd(X^T - 1, S(X))
on dense polynomials, lc_via_gcd, stays as the audited oracle that
Berlekamp-Massey is cross-checked against.
k-error linear complexity over F_2 has one entry point, kerror_lc_profile.
For a period p^n (p an odd prime) with 2 a primitive root modulo p^n it runs
a cost-carrying block recursion that is exact for every k; for any other
period it runs one exhaustive error-pattern pass under a pattern budget,
using bitmask F_2[X] arithmetic. An entry is "exact" when one of these two
proven engines computed it. Exhaustive search also stays available as the
named oracle kerror_lc_bruteforce. Profiles of binary class sequences are
compared against the piecewise-constant profile predicted when 2 is a
primitive root modulo p^2.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass, field

from .fieldarith import PrimeField, multiplicative_order, poly_gcd
from .quotients import PrimePowerModulus
from .sequences import PeriodicSequence, binary_class_sequence, class_partition, validate_index_set


class PatternBudgetExceeded(RuntimeError):
    """Raised when an exhaustive error-pattern search would exceed its budget."""


DEFAULT_PATTERN_BUDGET = 10**7


# --- linear complexity ----------------------------------------------------

def berlekamp_massey(seq: PeriodicSequence, fieldp: PrimeField) -> int:
    """Linear complexity over F_p via Berlekamp-Massey.

    Runs on two concatenated periods, which guarantees convergence to the
    least recurrence order of the periodic extension.
    """
    if seq.alphabet_size != fieldp.p:
        raise ValueError(
            f"alphabet size {seq.alphabet_size} does not match field F_{fieldp.p}"
        )
    p = fieldp.p
    s = seq.symbols * 2
    c = [1]
    b = [1]
    L = 0
    gap = 1
    last_disc = 1
    for n in range(len(s)):
        d = 0
        for i in range(L + 1):
            d += c[i] * s[n - i]
        d %= p
        if d == 0:
            gap += 1
            continue
        coef = d * pow(last_disc, -1, p) % p
        if len(c) < len(b) + gap:
            c.extend([0] * (len(b) + gap - len(c)))
        if 2 * L <= n:
            prev = c.copy()
            for i, bi in enumerate(b):
                c[i + gap] = (c[i + gap] - coef * bi) % p
            L = n + 1 - L
            b = prev
            last_disc = d
            gap = 1
        else:
            for i, bi in enumerate(b):
                c[i + gap] = (c[i + gap] - coef * bi) % p
            gap += 1
    return L


def lc_via_gcd(seq: PeriodicSequence, fieldp: PrimeField) -> int:
    """Linear complexity as T - deg gcd(X^T - 1, S(X)); 0 for the zero sequence."""
    if seq.alphabet_size != fieldp.p:
        raise ValueError(
            f"alphabet size {seq.alphabet_size} does not match field F_{fieldp.p}"
        )
    s_poly = list(seq.symbols)
    while s_poly and s_poly[-1] == 0:
        s_poly.pop()
    if not s_poly:
        return 0
    T = seq.period
    xt1 = [fieldp.p - 1] + [0] * (T - 1) + [1]
    return T - (len(poly_gcd(xt1, s_poly, fieldp.p)) - 1)


# --- bitmask F_2[X] helpers (binary LC, brute force and lemmas) ----------

def _bdeg(a: int) -> int:
    return a.bit_length() - 1


def _bmod(a: int, b: int) -> int:
    """Remainder of a modulo b in F_2[X], masks as bit vectors."""
    db = _bdeg(b)
    while a and _bdeg(a) >= db:
        a ^= b << (_bdeg(a) - db)
    return a


def _bgcd(a: int, b: int) -> int:
    while b:
        a, b = b, _bmod(a, b)
    return a


def lc_binary(mask: int, period: int) -> int:
    """Linear complexity over F_2 of the period given as a bitmask."""
    if mask == 0:
        return 0
    return period - _bdeg(_bgcd((1 << period) | 1, mask))


def _seq_mask(seq: PeriodicSequence) -> int:
    if seq.alphabet_size != 2:
        raise ValueError("binary sequence required")
    mask = 0
    for i, s in enumerate(seq.symbols):
        mask |= s << i
    return mask


def linear_complexity(seq: PeriodicSequence) -> tuple[int, str]:
    """Linear complexity over the sequence's prime alphabet, with its engine.

    Binary sequences take the bitmask F_2[X] gcd ("bitmask_gcd"); any other
    alphabet takes Berlekamp-Massey over F_p ("berlekamp_massey"), which
    raises ValueError when the alphabet size is not prime.
    """
    if seq.alphabet_size == 2:
        return lc_binary(_seq_mask(seq), seq.period), "bitmask_gcd"
    return berlekamp_massey(seq, PrimeField(seq.alphabet_size)), "berlekamp_massey"


# --- k-error linear complexity -------------------------------------------

def _pattern_count(period: int, k: int) -> int:
    return sum(math.comb(period, w) for w in range(k + 1))


def _min_lc_at_weight(mask: int, period: int, w: int) -> int:
    """Minimum LC over all error patterns of weight exactly w."""
    best = None
    for positions in itertools.combinations(range(period), w):
        e = 0
        for q in positions:
            e |= 1 << q
        lc = lc_binary(mask ^ e, period)
        if best is None or lc < best:
            best = lc
            if best == 0:
                break
    return best


def kerror_lc_bruteforce(
    seq: PeriodicSequence, k: int, budget: int = DEFAULT_PATTERN_BUDGET
) -> int:
    """Exact k-error linear complexity of a binary sequence by exhaustion.

    Minimizes LC over every error pattern of weight at most k. Raises
    PatternBudgetExceeded when the pattern count would exceed the budget.
    """
    if not 0 <= k <= seq.period:
        raise ValueError(f"k must lie in [0, {seq.period}], got {k}")
    total = _pattern_count(seq.period, k)
    if total > budget:
        raise PatternBudgetExceeded(
            f"{total} patterns for k={k}, period={seq.period} exceeds budget {budget}"
        )
    mask = _seq_mask(seq)
    best = lc_binary(mask, seq.period)
    for w in range(1, k + 1):
        if best == 0:
            break
        best = min(best, _min_lc_at_weight(mask, seq.period, w))
    return best


def _structural_prime(period: int) -> int | None:
    """The odd prime p when period = p^n and 2 is a primitive root mod p^n.

    Then every cyclotomic factor of X^period - 1 is irreducible over F_2,
    which is what the block recursion of _kerror_lc_pn needs.
    """
    if period < 3:
        return None
    p = next(d for d in range(2, period + 1) if period % d == 0)
    rest = period
    while rest % p == 0:
        rest //= p
    if p == 2 or rest != 1:
        return None
    if multiplicative_order(2, period) != period - period // p:
        return None
    return p


def _kerror_lc_pn(bits: Sequence[int], p: int, k: int) -> int:
    """Exact k-error LC over F_2 of a p^n-periodic sequence, 2 primitive mod p^n.

    Block recursion for p^n-periodic LC (Xiao, Wei, Lam, Imamura, IEEE
    Trans. IT 46, 2000) carrying flip costs as in Stamp and Martin (IEEE
    Trans. IT 39, 1993). With period pM and blocks A_0..A_{p-1} of length M,
    LC = LC(A_0) when all blocks are equal and (p-1)M + LC(A_0 + ... +
    A_{p-1}) otherwise. Equal blocks leave LC <= M < (p-1)M, so making them
    equal is optimal whenever the remaining k pays for it. cost[i] is the
    number of original flips needed to flip bits[i].
    """
    cost = [1] * len(bits)
    lc = 0
    while len(bits) > 1:
        m = len(bits) // p
        to0 = []  # cost of making column i all 0
        to1 = []
        for i in range(m):
            col_cost = cost[i::m]
            ones = sum(c for b, c in zip(bits[i::m], col_cost) if b)
            to0.append(ones)
            to1.append(sum(col_cost) - ones)
        spend = sum(map(min, to0, to1))
        if spend <= k:
            k -= spend
            bits = [int(c1 < c0) for c0, c1 in zip(to0, to1)]
            cost = [abs(c1 - c0) for c0, c1 in zip(to0, to1)]
        else:
            lc += (p - 1) * m
            bits = [sum(bits[i::m]) & 1 for i in range(m)]
            cost = [min(cost[i::m]) for i in range(m)]
    return lc + (bits[0] == 1 and cost[0] > k)


def kerror_lc_profile(
    seq: PeriodicSequence, k_max: int, budget: int = DEFAULT_PATTERN_BUDGET
) -> list[tuple[int, int, bool]]:
    """k-error LC of a binary sequence as (k, lc_k, exact) for k = 0..k_max.

    The period alone picks the engine. A period p^n with 2 a primitive root
    modulo p^n gets the structural block recursion, and every entry is
    exact. Any other period gets one incremental exhaustive pass: weight w
    is searched once and serves every k >= w. Once the patterns searched
    would exceed the budget, the remaining entries are inexact and carry
    the last exact value, which is an upper bound.
    """
    if seq.alphabet_size != 2:
        raise ValueError("binary sequence required")
    if k_max < 0:
        raise ValueError(f"k_max must be >= 0, got {k_max}")
    p = _structural_prime(seq.period)
    if p is not None:
        return [(k, _kerror_lc_pn(seq.symbols, p, k), True) for k in range(k_max + 1)]
    mask = _seq_mask(seq)
    best = lc_binary(mask, seq.period)
    profile = [(0, best, True)]
    consumed = 1
    for k in range(1, k_max + 1):
        consumed += math.comb(seq.period, k)
        exact = consumed <= budget
        if exact and best > 0:
            best = min(best, _min_lc_at_weight(mask, seq.period, k))
        profile.append((k, best, exact))
    return profile


@dataclass(frozen=True)
class ErrorPattern:
    """Positions to flip in one period of a binary sequence."""

    period: int
    positions: tuple[int, ...]

    def __post_init__(self):
        pos = tuple(sorted(set(p % self.period for p in self.positions)))
        if len(pos) != len(self.positions):
            raise ValueError("error positions must be distinct modulo the period")
        object.__setattr__(self, "positions", pos)

    @property
    def weight(self) -> int:
        return len(self.positions)

    def apply(self, seq: PeriodicSequence) -> PeriodicSequence:
        if seq.period != self.period:
            raise ValueError(f"pattern period {self.period} != sequence period {seq.period}")
        return seq.flip(self.positions)


def constructive_error_pattern(m: PrimePowerModulus, kind: str) -> ErrorPattern:
    """Theorem-derived error patterns achieving the k-error LC drops.

    kind="lambda": multiples of p below p^r (weight p^{r-1}); flipping these
    drops the LC of an odd-|I| class sequence to p^{r+1} - p^r + 1.
    kind="lambda_times_full": units below p^r congruent to 1..p-1 modulo p
    paired with every multiple-of-p offset (weight p^{r-1}(p-1)); flipping
    drops the LC to p^{r+1} - p^r.
    """
    if m.r < 2:
        raise ValueError(f"constructive patterns need r >= 2, got r={m.r}")
    period = m.sequence_period
    if kind == "lambda":
        positions = tuple(b * m.p for b in range(m.p ** (m.r - 1)))
    elif kind == "lambda_times_full":
        positions = tuple(
            a + b * m.p
            for b in range(m.p ** (m.r - 1))
            for a in range(1, m.p)
        )
    else:
        raise ValueError(f"unknown pattern kind {kind!r}")
    return ErrorPattern(period=period, positions=positions)


# --- theorem profile for binary class sequences ---------------------------

@functools.lru_cache(maxsize=64)
def two_is_primitive_root_mod_p2(p: int) -> bool:
    return multiplicative_order(2, p * p) == p * (p - 1)


def theorem_precondition_error(m: PrimePowerModulus, index_size: int) -> str | None:
    """Why the theorem profile does not hold for (p, r, |I|), or None if it does.

    The theorem needs r >= 2, 1 <= |I| <= (p-1)/2 and 2 a primitive root
    modulo p^2.
    """
    p, r = m.p, m.r
    if r < 2:
        return f"theorem profile needs r >= 2, got r={r}"
    if not 1 <= index_size <= (p - 1) // 2:
        return f"index set size {index_size} outside [1, (p-1)/2 = {(p - 1) // 2}]"
    if not two_is_primitive_root_mod_p2(p):
        return (
            f"2 is not a primitive root modulo {p}^2 "
            f"(order {multiplicative_order(2, p * p)} != {p * (p - 1)}); "
            "no profile asserted"
        )
    return None


def theorem_kerror_lc(m: PrimePowerModulus, index_size: int, k: int) -> int:
    """Predicted k-error LC of the binary class sequence, |I| = index_size.

    Raises ValueError unless theorem_precondition_error finds the
    preconditions met. The zero branch starts at the sequence weight
    p^{r-1}(p-1)|I| (the theorem display's "(p-1)|I|" threshold disagrees
    with its proof; the proof's threshold is used).
    """
    reason = theorem_precondition_error(m, index_size)
    if reason:
        raise ValueError(reason)
    p, r = m.p, m.r
    weight = p ** (r - 1) * (p - 1) * index_size
    if k >= weight:
        return 0
    if index_size % 2 == 0:
        return p ** (r + 1) - p**r
    if k < p ** (r - 1):
        return p ** (r + 1) - p**r + p - 1
    if k < p ** (r - 1) * (p - 1):
        return p ** (r + 1) - p**r + 1
    return p ** (r + 1) - p**r


@dataclass
class ComplexityReport:
    """Linear complexity result with an optional k-error profile.

    kerror_profile entries are (k, lc_k, exact); exact means computed by a
    proven exact engine (the structural recursion or exhaustive search).
    An inexact lc_k is an upper bound: the last exact value before the
    exhaustive search ran out of pattern budget.
    """

    sequence_id: dict
    lc: int
    method: str
    kerror_profile: list[tuple[int, int, bool]] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return {
            "sequence": self.sequence_id,
            "lc": self.lc,
            "method": self.method,
            "kerror": [
                {"k": k, "lc": lc, "exact": exact}
                for k, lc, exact in self.kerror_profile
            ],
        }


def kerror_profile(
    seq: PeriodicSequence,
    m: PrimePowerModulus,
    levels,
    k_max: int,
) -> ComplexityReport:
    """k-error LC profile of a binary class sequence, checked against the theorem.

    Requires 2 primitive modulo p^2, r >= 2 and 1 <= |I| <= (p-1)/2, which
    theorem_kerror_lc enforces. The period p^{r+1} then takes the structural
    engine of kerror_lc_profile, so every entry is exact, LC_0 included. A
    disagreement between the computed profile and the theorem raises
    RuntimeError.
    """
    members = validate_index_set(m.p, levels, enforce_half=True)
    theorem_kerror_lc(m, len(members), 0)  # raises unless the theorem applies
    expected = binary_class_sequence(m, members)
    if seq.symbols != expected.symbols:
        raise ValueError("sequence is not the binary class sequence for (p, r, I)")

    profile = kerror_lc_profile(seq, k_max)
    for k, lc, _ in profile:
        predicted = theorem_kerror_lc(m, len(members), k)
        if lc != predicted:
            raise RuntimeError(
                f"computed LC_{k} = {lc} contradicts "
                f"predicted {predicted} at (p={m.p}, r={m.r}, I={sorted(members)})"
            )
    return ComplexityReport(
        sequence_id={
            "p": m.p,
            "r": m.r,
            "kind": "class",
            "I": sorted(members),
        },
        lc=profile[0][1],
        method="structural",
        kerror_profile=profile,
    )


# --- lemma-level divisibility checks over F_2 -----------------------------

def check_root_group_lemmas(m: PrimePowerModulus) -> bool:
    """Divisibility form of the class-polynomial root statements, r >= 2.

    For every class polynomial D_l(X) = sum_{u in D_l} X^u over F_2:
    (a) (X^{p^r}-1)/(X^p-1) divides D_l(X) mod (X^{p^r}-1);
    (b) D_l(X) == 1 modulo (X^p-1)/(X-1);
    (c) D_l(1) = 0, i.e. |D_l| is even.
    """
    if m.r < 2:
        raise ValueError(f"root-group lemmas need r >= 2, got r={m.r}")
    p, r = m.p, m.r
    pr = p**r
    xn1 = (1 << pr) | 1
    lam = 0
    for b in range(p ** (r - 1)):
        lam |= 1 << (b * p)
    cyclo_p = (1 << p) - 1  # 1 + X + ... + X^{p-1}
    partition = class_partition(m)
    for d_class in partition.classes:
        d_mask = 0
        for u in d_class:
            d_mask |= 1 << u
        if _bmod(_bmod(d_mask, xn1), lam) != 0:
            return False
        if _bmod(d_mask ^ 1, cyclo_p) != 0:
            return False
        if len(d_class) % 2 != 0:
            return False
    return True


def check_poly_p_lemma(p: int) -> bool:
    """Uniqueness of G with 1 <= deg G < p and G == 1 mod (X^p-1)/(X-1).

    Requires 2 primitive modulo p, making 1 + X + ... + X^{p-1} irreducible
    over F_2; the unique such G must be X + X^2 + ... + X^{p-1}. Verified by
    exhaustive search over all nonconstant candidates for p <= 13, by direct
    congruence check otherwise.
    """
    if multiplicative_order(2, p) != p - 1:
        raise ValueError(f"2 is not a primitive root modulo {p}")
    cyclo_p = (1 << p) - 1
    target = (1 << p) - 2  # X + X^2 + ... + X^{p-1}
    if p <= 13:
        matches = [
            g
            for g in range(2, 1 << p)
            if _bdeg(g) >= 1 and _bmod(g ^ 1, cyclo_p) == 0
        ]
        return matches == [target]
    return _bmod(target ^ 1, cyclo_p) == 0
