"""Linear complexity and k-error linear complexity engines.

linear_complexity is the one entry point for LC, and the one place that
picks an LC engine, from the alphabet and the period: a binary sequence goes
to lc_binary (method "bitmask_gcd"), one Euclid loop on F_2[X] bitmasks with
the remainder step inlined; an F_p sequence whose period is a power of p
goes to the generalised Games-Chan recursion (method "games_chan"); any
other F_p sequence goes to Berlekamp-Massey (method "berlekamp_massey"),
which packs its polynomials into bytes for p <= 13 (a popcount per bit
plane for each discrepancy, one big-int multiply-add for each update). The
gcd formula LC = T - deg gcd(X^T - 1, S(X)), lc_via_gcd, computed with
sympy's gf_gcd over F_p, stays as the oracle the engines are cross-checked
against; like linear_complexity, it reads p from the prime alphabet size.
k-error linear complexity over F_2 has one entry point, kerror_lc_profile.
For a period p^n with p an odd prime that is not a Wieferich prime it runs
one pass of a cost-carrying block recursion, _kerror_lc_pn, that returns the
exact values LC_0..LC_k_max together. Its branches are the cyclic codes of
length p generated by products of the F_2 factors of 1 + Y + ... + Y^{p-1}:
the two extreme codes are closed forms, the only ones there are when 2 is
primitive modulo p, and the ones between are enumerated up to
_CODE_DIMENSION_CAP (below 50 that admits every odd prime but 31, 41, 43
and 47). For any other period it runs the exhaustive oracle
kerror_lc_bruteforce, one error-pattern pass under a pattern budget, using
bitmask F_2[X] arithmetic. Both return the same (k, lc_k, exact) profile, so
the tests compare them entry by entry. An entry is "exact" when one of these
two proven engines computed it. check_theorem_profile compares a computed
profile of a binary class sequence with the piecewise-constant profile that
theorem_kerror_lc predicts when 2 is a primitive root modulo p^2. Orders
come from sympy's n_order, and the factors of 1 + Y + ... + Y^{p-1} over
F_2 from its gf_factor_sqf.
The lemma checks over F_2 test each divisibility by a quotient
(X^n - 1)/(X^d - 1) with one _fold, the one F_2[X] remainder routine.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections.abc import Sequence

import sympy
from sympy import ZZ
from sympy.polys.galoistools import gf_factor_sqf, gf_gcd, gf_mul, gf_strip

from .fieldarith import PrimeField
from .quotients import PrimePowerModulus
from .sequences import PeriodicSequence, class_partition, validate_index_set


DEFAULT_PATTERN_BUDGET = 10**7


# --- linear complexity ----------------------------------------------------

def berlekamp_massey(seq: PeriodicSequence, fieldp: PrimeField) -> int:
    """Linear complexity over F_p via Berlekamp-Massey (Massey, IEEE Trans. IT 15, 1969).

    Runs on two concatenated periods, which guarantees convergence to the
    least recurrence order of the periodic extension. When p(p - 1) < 256,
    that is p <= 13, the polynomials are packed one coefficient per byte and
    _berlekamp_massey_packed runs: popcounts of bit planes give each
    discrepancy, and one big-int multiply-add gives each update, whose byte
    slots sum to at most p(p - 1) and so never carry. Larger alphabets take
    the coefficient-list loop below, the only path that can hold them.
    """
    if seq.alphabet_size != fieldp.p:
        raise ValueError(
            f"alphabet size {seq.alphabet_size} does not match field F_{fieldp.p}"
        )
    p = fieldp.p
    if p * (p - 1) < 256:
        return _berlekamp_massey_packed(seq.symbols, p)
    s = seq.symbols * 2
    c = b = [1]
    L = 0
    gap = 1
    last_disc = 1
    for n in range(len(s)):
        d = sum(c[i] * s[n - i] for i in range(L + 1)) % p
        if d == 0:
            gap += 1
            continue
        coef = d * pow(last_disc, -1, p) % p
        new = c + [0] * (len(b) + gap - len(c))
        for i, bi in enumerate(b):
            new[i + gap] = (new[i + gap] - coef * bi) % p
        if 2 * L <= n:
            L = n + 1 - L
            b = c
            last_disc = d
            gap = 1
        else:
            gap += 1
        c = new
    return L


# Plane a maps a byte to ASCII "1" when its bit a is set, else "0"; the
# symbols of F_p, p <= 13, fit in four planes.
_BIT_PLANES = tuple(bytes(48 + (v >> a & 1) for v in range(256)) for a in range(4))


def _berlekamp_massey_packed(symbols: Sequence[int], p: int) -> int:
    """Berlekamp-Massey over F_p, p(p - 1) < 256, on byte-packed polynomials.

    The connection polynomial c and the previous polynomial b are bytes,
    byte i holding coefficient i. Each value splits into nb = (p-1).bit_length()
    binary planes, so the discrepancy sum_{i <= L} c_i s_{n-i} is
    sum_{a,b} 2^{a+b} popcount(C_b & W_a) mod p: C_b is plane b of c as a
    bitmask, and W_a = R_a >> (2N - 1 - n), where R_a is plane a of the
    doubled sequence reversed, so bit i of W_a is plane a of s_{n-i} for
    i <= n and no bit lies above n. That covers c, since deg c <= L <= n in
    Berlekamp-Massey. The update c - coef X^gap b is one big-int multiply-add,
    c + (p - coef) X^gap b, reduced by one mod-p byte table: a byte slot sums
    to at most (p-1) + (p-1)^2 = p(p-1) < 256, so no slot carries into the next.
    """
    s = bytes(symbols) * 2
    planes = _BIT_PLANES[: (p - 1).bit_length()]
    seq_planes = [int(s.translate(t), 2) for t in planes]  # bit j holds s[2N-1-j]
    mod_p = bytes(v % p for v in range(256))
    c = b = b"\x01"
    c_planes = [1] + [0] * (len(planes) - 1)
    L = 0
    gap = 1
    last_disc = 1
    top = len(s) - 1
    for n in range(len(s)):
        d = 0
        for a, r in enumerate(seq_planes):
            w = r >> (top - n)
            for bb, cb in enumerate(c_planes):
                d += (cb & w).bit_count() << (a + bb)
        d %= p
        if d == 0:
            gap += 1
            continue
        coef = d * pow(last_disc, -1, p) % p
        update = int.from_bytes(c, "little") + (p - coef) * (
            int.from_bytes(b, "little") << 8 * gap
        )
        new = update.to_bytes(max(len(c), len(b) + gap), "little").translate(mod_p)
        if 2 * L <= n:
            L = n + 1 - L
            b = c
            last_disc = d
            gap = 1
        else:
            gap += 1
        c = new
        reversed_c = c[::-1]
        c_planes = [int(reversed_c.translate(t), 2) for t in planes]
    return L


def _lc_games_chan(symbols: Sequence[int], p: int) -> int:
    """Linear complexity over F_p of a sequence whose period N is a power of p.

    Generalised Games-Chan (Ding, Xiao, Shan, LNCS 561, 1991), O(pN) steps.
    With blocks A_j of length m = N/p, S(X) = sum_j A_j(X) Y^j, Y = X^m, and
    X^N - 1 = (Y - 1)^p = (X - 1)^N over F_p. Shifting Y -> Y + 1 gives
    S = sum_j B_j(X) (Y - 1)^j. The first nonzero B_j has degree < m, so its
    root-1 multiplicity is below that of Y - 1 = (X - 1)^m, and LC(S) =
    (p - 1 - j) m + LC(B_j) at period m. A zero sequence keeps its zero last
    block, down to LC 0.
    """
    lc = 0
    while len(symbols) > 1:
        m = len(symbols) // p
        blocks = [symbols[j * m : (j + 1) * m] for j in range(p)]
        for i in range(p - 1):  # sum_j A_j Y^j -> sum_j A_j (Y + 1)^j, Horner style
            for j in range(p - 2, i - 1, -1):
                blocks[j] = [(x + y) % p for x, y in zip(blocks[j], blocks[j + 1])]
        j = next((j for j in range(p) if any(blocks[j])), p - 1)
        lc += (p - 1 - j) * m
        symbols = blocks[j]
    return lc + (symbols[0] != 0)


def _field_size(seq: PeriodicSequence) -> int:
    """The sequence's alphabet size p; ValueError unless p is prime."""
    p = seq.alphabet_size
    if not sympy.isprime(p):
        raise ValueError(
            f"alphabet size {p} is not prime: linear complexity needs a prime field F_p"
        )
    return p


def lc_via_gcd(seq: PeriodicSequence) -> int:
    """Linear complexity by its definition, T - deg gcd(X^T - 1, S(X)), over F_p.

    p is the alphabet size, and ValueError is raised unless it is prime. The
    oracle for the other engines, through sympy's Euclidean gf_gcd, whose
    lists run from the top degree down. gcd(X^T - 1, 0) = X^T - 1, so the
    zero sequence gives LC 0.
    """
    p, T = _field_size(seq), seq.period
    xt1 = [1] + [0] * (T - 1) + [p - 1]
    return T - (len(gf_gcd(xt1, gf_strip(list(seq.symbols[::-1])), p, ZZ)) - 1)


# --- bitmask F_2[X] helpers; _fold is the one remainder routine ----------

def _fold(a: int, n: int) -> int:
    """Remainder of a modulo X^n - 1 in F_2[X], masks as bit vectors.

    X^s == 1 for every multiple s of n, so the bits from s upward are
    XOR-ed onto the bits below s. Taking s near half the length each time
    needs O(log) big-integer steps instead of one per bit.
    """
    while a.bit_length() > n:
        half = (a.bit_length() + 1) // 2
        s = -(-half // n) * n  # the least multiple of n that is >= half
        a = (a & ((1 << s) - 1)) ^ (a >> s)
    return a


def _bgcd(a: int, b: int) -> int:
    """gcd of a and b in F_2[X], masks as bit vectors.

    One Euclid loop with the remainder step inlined and degrees read from
    bit_length: exhaustive k-error search runs it once per error pattern,
    and at periods in the hundreds a function call per step costs more
    than the XORs.
    """
    while b:
        db = b.bit_length()
        da = a.bit_length()
        while da >= db:
            a ^= b << (da - db)
            da = a.bit_length()
        a, b = b, a
    return a


def lc_binary(mask: int, period: int) -> int:
    """LC over F_2 of the period given as a bitmask, N - deg gcd(X^N + 1, S(X)).

    One Euclid loop on bitmasks (_bgcd); gcd(X^N + 1, 0) gives LC 0.
    """
    return period + 1 - _bgcd((1 << period) | 1, mask).bit_length()


def _mask(bits: Sequence[int]) -> int:
    """0/1 values as an F_2[X] bitmask, bit i holding bits[i].

    One int parse of the reversed bits as ASCII digits, through bit plane 0:
    linear in the length, where OR-ing in one bit at a time is quadratic.
    """
    return int(bytes(bits[::-1]).translate(_BIT_PLANES[0]), 2)


def linear_complexity(seq: PeriodicSequence) -> tuple[int, str]:
    """Linear complexity over the sequence's prime alphabet, with its engine.

    Binary sequences take the bitmask F_2[X] gcd ("bitmask_gcd"); F_p with a
    period that is a power of p takes Games-Chan ("games_chan"); any other
    period takes Berlekamp-Massey over F_p ("berlekamp_massey"). Raises
    ValueError when the alphabet size is not prime.
    """
    if seq.alphabet_size == 2:
        return lc_binary(_mask(seq.symbols), seq.period), "bitmask_gcd"
    p, T = _field_size(seq), seq.period
    if p ** sympy.multiplicity(p, T) == T:
        return _lc_games_chan(seq.symbols, p), "games_chan"
    return berlekamp_massey(seq, PrimeField(p)), "berlekamp_massey"


# --- k-error linear complexity -------------------------------------------

def _check_kerror_args(seq: PeriodicSequence, k_max: int) -> None:
    if seq.alphabet_size != 2:
        raise ValueError("binary sequence required")
    if not 0 <= k_max <= seq.period:
        raise ValueError(f"k_max must lie in [0, {seq.period}], got {k_max}")


def kerror_lc_bruteforce(
    seq: PeriodicSequence, k_max: int, budget: int = DEFAULT_PATTERN_BUDGET
) -> list[tuple[int, int, bool]]:
    """k-error LC of a binary sequence by exhaustion, as (k, lc_k, exact) for k = 0..k_max.

    One incremental pass minimizes LC over the error patterns of each
    weight: weight w is searched once and serves every k >= w. The pass
    stops once the patterns would exceed the budget or the LC reaches 0;
    the remaining entries carry the last exact value, an upper bound that
    is inexact unless it is 0, the least LC there is. Raises ValueError
    unless the sequence is binary and 0 <= k_max <= period.
    """
    _check_kerror_args(seq, k_max)
    mask = _mask(seq.symbols)
    period = seq.period
    best = lc_binary(mask, period)
    profile = [(0, best, True)]
    consumed = 1
    for k in range(1, k_max + 1):
        consumed += math.comb(period, k)
        if consumed > budget or best == 0:
            break
        for positions in itertools.combinations(range(period), k):
            e = 0
            for q in positions:
                e |= 1 << q
            lc = lc_binary(mask ^ e, period)
            if lc < best:
                best = lc
                if best == 0:
                    break
        profile.append((k, best, True))
    # LC_k never increases and never goes below 0, so a 0 is exact
    profile += [(k, best, best == 0) for k in range(len(profile), k_max + 1)]
    return profile


# Largest dimension p - deg g_T of an intermediate cyclic code that the
# k-error block recursion enumerates, 2^12 words per column. Of the odd
# non-Wieferich primes below 50 with 2 not primitive, 7, 17 and 23 (dimension
# 4, 9 and 12) are inside it; 31, 41, 43 and 47 (dimension 26, 21, 29 and
# 24) are not, and their periods keep the exhaustive oracle.
_CODE_DIMENSION_CAP = 12


@functools.cache
def _cyclic_codes(p: int) -> tuple | None:
    """The intermediate cyclic codes of length p for _kerror_lc_pn, or None.

    Over F_2, Phi_p(Y) = 1 + Y + ... + Y^{p-1} splits into e = (p-1)/d
    irreducible factors of degree d = ord_p(2) (Lidl and Niederreiter,
    Finite Fields, Thm 2.47). When ord_{p^2}(2) = pd, that is when p is not
    a Wieferich prime, 2 has order p^{j-1}d modulo p^j, so each factor f(Y)
    stays irreducible as f(X^M) for every M = p^j. Returns (sizes, words).
    words holds, for each subset T of s = 1..e-1 factors, the words of the
    cyclic code <g_T> of length p, g_T the product of the factors in T,
    split by parity into (low halves, high halves): bit j of a word is the
    coefficient of Y^j, and the halves are the bits below and from
    (p+1)//2. sizes holds (s d, indices into words) for each s. The empty
    and the full set are left to closed forms, so e = 1 (2 primitive
    modulo p) gives ((), ()). None when p is a Wieferich prime or a code
    has more than 2^_CODE_DIMENSION_CAP words.
    """
    d = sympy.n_order(2, p)
    if sympy.n_order(2, p * p) != p * d:
        return None
    if d == p - 1:  # e = 1; factoring Phi_p anyway would take 2 s at p = 509
        return (), ()
    if p - d > _CODE_DIMENSION_CAP:
        return None
    _, factors = gf_factor_sqf([1] * p, 2, ZZ)
    h = (p + 1) // 2
    sizes, words = [], []
    for s in range(1, len(factors)):
        subsets = list(itertools.combinations(factors, s))
        sizes.append((s * d, range(len(words), len(words) + len(subsets))))
        for subset in subsets:
            g = functools.reduce(lambda a, f: gf_mul(a, f, 2, ZZ), subset, [1])
            g = int("".join(map(str, g)), 2)
            code = [0]
            for i in range(p - s * d):
                code += [w ^ (g << i) for w in code]
            words.append(tuple(
                ([w & ((1 << h) - 1) for w in ws], [w >> h for w in ws])
                for ws in ([w for w in code if not w.bit_count() & 1],
                           [w for w in code if w.bit_count() & 1])
            ))
    return tuple(sizes), tuple(words)


def _subset_sums(values: Sequence[int]) -> list[int]:
    """Entry v is the sum of values[b] over the set bits b of v."""
    sums = [0]
    for x in values:
        sums += [a + x for a in sums]
    return sums


def _next_level(cost0: list[int], cost1: list[int]) -> tuple[int, list[int], list[int]]:
    """A branch's spend, sum_i min(cost0[i], cost1[i]), and the next level's bits and costs.

    Column i becomes parity bit cost1[i] < cost0[i] at the next level, and
    flipping that bit costs the difference.
    """
    return (sum(map(min, cost0, cost1)), [int(y < x) for x, y in zip(cost0, cost1)],
            [abs(y - x) for x, y in zip(cost0, cost1)])


def _kerror_lc_pn(
    bits: Sequence[int], cost: Sequence[int], p: int, codes: tuple, k_max: int
) -> list[int]:
    """Exact LC_0..LC_k_max over F_2 of a p^n-periodic sequence, p non-Wieferich.

    Block recursion for p^n-periodic LC (Xiao, Wei, Lam, Imamura, IEEE
    Trans. IT 46, 2000) carrying flip costs as in Stamp and Martin (IEEE
    Trans. IT 39, 1993), extended to p where 2 is not primitive. With period
    N = pM and Y = X^M, X^N - 1 = (X^M - 1) prod_t f_t(X^M), squarefree,
    each f_t(X^M) irreducible of degree dM (see _cyclic_codes). Column i is
    c_i(Y) = sum_j bits[i + jM] Y^j, and f_t(X^M) divides S(X) exactly when
    f_t(Y) divides every c_i. So for each subset T of the factors, with
    g_T their product, make every column a codeword of the cyclic code <g_T>;
    then LC = (p-1-deg g_T) M + LC at period M of the column parities. A
    column's cost_b is its cheapest codeword of parity b under the flip
    costs; T spends sum_i min(cost_0, cost_1), and the next level sees bit
    cost_1 < cost_0 at cost |cost_1 - cost_0|. T = {} (the parities, at the
    cheapest bit's cost) and T = all factors (all-0 or all-1 columns) are
    closed forms; only the codes in between are enumerated, 2^{p - deg g_T}
    words each, through two half-word subset-sum tables per column.

    The LC left at period M is at most M <= dM, so any affordable T with
    more factors beats every T with fewer: the T of size s serve only
    k from their spend up to one below the least spend of size s+1. That is
    the only decision that depends on k, so one pass follows each branch for
    its own k range (as in Lauder and Paterson's one-pass error spectrum,
    IEEE Trans. IT 49, 2003), and branches of one size meet by min. An empty
    range prunes a branch. For e = 1 the two branches are the sum of the
    blocks, for k below the spend, and the equal blocks from there on, and
    the whole profile costs at most about p/(p-2) single-k runs. cost[i] is
    the flips needed to flip bits[i].
    """
    if k_max < 0:
        return []
    if len(bits) == 1:
        return [int(bits[0] == 1 and cost[0] > k) for k in range(k_max + 1)]
    m = len(bits) // p
    to0 = []  # cost of making column i all 0
    to1 = []
    for i in range(m):
        col_cost = cost[i::m]
        ones = sum(itertools.compress(col_cost, bits[i::m]))
        to0.append(ones)
        to1.append(sum(col_cost) - ones)
    # each |T| with deg g_T and, per T, its spend and the next level's input
    by_size = [(0, [(0, [sum(bits[i::m]) & 1 for i in range(m)],
                     [min(cost[i::m]) for i in range(m)])])]
    sizes, words = codes
    if sizes:
        h = (p + 1) // 2  # the half-word split of _cyclic_codes
        memo = {}
        best = []  # per column, per code and parity, the least sum of gains over its words
        for i in range(m):
            # the change in cost from setting bit j of the column
            gain = tuple(-c if b else c for b, c in zip(bits[i::m], cost[i::m]))
            if gain not in memo:
                lo, hi = _subset_sums(gain[:h]), _subset_sums(gain[h:])
                memo[gain] = [[min(map(int.__add__, map(lo.__getitem__, lows),
                                       map(hi.__getitem__, highs)))
                               for lows, highs in code] for code in words]
            best.append(memo[gain])
        for deg, indices in sizes:
            branches = []
            for t in indices:
                cost0 = [ones + col[t][0] for ones, col in zip(to0, best)]
                cost1 = [ones + col[t][1] for ones, col in zip(to0, best)]
                branches.append(_next_level(cost0, cost1))
            by_size.append((deg, branches))
    by_size.append((p - 1, [_next_level(to0, to1)]))
    profile = []
    for s, (deg, branches) in enumerate(by_size):
        top = k_max if s + 1 == len(by_size) else min(
            k_max, min(spend for spend, _, _ in by_size[s + 1][1]) - 1)
        start = len(profile)
        for spend, nbits, ncost in sorted(branches, key=lambda b: b[0]):
            if spend > top:
                break
            lcs = _kerror_lc_pn(nbits, ncost, p, codes, top - spend)
            lcs = [(p - 1 - deg) * m + lc for lc in lcs]
            if len(profile) == start:  # the cheapest T of its size
                profile += lcs
            else:
                profile[spend:] = map(min, profile[spend:], lcs)
    return profile


def kerror_lc_profile(
    seq: PeriodicSequence, k_max: int, budget: int = DEFAULT_PATTERN_BUDGET
) -> list[tuple[int, int, bool]]:
    """k-error LC of a binary sequence as (k, lc_k, exact) for k = 0..k_max.

    The period alone picks the engine. A period p^n with p an odd prime that
    is not a Wieferich prime, and whose cyclic codes of length p fit
    _CODE_DIMENSION_CAP (below 50, every odd prime but 31, 41, 43 and 47),
    gets one pass of the structural block recursion _kerror_lc_pn, and
    every entry is exact. Any other period gets the exhaustive oracle
    kerror_lc_bruteforce under the pattern budget, whose entries turn
    inexact once the budget runs out before the LC reaches 0. Raises
    ValueError unless the sequence is binary and 0 <= k_max <= period.
    """
    primes = sympy.primefactors(seq.period)
    codes = _cyclic_codes(primes[0]) if len(primes) == 1 and primes[0] != 2 else None
    if codes is None:
        return kerror_lc_bruteforce(seq, k_max, budget)
    _check_kerror_args(seq, k_max)
    lcs = _kerror_lc_pn(seq.symbols, [1] * seq.period, primes[0], codes, k_max)
    return [(k, lc, True) for k, lc in enumerate(lcs)]


def constructive_error_patterns(
    m: PrimePowerModulus,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The theorem's two error patterns achieving the k-error LC drops, (lam, full).

    A pattern is the sorted tuple of positions to flip in one period p^{r+1};
    its weight is its length, and seq.flip(pattern) applies it.
    lam, the pattern lambda: the multiples of p below p^r (weight p^{r-1});
    flipping these drops the LC of an odd-|I| class sequence to
    p^{r+1} - p^r + 1.
    full, the pattern lambda x full: b + a for each b in lam and each
    a = 1..p-1, the units below p^r (weight p^{r-1}(p-1)); flipping these
    drops the LC to p^{r+1} - p^r.
    """
    if m.r < 2:
        raise ValueError(f"constructive patterns need r >= 2, got r={m.r}")
    lam = tuple(range(0, m.modulus, m.p))
    return lam, tuple(b + a for b in lam for a in range(1, m.p))


# --- theorem profile for binary class sequences ---------------------------

@functools.cache
def theorem_precondition_error(m: PrimePowerModulus, index_size: int) -> str | None:
    """Why the theorem profile does not hold for (p, r, |I|), or None if it does.

    The theorem needs r >= 2, 1 <= |I| <= (p-1)/2 and 2 a primitive root
    modulo p^2. Cached, since check_theorem_profile asks once per entry.
    """
    p, r = m.p, m.r
    if r < 2:
        return f"theorem profile needs r >= 2, got r={r}"
    if not 1 <= index_size <= (p - 1) // 2:
        return f"index set size {index_size} outside [1, (p-1)/2 = {(p - 1) // 2}]"
    order = sympy.n_order(2, p * p)
    if order != p * (p - 1):
        return (
            f"2 is not a primitive root modulo {p}^2 "
            f"(order {order} != {p * (p - 1)}); no profile asserted"
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


def check_theorem_profile(
    profile: list[tuple[int, int, bool]], m: PrimePowerModulus, levels
) -> None:
    """Check a computed k-error profile of a class sequence against the theorem.

    profile holds (k, lc_k, exact) entries from kerror_lc_profile. Raises
    ValueError, through theorem_kerror_lc, unless the theorem's
    preconditions hold, and RuntimeError at the first entry whose lc_k
    contradicts the predicted value.
    """
    members = sorted(validate_index_set(m.p, levels))
    for k, lc, _ in profile:
        predicted = theorem_kerror_lc(m, len(members), k)
        if lc != predicted:
            raise RuntimeError(
                f"computed LC_{k} = {lc} contradicts "
                f"predicted {predicted} at (p={m.p}, r={m.r}, I={members})"
            )


# --- lemma-level divisibility checks over F_2 -----------------------------

def check_root_group_lemmas(m: PrimePowerModulus) -> bool:
    """Divisibility form of the class-polynomial root statements, r >= 2.

    For every class polynomial D_l(X) = sum_{u in D_l} X^u over F_2:
    (a) (X^{p^r}-1)/(X^p-1) divides D_l(X) mod (X^{p^r}-1);
    (b) D_l(X) == 1 modulo (X^p-1)/(X-1);
    (c) D_l(1) = 0, i.e. |D_l| is even.

    Each D_l(X) is built by marking the class's positions in one bytearray
    of length p^{r+1}. A divisor c(X) of X^n - 1 divides A(X) exactly when
    X^n - 1 divides A(X) (X^n - 1)/c(X), so (a) is tested as
    (X^{p^r}-1) | D_l(X)(X^p-1) and (b) as (X^p-1) | (D_l(X)-1)(X-1), each
    with one _fold.
    """
    if m.r < 2:
        raise ValueError(f"root-group lemmas need r >= 2, got r={m.r}")
    p, pr = m.p, m.modulus
    for d_class in class_partition(m).classes:
        marks = bytearray(m.sequence_period)
        for u in d_class:
            marks[u] = 1
        d_mask = _mask(marks)
        if _fold(d_mask ^ (d_mask << p), pr) != 0:
            return False
        off_one = d_mask ^ 1  # D_l(X) - 1
        if _fold(off_one ^ (off_one << 1), p) != 0:
            return False
        if len(d_class) % 2 != 0:
            return False
    return True


def poly_p_precondition_error(p: int) -> str | None:
    """Why check_poly_p_lemma refuses p, or None if it runs.

    The lemma needs 2 primitive modulo p, and the exhaustive search covers
    p <= 13. Raises ValueError when p < 2 or p is even. The test is on the
    order, not sympy.is_primitive_root, so that a composite p is refused:
    2 is a primitive root modulo 9, but its order there is 6, not 8.
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got p={p}")
    if sympy.n_order(2, p) != p - 1:
        return f"2 is not a primitive root modulo {p}"
    if p > 13:
        return f"exhaustive G(X) search needs p <= 13, got p={p}"
    return None


def check_poly_p_lemma(p: int) -> bool:
    """Uniqueness of G with 1 <= deg G < p and G == 1 mod (X^p-1)/(X-1).

    2 primitive modulo p makes 1 + X + ... + X^{p-1} irreducible over F_2;
    the unique such G must be X + X^2 + ... + X^{p-1}. Verified by
    exhaustive search over all nonconstant candidates, each tested as lemma
    (b) is in check_root_group_lemmas, by one _fold:
    (X^p-1) | (G(X)-1)(X-1) = G(X)(X+1) + X + 1. Raises ValueError when
    poly_p_precondition_error refuses p.
    """
    reason = poly_p_precondition_error(p)
    if reason:
        raise ValueError(reason)
    matches = [g for g in range(2, 1 << p) if _fold(g ^ (g << 1) ^ 3, p) == 0]
    return matches == [(1 << p) - 2]  # X + X^2 + ... + X^{p-1}
