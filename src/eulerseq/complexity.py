"""Linear complexity and k-error linear complexity engines.

linear_complexity is the one entry point for LC, and the one place that
picks an LC engine, from the alphabet and the period: a binary sequence goes
to lc_binary (method "bitmask_gcd"), one Euclid loop on F_2[X] bitmasks with
the remainder step inlined; an F_p sequence whose period is a power of p
goes to the generalised Games-Chan recursion (method "games_chan"); any
other F_p sequence goes to lc_via_gcd, the gcd formula
LC = T - deg gcd(X^T - 1, S(X)) on byte-packed ints, for p <= 13 (method
"packed_gcd"), and past p = 13 to Berlekamp-Massey ("berlekamp_massey").
lc_via_gcd reads p from the prime alphabet size and refuses p > 13 with
ValueError. It, berlekamp_massey (a bitmask loop over F_2, a
coefficient-list loop for odd p) and lc_via_root_one (the root-1
multiplicity of S(X) at periods p^n) are the oracles the engines are
cross-checked against.
k-error linear complexity over F_2 has one entry point, kerror_lc_profile.
For a period p^n with p an odd prime that is not a Wieferich prime it runs
one pass of a cost-carrying block recursion, _kerror_lc_pn, that returns the
exact values LC_0..LC_k_max together. Its branches form three tiers, by the
cyclic code of length p each column must become: any word, or all-0 and
all-1, both closed forms and the only tiers when 2 is primitive modulo p;
between them, when 1 + Y + ... + Y^{p-1} has e = 2 factors over F_2, the
two codes they generate, enumerated. _CODE_DIMENSION_CAP admits these only
at p = 7, 17 and 23 (Hamming [7,4], quadratic-residue [17,9], Golay
[23,12]). For any other period it runs the exhaustive oracle
kerror_lc_bruteforce, one error-pattern pass under a pattern budget that
charges each pattern by its period's lc_binary cost, using bitmask F_2[X]
arithmetic. Both return the same (k, lc_k, exact) profile, so
the tests compare them entry by entry. An entry is "exact" when one of these
two proven engines computed it. check_theorem_profile compares a computed
profile of a binary class sequence with the piecewise-constant profile that
theorem_kerror_lc predicts when 2 is a primitive root modulo p^2. Orders
come from ntheory.n_order, and the two factors of 1 + Y + ... + Y^{p-1}
over F_2 from the quadratic-residue split, by _bgcd.
The root-group lemma checks over F_2 test each divisibility by a quotient
(X^n - 1)/(X^d - 1) with one _fold, the one F_2[X] remainder routine; the
G(X) lemma check counts the F_2 factors of 1 + X + ... + X^{p-1} by
Berlekamp's nullity.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import sys
from array import array
from collections.abc import Sequence

from .fieldarith import PrimeField
from .ntheory import factorint, isprime, n_order
from .quotients import PrimePowerModulus
from .sequences import PeriodicSequence, class_partition, validate_index_set


DEFAULT_PATTERN_BUDGET = 2 * 10**5


# --- linear complexity ----------------------------------------------------

def berlekamp_massey(seq: PeriodicSequence, fieldp: PrimeField) -> int:
    """Linear complexity over F_p via Berlekamp-Massey (Massey, IEEE Trans. IT 15, 1969).

    Runs on two concatenated periods, which guarantees convergence to the
    least recurrence order of the periodic extension. Over F_2 the
    polynomials are bitmasks: each discrepancy is the parity of c AND a
    window of the reversed sequence, bit i of which holds s_{n-i}, and each
    update is c ^= b << gap. For odd p they are coefficient lists, and each
    discrepancy sums c_i s_{n-i} over i <= L from a slice of the reversed
    sequence. A named oracle: linear_complexity runs it only for m-ary
    periods over p > 13, where the packed Euclid of lc_via_gcd cannot go.
    """
    if seq.alphabet_size != fieldp.p:
        raise ValueError(
            f"alphabet size {seq.alphabet_size} does not match field F_{fieldp.p}"
        )
    p = fieldp.p
    s = seq.symbols * 2
    top = len(s) - 1
    L = 0
    gap = 1
    if p == 2:
        rev = int(s.translate(_BIT_PLANE0), 2)  # bit top - j holds s[j]
        c = b = 1
        for n in range(len(s)):
            if (c & (rev >> (top - n))).bit_count() & 1:
                if 2 * L <= n:
                    c, b, L, gap = c ^ (b << gap), c, n + 1 - L, 0
                else:
                    c ^= b << gap
            gap += 1
        return L
    rev = s[::-1]  # rev[top - n + i] holds s[n - i]
    c = b = [1]
    last_disc = 1
    for n in range(len(s)):
        d = sum(map(operator.mul, c, rev[top - n : top - n + L + 1])) % p
        if d:
            # c - (d / last_disc) X^gap b, as c + q X^gap b
            q = p - d * pow(last_disc, -1, p) % p
            new = [(x + q * y) % p
                   for x, y in itertools.zip_longest(c, [0] * gap + b, fillvalue=0)]
            if 2 * L <= n:
                c, b, L, last_disc, gap = new, c, n + 1 - L, d, 0
            else:
                c = new
        gap += 1
    return L


@functools.cache
def _mod_p_table(p: int) -> bytes | None:
    """The byte table v -> v mod p of the packed Euclid, None if p(p-1) >= 256.

    A packed polynomial holds coefficient i in byte i. A remainder step adds
    (p - q) X^s b to a in one big-int multiply-add, so a byte slot sums to
    at most (p-1) + (p-1)^2 = p(p-1), then reduces every slot through this
    table. No slot carries into the next while p(p-1) < 256, that is p <= 13.
    """
    return bytes(v % p for v in range(256)) if p * (p - 1) < 256 else None


# Maps a byte to ASCII "1" when its bit 0 is set, else "0".
_BIT_PLANE0 = bytes(48 + (v & 1) for v in range(256))


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


def lc_via_root_one(seq: PeriodicSequence) -> int:
    """Linear complexity over F_p at period N = p^n, as N minus the root-1 multiplicity.

    Over F_p, X^N - 1 = (X - 1)^N, so LC = N - v, where v is the least t
    with c_t != 0 in S(Y + 1) = sum_t c_t Y^t (v = N for the zero sequence).
    By Lucas' theorem c_t = sum_i s_i C(i, t) factors over the base-p
    digits: each of n passes Taylor-shifts the top digit's p blocks,
    sum_j A_j Y^j -> sum_j A_j (Y + 1)^j (Horner), then shuffles them,
    out[j::p] = block j, to bring the next digit on top. Unlike Games-Chan,
    which keeps one block per level, it computes every coefficient. A block
    is one int of W-bit lanes, W = 8 for p <= 128 and 16 for p <= 2^15, so
    a sum t of two blocks carries into no other lane, and
    t - (((t + C) & G) >> (W-1)) p reduces it: G holds bit W-1 of each lane
    and C holds 2^{W-1} - p, so bit W-1 of t + C is set where t >= p.
    Raises ValueError unless p is prime and N is a power of p.
    """
    p, N = _field_size(seq), seq.period
    n = round(math.log(N, p))
    if p**n != N:
        raise ValueError(f"period {N} is not a power of the alphabet size {p}")
    code = next(t for t in "BHIQ" if p <= 1 << 8 * array(t).itemsize - 1)
    width = array(code).itemsize
    W = 8 * width
    # array() reads bytes as raw lane bytes, which is right only for 1-byte lanes
    vec = array(code, seq.symbols if width == 1 else list(seq.symbols))
    m = N // p
    ones = ((1 << W * m) - 1) // ((1 << W) - 1)  # 1 in each lane of a block
    G, C = ones << W - 1, ones * ((1 << W - 1) - p)
    size = width * m
    for _ in range(n):
        raw = vec.tobytes()
        blocks = [int.from_bytes(raw[j * size : (j + 1) * size], sys.byteorder)
                  for j in range(p)]
        for i in range(p - 1):
            for j in range(p - 2, i - 1, -1):
                t = blocks[j] + blocks[j + 1]
                blocks[j] = t - (((t + C) & G) >> W - 1) * p
        for j, block in enumerate(blocks):
            vec[j::p] = array(code, block.to_bytes(size, sys.byteorder))
    raw = vec.tobytes()
    return N - (len(raw) - len(raw.lstrip(b"\0"))) // width


def _field_size(seq: PeriodicSequence) -> int:
    """The sequence's alphabet size p; ValueError unless p is prime."""
    p = seq.alphabet_size
    if not isprime(p):
        raise ValueError(
            f"alphabet size {p} is not prime: linear complexity needs a prime field F_p"
        )
    return p


def _gcd_packed(a: int, b: int, p: int, mod_p: bytes) -> int:
    """gcd of a and b in F_p[X], up to a unit factor, on byte-packed ints.

    Byte i of a and b holds the coefficient of X^i, each below p, and
    p(p-1) < 256 (mod_p is _mod_p_table(p)). The degree is
    (bit_length - 1) >> 3, -1 for 0. Each remainder step cancels a's
    leading slot with one big-int multiply-add,
    a + (p - lead_a lead_b^-1) X^{da-db} b, whose slots do not carry, then
    reduces every slot through mod_p.
    """
    while b:
        db = (b.bit_length() - 1) >> 3
        inv = pow(b >> 8 * db, -1, p)
        da = (a.bit_length() - 1) >> 3
        while da >= db:
            a += (p - (a >> 8 * da) * inv % p) * (b << 8 * (da - db))
            a = int.from_bytes(a.to_bytes(da + 1, "little").translate(mod_p), "little")
            da = (a.bit_length() - 1) >> 3
        a, b = b, a
    return a


def lc_via_gcd(seq: PeriodicSequence) -> int:
    """Linear complexity by its definition, T - deg gcd(X^T - 1, S(X)), over F_p.

    p is the alphabet size, and ValueError is raised unless it is a prime
    p <= 13 (p(p-1) < 256, p = 2 included, so lc_binary is checked by
    separate code), the primes whose Euclid runs on byte-packed ints
    (_gcd_packed). The oracle for the other engines, and
    linear_complexity's engine for m-ary periods at p <= 13; past p = 13
    Berlekamp-Massey is the engine. gcd(X^T - 1, 0) = X^T - 1, so the zero
    sequence gives LC 0.
    """
    p, T = _field_size(seq), seq.period
    mod_p = _mod_p_table(p)
    if mod_p is None:
        raise ValueError(f"lc_via_gcd takes primes p <= 13, got p = {p}")
    s = int.from_bytes(bytes(seq.symbols), "little")
    g = _gcd_packed((1 << 8 * T) | (p - 1), s, p, mod_p)  # a = X^T - 1, b = S(X)
    return T - ((g.bit_length() - 1) >> 3)


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
    than the XORs. _cyclic_codes takes the generators of its factor codes
    from it too.
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
    return int(bytes(bits[::-1]).translate(_BIT_PLANE0), 2)


def linear_complexity(seq: PeriodicSequence) -> tuple[int, str]:
    """Linear complexity over the sequence's prime alphabet, with its engine.

    Binary sequences take the bitmask F_2[X] gcd ("bitmask_gcd"); F_p with a
    period that is a power of p takes Games-Chan ("games_chan"); any other
    period takes the byte-packed Euclid of lc_via_gcd for p <= 13
    ("packed_gcd") and Berlekamp-Massey over F_p above ("berlekamp_massey").
    Raises ValueError when the alphabet size is not prime.
    """
    if seq.alphabet_size == 2:
        return lc_binary(_mask(seq.symbols), seq.period), "bitmask_gcd"
    p, T = _field_size(seq), seq.period
    if factorint(T).keys() <= {p}:  # T is a power of p
        return _lc_games_chan(seq.symbols, p), "games_chan"
    if _mod_p_table(p) is not None:
        return lc_via_gcd(seq), "packed_gcd"
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
    weight: weight w is searched once and serves every k >= w. The budget
    counts lc_binary calls at their cost: each pattern, the unflipped
    sequence included, is charged ceil(N^2 / 2^20), the quadratic cost of
    one call at period N against one at N <= 1024, where the charge is 1.
    The pass stops once the charges would exceed the budget or the LC
    reaches 0; the remaining entries carry the last exact value, an upper
    bound that is inexact unless it is 0, the least LC there is. Raises
    ValueError unless the sequence is binary and 0 <= k_max <= period.
    """
    _check_kerror_args(seq, k_max)
    mask = _mask(seq.symbols)
    period = seq.period
    best = lc_binary(mask, period)
    profile = [(0, best, True)]
    consumed = cost = -(-period * period // 2**20)
    for k in range(1, k_max + 1):
        consumed += math.comb(period, k) * cost
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


# Largest dimension (p+1)/2 of an e = 2 factor code <f> that the k-error
# block recursion enumerates, 2^12 words per column: 7, 17 and 23 pass
# (dimension 4, 9 and 12). Below 50, 41 and 47 (dimension 21 and 24) fail
# it, 31 and 43 have e >= 3, and their periods keep the exhaustive oracle.
_CODE_DIMENSION_CAP = 12


@functools.cache
def _cyclic_codes(p: int) -> tuple | None:
    """The factor codes of length p for _kerror_lc_pn's middle tier, or None.

    Over F_2, Phi_p(Y) = 1 + Y + ... + Y^{p-1} splits into e = (p-1)/d
    irreducible factors of degree d = ord_p(2) (Lidl and Niederreiter,
    Finite Fields, Thm 2.47). When 2^{p-1} != 1 modulo p^2, that is when p
    is not a Wieferich prime, 2 has order p^{j-1}d modulo p^j, so each
    factor f(Y) stays irreducible as f(X^M) for every M = p^j. Returns ()
    when e = 1 (2 primitive modulo p). When e = 2, 2 generates the squares
    Q modulo p, and the quadratic-residue split gives the factors: with
    theta(Y) the sum of Y^q over q in Q and a root a of Phi_p,
    theta(a^k)^2 = theta(a^{2k}) = theta(a^k), so theta(a^k) lies in F_2.
    It is constant on Q and on the non-residues, and the two values sum to
    a + a^2 + ... + a^{p-1} = 1, so gcd(Phi_p, theta) and
    gcd(Phi_p, theta + 1) are the two factors. Then it returns their codes,
    the binary quadratic-residue codes of length p, each split by parity
    into (low halves, high halves) of its words: bit j of a word is the
    coefficient of Y^j, and the halves are the bits below and from (p+1)//2.
    None when p is a Wieferich prime, e >= 3 or a code has more than
    2^_CODE_DIMENSION_CAP words.
    """
    d = n_order(2, p)
    if pow(2, p - 1, p * p) == 1:
        return None
    if d == p - 1:
        return ()
    h = (p + 1) // 2
    if 2 * d != p - 1 or h > _CODE_DIMENSION_CAP:
        return None
    phi, theta = (1 << p) - 1, sum(1 << j * j % p for j in range(1, h))
    codes = []
    for g in (_bgcd(phi, theta), _bgcd(phi, theta ^ 1)):
        code = [0]
        for i in range(h):
            code += [w ^ (g << i) for w in code]
        codes.append(tuple(
            ([w & ((1 << h) - 1) for w in ws], [w >> h for w in ws])
            for ws in ([w for w in code if not w.bit_count() & 1],
                       [w for w in code if w.bit_count() & 1])
        ))
    return tuple(codes)


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
    f_t(Y) divides every c_i. So for a set T of the factors, with g_T their
    product, make every column a codeword of the cyclic code <g_T>; then
    LC = (p-1-deg g_T) M + LC at period M of the column parities. A column's
    cost_b is its cheapest codeword of parity b under the flip costs; T
    spends sum_i min(cost_0, cost_1), and the next level sees bit
    cost_1 < cost_0 at cost |cost_1 - cost_0|. The branches form three
    tiers: T = {} (the parities, at the cheapest bit's cost) and T = all
    factors (all-0 or all-1 columns) are closed forms; when e = 2 the middle
    tier, T = {f_1} or {f_2} of degree (p-1)/2, enumerates the 2^{(p+1)/2}
    words of each code in codes through two half-word subset-sum tables per
    column.

    The LC left at period M is at most M <= dM, so any affordable T of a
    higher tier beats every T of a lower one: a tier serves only k from its
    spend up to one below the least spend of the next tier. That is the
    only decision that depends on k, so one pass follows each branch for its
    own k range (as in Lauder and Paterson's one-pass error spectrum, IEEE
    Trans. IT 49, 2003), and the two branches of the middle tier meet by
    min. An empty range prunes a branch. For e = 1 the two branches are the
    sum of the blocks, for k below the spend, and the equal blocks from
    there on, and the whole profile costs at most about p/(p-2) single-k
    runs. cost[i] is the flips needed to flip bits[i]; k_max >= 0.
    """
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
    # each tier's deg g_T and, per T, its spend and the next level's input
    tiers = [(0, [(0, [sum(bits[i::m]) & 1 for i in range(m)],
                   [min(cost[i::m]) for i in range(m)])])]
    if codes:
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
                               for lows, highs in code] for code in codes]
            best.append(memo[gain])
        tiers.append(((p - 1) // 2, [_next_level(
            [ones + col[t][0] for ones, col in zip(to0, best)],
            [ones + col[t][1] for ones, col in zip(to0, best)]) for t in (0, 1)]))
    tiers.append((p - 1, [_next_level(to0, to1)]))
    profile = []
    for s, (deg, branches) in enumerate(tiers):
        top = k_max if s + 1 == len(tiers) else min(
            k_max, min(spend for spend, _, _ in tiers[s + 1][1]) - 1)
        start = len(profile)
        for spend, nbits, ncost in sorted(branches, key=lambda b: b[0]):
            if spend > top:
                break
            lcs = _kerror_lc_pn(nbits, ncost, p, codes, top - spend)
            lcs = [(p - 1 - deg) * m + lc for lc in lcs]
            if len(profile) == start:  # the cheapest T of its tier
                profile += lcs
            else:
                profile[spend:] = map(min, profile[spend:], lcs)
    return profile


def kerror_lc_profile(
    seq: PeriodicSequence, k_max: int, budget: int = DEFAULT_PATTERN_BUDGET
) -> list[tuple[int, int, bool]]:
    """k-error LC of a binary sequence as (k, lc_k, exact) for k = 0..k_max.

    The period alone picks the engine. A period p^n with p an odd prime that
    is not a Wieferich prime gets one pass of the structural block recursion
    _kerror_lc_pn, and every entry is exact, when 2 is primitive modulo p
    (two closed-form tiers) or p is 7, 17 or 23 (a middle tier through two
    Hamming [7,4], quadratic-residue [17,9] or Golay [23,12] codes, the only
    factor codes _cyclic_codes admits; below 50 it leaves out 31, 41,
    43 and 47). Any other period gets the exhaustive oracle
    kerror_lc_bruteforce under the pattern budget, in patterns each charged
    ceil(N^2 / 2^20) (1 up to N = 1024), whose entries turn inexact once
    the budget runs out before the LC reaches 0. Raises
    ValueError unless the sequence is binary and 0 <= k_max <= period.
    """
    primes = list(factorint(seq.period))
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
    order = n_order(2, p * p)
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


# Largest p that check_poly_p_lemma takes: its XOR basis holds up to p - 1
# rows of p - 1 bits, and at p near 2^14 building it peaks near 20 MB and
# takes about 0.05 s; both grow as p^2.
_POLY_P_CAP = 1 << 14


def poly_p_precondition_error(p: int) -> str | None:
    """Why check_poly_p_lemma refuses p, or None if it runs.

    The lemma needs 2 primitive modulo p, and the Berlekamp matrix is built
    for p <= _POLY_P_CAP only; the size is checked first, so a large p is
    refused before anything is computed. Raises ValueError when p < 2, or
    when p is even and within the cap. The test is on the order, not a
    primitive-root test, so that a composite p is refused: 2 is a primitive
    root modulo 9, but its order there is 6, not 8.
    """
    if p < 2:
        raise ValueError(f"p must be >= 2, got p={p}")
    if p > _POLY_P_CAP:
        return f"the Berlekamp matrix of Phi_p needs p <= {_POLY_P_CAP}, got p={p}"
    if n_order(2, p) != p - 1:
        return f"2 is not a primitive root modulo {p}"
    return None


def _cyclotomic_factor_count(p: int) -> int:
    """Number of irreducible factors over F_2 of Phi_p = 1 + X + ... + X^{p-1}.

    p is an odd prime. Phi_p divides X^p - 1, which is squarefree over F_2,
    so Berlekamp's theorem gives the count as the nullity of Q - I, where
    row i of Q is X^{2i} mod Phi_p = X^{2i mod p}, and X^{p-1} reduces to
    1 + X + ... + X^{p-2}. Each row is a (p-1)-bit mask; the rank comes
    from an XOR basis keyed by leading bit. The count is (p-1)/ord_p(2).
    """
    n = p - 1
    full = (1 << n) - 1  # X^{p-1} mod Phi_p
    basis: dict[int, int] = {}
    for i in range(n):
        e = 2 * i % p
        row = (full if e == n else 1 << e) ^ (1 << i)
        while row:
            top = row.bit_length() - 1
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return n - len(basis)


def check_poly_p_lemma(p: int) -> bool:
    """Uniqueness of G with 1 <= deg G < p and G == 1 mod (X^p-1)/(X-1).

    The lemma rests on Phi_p = 1 + X + ... + X^{p-1} being irreducible over
    F_2, which 2 primitive modulo p implies; then the unique such G is
    X + X^2 + ... + X^{p-1}. Checked as Berlekamp's factor count of Phi_p
    being 1, so the row fails when Phi_p splits. Raises ValueError when
    poly_p_precondition_error refuses p.
    """
    reason = poly_p_precondition_error(p)
    if reason:
        raise ValueError(reason)
    return _cyclotomic_factor_count(p) == 1
