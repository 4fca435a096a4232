"""Linear complexity and k-error linear complexity engines.

linear_complexity is the one entry point for LC, and the one place that
picks an LC engine, from the alphabet q and the period N. A period N = p^n,
p a prime above q with q^{p-1} != 1 mod p^2, goes to the cyclotomic engine
(method "cyclotomic"), which tests which factors f_t(X^{p^{j-1}}) of
X^N - 1 divide S(X), the f_t being the factors of 1 + Y + ... + Y^{p-1}
over F_q that _cyclotomic_split finds by Gaussian periods. In-process on a
shared 2-core host it takes 0.08 s on the m-ary period at (79,2) order 13
and 2 ms on the binary class period at (3,11), where the quadratic engines
took 25-35 s and 3.8 s. Every other binary sequence goes
to lc_binary (method "bitmask_gcd"), one Euclid loop on F_2[X] bitmasks
with the remainder step inlined; an F_q sequence whose period is a power
of q goes to the generalised Games-Chan recursion (method "games_chan");
any other F_q sequence, at every prime q, the base-q Wieferich pairs such
as q = 3, p = 11 included, goes to lc_via_gcd, the gcd formula LC = T -
deg gcd(X^T - 1, S(X)) (method "packed_gcd"). The F_q engines hold a
period as one int of W-bit lanes (_lanes) and reduce every lane mod q at
once by the same masked subtraction (_lane_reduction). lc_binary,
lc_via_gcd, berlekamp_massey and lc_games_chan_lists (Games-Chan on Python
lists, at periods p^n) are the oracles the engines are cross-checked
against.
berlekamp_massey is one loop on the Euclid's lanes for every prime field
(1-bit lanes and XOR over F_2); on the 100 random sequences of verify's
oracles suite it takes 7.5-11.5 ms over seeds 0-9, where a coefficient-list
loop for odd p took 41-73 ms, and the packed Euclid takes 9-12 ms.
k-error linear complexity over F_2 has one entry point, kerror_lc_profile.
For a period p^n with p an odd prime that is not a Wieferich prime it runs
one pass of a cost-carrying block recursion, _kerror_lc_pn, that returns
the exact profile LC_0..LC_k_max as its breakpoints (k, lc), where LC
drops. Every k-error profile, from either engine, is such a list of
breakpoints (k, lc_k, exact): the entry at k = 0 and one at each k where lc
or exact changes. profile_entries expands one into an entry per k, and
only the CLI's report calls it. Each level holds
its bits and flip costs as buffers of 8-, 16-, 32- or 64-bit lanes, the
least width whose guard bit lies above p times the level's cost bound, so
every column statistic is O(p) big-int operations on slices of the buffers.
Its branches form three tiers, by the cyclic code of length p each column
must become: any word, or all-0 and all-1, both closed forms and the only
tiers when 2 is primitive modulo p; between them, when 1 + Y + ... +
Y^{p-1} has e = 2 factors over F_2, the two codes they generate, enumerated
column by column. On a shared 2-core host the whole profile takes 0.2 s at
(3,13) and 0.4 s at (101,3), where per-column loops on lists took 4.8 s
and 7.4 s.
_CODE_DIMENSION_CAP admits these only at p = 7, 17 and 23 (Hamming [7,4],
quadratic-residue [17,9], Golay [23,12]). For any other period it runs the
exhaustive oracle kerror_lc_bruteforce, one error-pattern pass under a
pattern budget that charges each pattern by its period's lc_binary cost,
using bitmask F_2[X] arithmetic. Both return the same breakpoints, so
the tests compare them point by point. An entry is "exact" when one of
these two proven engines computed it. check_theorem_profile compares the
breakpoints of a computed profile of a binary class sequence with those of
the step function that the theorem predicts when 2 is a primitive root
modulo p^2 (_theorem_steps; theorem_kerror_lc reads one value). Orders
come from ntheory.n_order, and the two factors of 1 + Y + ... + Y^{p-1}
over F_2 from _cyclotomic_split, the quadratic-residue split at e = 2.
The root-group lemma checks over F_2 test each divisibility by a quotient
(X^n - 1)/(X^d - 1) with one _fold, the one F_2[X] remainder routine; the
G(X) lemma check counts the F_2 factors of 1 + X + ... + X^{p-1} by
Berlekamp's nullity.
"""

from __future__ import annotations

import functools
import itertools
import math
import sys
from array import array
from collections.abc import Iterator, Sequence

from .fieldarith import PrimeField
from .ntheory import factorint, isprime, n_order
from .quotients import PrimePowerModulus
from .sequences import PeriodicSequence, top_digits, validate_index_set


DEFAULT_PATTERN_BUDGET = 2 * 10**5


# --- linear complexity ----------------------------------------------------

def berlekamp_massey(seq: PeriodicSequence, fieldp: PrimeField) -> int:
    """Linear complexity over F_p via Berlekamp-Massey (Massey, IEEE Trans. IT 15, 1969).

    Runs on two concatenated periods S, which guarantees convergence to the
    least recurrence order of the periodic extension. The connection
    polynomial C(X) is never built: c holds the product C(X) S(X) and b the
    product X^m B(X) S(X) of the last length change's C, with its gap m
    applied, both as ints of W-bit lanes. Before step n, c is shifted right
    n lanes, and so its low lane is the discrepancy d = sum_i c_i s_{n-i}
    (deg C <= L <= n); b stays put while m and n both grow by one. Each
    update is c + q b, q = -d / d_B, one big-int multiply-add. For odd p the
    lanes are those of lc_via_gcd's Euclid, W = _lane_width(p 2^{K-1}), K =
    bit_length(p-1), so a sum of at most p(p-1) carries into no other lane,
    and _lane_reduction's masked steps bring every lane back below p. Over
    F_2 the lanes are 1 bit wide and the update is c ^ b. B = 1 counts as
    stored one step before n = 0 (m = 1), so b starts as c shifted up one
    lane. A named oracle that no engine path calls: verify's oracles suite
    and the tests check lc_via_gcd against it. A random period over F_3
    takes 4 ms at N = 729 and 29 ms at N = 2,187, against 35 ms and 311 ms
    in a coefficient-list loop that summed each discrepancy from a slice.
    """
    if seq.alphabet_size != fieldp.p:
        raise ValueError(
            f"alphabet size {seq.alphabet_size} does not match field F_{fieldp.p}"
        )
    p = fieldp.p
    s = seq.symbols * 2
    if p == 2:
        W, c = 1, _mask(s)
    else:
        W = _lane_width(p << (p - 1).bit_length() - 1)
        c = _lanes(s, W)
        G, steps = _lane_reduction(p, W, len(s) + 1)
    lane = (1 << W) - 1
    b, L, inv = c << W, 0, 1  # inv = 1 / d_B
    for n in range(len(s)):
        d = c & lane
        if d:
            if p == 2:
                new = c ^ b
            else:
                new = c + (p - d * inv % p) * b
                for C, v in steps:
                    new -= (((new + C) & G) >> W - 1) * v
            if 2 * L <= n:
                b, L, inv = c, n + 1 - L, pow(d, -1, p)
            c = new
        c >>= W
    return L


# Maps a byte to ASCII "1" when its bit 0 is set, else "0".
_BIT_PLANE0 = bytes(48 + (v & 1) for v in range(256))


def _lane_width(v: int) -> int:
    """The least lane width W, a multiple of 8, with v < 2^(W-1)."""
    return -(-(v.bit_length() + 1) // 8) * 8


def _lanes(symbols: bytes | tuple[int, ...], W: int) -> int:
    """The symbols as one int of little-endian W-bit lanes, lane i holding symbols[i].

    Bytes storage is one stride assignment, tuple storage a join of int.to_bytes.
    """
    if isinstance(symbols, bytes):
        lanes = bytearray(len(symbols) * (W // 8))
        lanes[:: W // 8] = symbols
    else:
        lanes = b"".join(map(int.to_bytes, symbols, itertools.repeat(W // 8),
                             itertools.repeat("little")))
    return int.from_bytes(lanes, "little")


def _lane_reduction(p: int, W: int, n: int) -> tuple[int, list[tuple[int, int]]]:
    """The mask G and the steps (C, v) of the masked lane reduction mod p, on n W-bit lanes.

    G holds bit W-1 of each lane. For v = p 2^k, k = K-1 down to 0, K =
    bit_length(p-1), C holds 2^{W-1} - v in each lane, so bit W-1 of t + C
    is set where lane t >= v, and t - (((t + C) & G) >> (W-1)) v subtracts
    v there. Each step halves the bound: lanes below p 2^K, such as a
    multiply-add's p(p-1), end below p, which needs p 2^{K-1} < 2^{W-1}.
    The last step, v = p, alone takes lanes below 2p to below p, and needs
    only p < 2^{W-1}.
    """
    ones = ((1 << W * n) - 1) // ((1 << W) - 1)  # 1 in each of n lanes
    return ones << W - 1, [(ones * ((1 << W - 1) - v), v)
                           for v in (p << k for k in reversed(range((p - 1).bit_length())))]


def _lc_games_chan(seq: PeriodicSequence) -> int:
    """Linear complexity over F_p of a sequence whose period N is a power of p.

    Generalised Games-Chan (Ding, Xiao, Shan, LNCS 561, 1991), O(pN) steps.
    With blocks A_j of length m = N/p, S(X) = sum_j A_j(X) Y^j, Y = X^m, and
    X^N - 1 = (Y - 1)^p = (X - 1)^N over F_p. Shifting Y -> Y + 1 gives
    S = sum_j B_j(X) (Y - 1)^j. The first nonzero B_j has degree < m, so its
    root-1 multiplicity is below that of Y - 1 = (X - 1)^m, and LC(S) =
    (p - 1 - j) m + LC(B_j) at period m. A zero sequence keeps its zero last
    block, down to LC 0. The period is one int of W-bit lanes (_lanes),
    W = _lane_width(p): 8 up to p = 127, 16 up to 2^15, 24 up to 2^23 and
    wider past that, 72 at p = 2^64 + 13, which the tests reach at period 1.
    A block is a slice of lanes, a sum t of two blocks carries into no other
    lane, and the last step of _lane_reduction, v = p, reduces it. The
    caller checks that p is prime and N a power of p.
    """
    p, N = seq.alphabet_size, seq.period
    W = _lane_width(p)
    x, lc = _lanes(seq.symbols, W), 0
    while N > 1:
        N //= p
        block = (1 << W * N) - 1
        G, steps = _lane_reduction(p, W, N)
        C = steps[-1][0]
        blocks = [x >> j * W * N & block for j in range(p)]
        for i in range(p - 1):  # sum_j A_j Y^j -> sum_j A_j (Y + 1)^j, Horner style
            for j in range(p - 2, i - 1, -1):
                t = blocks[j] + blocks[j + 1]
                blocks[j] = t - (((t + C) & G) >> W - 1) * p
        j = next((j for j in range(p) if blocks[j]), p - 1)
        lc += (p - 1 - j) * N
        x = blocks[j]
    return lc + (x != 0)


def lc_games_chan_lists(seq: PeriodicSequence) -> int:
    """Linear complexity over F_p at period N = p^n, Games-Chan on Python lists.

    The recursion of _lc_games_chan, with each block a list of symbols and
    each Horner sum reduced symbol by symbol. A named oracle: verify's lc-p
    suite checks linear_complexity's lane engine against it at every size.
    Raises ValueError unless p is prime and N is a power of p.
    """
    p, N = _field_size(seq), seq.period
    if p ** round(math.log(N, p)) != N:
        raise ValueError(f"period {N} is not a power of the alphabet size {p}")
    symbols, lc = seq.symbols, 0
    while len(symbols) > 1:
        m = len(symbols) // p
        blocks = [symbols[j * m : (j + 1) * m] for j in range(p)]
        for i in range(p - 1):
            for j in range(p - 2, i - 1, -1):
                blocks[j] = [(x + y) % p for x, y in zip(blocks[j], blocks[j + 1])]
        j = next((j for j in range(p) if any(blocks[j])), p - 1)
        lc += (p - 1 - j) * m
        symbols = blocks[j]
    return lc + (symbols[0] != 0)


def _field_size(seq: PeriodicSequence) -> int:
    """The sequence's alphabet size p; ValueError unless p is prime."""
    p = seq.alphabet_size
    if not isprime(p):
        raise ValueError(
            f"alphabet size {p} is not prime: linear complexity needs a prime field F_p"
        )
    return p


def _gcd_packed(a: int, b: int, p: int, W: int, n: int) -> int:
    """gcd of a and b in F_p[X], up to a unit factor, on W-bit lanes.

    Lane i of a and b, of at most n lanes, holds the coefficient of X^i,
    below p; the degree is (bit_length - 1) // W, -1 for 0. Each remainder
    step cancels a's leading lane with one big-int multiply-add,
    a + (p - lead_a lead_b^-1) X^{da-db} b, which leaves every lane at most
    p(p-1) < p 2^K, K = bit_length(p-1), and _lane_reduction's steps bring
    every lane back below p; they need p 2^{K-1} < 2^{W-1}.
    """
    G, steps = _lane_reduction(p, W, n)
    while b:
        db = (b.bit_length() - 1) // W
        inv = pow(b >> W * db, -1, p)
        da = (a.bit_length() - 1) // W
        while da >= db:
            a += (p - (a >> W * da) * inv % p) * (b << W * (da - db))
            for C, v in steps:
                a -= (((a + C) & G) >> W - 1) * v
            da = (a.bit_length() - 1) // W
        a, b = b, a
    return a


def lc_via_gcd(seq: PeriodicSequence) -> int:
    """Linear complexity by its definition, T - deg gcd(X^T - 1, S(X)), over F_p.

    p is the alphabet size, and ValueError is raised unless it is prime;
    p = 2 is taken too, so lc_binary is checked by separate code. The Euclid
    (_gcd_packed) runs on lanes of W = _lane_width(p 2^{K-1}) bits, K =
    bit_length(p-1): 8 up to p = 13, 16 up to 251, 24 from 257. The engine for
    F_p periods that are not a power of p, and the oracle for the others.
    gcd(X^T - 1, 0) = X^T - 1, so the zero sequence gives LC 0.
    """
    p, T = _field_size(seq), seq.period
    W = _lane_width(p << (p - 1).bit_length() - 1)
    # a = X^T - 1, b = S(X)
    g = _gcd_packed((1 << W * T) | (p - 1), _lanes(seq.symbols, W), p, W, T + 1)
    return T - (g.bit_length() - 1) // W


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


@functools.cache
def _cyclotomic_split(p: int, q: int) -> tuple[tuple[int, ...], ...] | None:
    """The factors of Phi_p(Y) = 1 + Y + ... + Y^{p-1} over F_q, or None.

    p is an odd prime and q a prime other than p. Phi_p splits into e =
    (p-1)/d monic irreducible factors of degree d = ord_p(q) (Lidl and
    Niederreiter, Finite Fields, Thm 2.47), each returned as its
    coefficients, Y^0 first. Gaussian periods give them: for each coset C
    of the powers of q in Z_p^*, theta_C(Y) = sum of Y^c over c in C has
    theta_C(a)^q = theta_C(a^q) = theta_C(a) at every root a of Phi_p, so
    it takes one value in F_q on the roots of each factor. So Phi_p divides
    theta_C^q - theta_C = prod_c (theta_C - c), and each piece P of Phi_p
    is the product of gcd(P, theta_C - c) over c in F_q. The cosets are
    taken in turn until every piece has degree d. At q = 2, e = 2, the
    first coset is the quadratic residues: the quadratic-residue split. The
    gcds run by _bgcd on bitmasks at q = 2 and by _gcd_packed on its lanes
    at odd q. None when the cosets run out first, where the values of the
    theta_C do not tell two factors apart.
    """
    d = n_order(q, p)
    W = 1 if q == 2 else _lane_width(q << (q - 1).bit_length() - 1)
    lane = (1 << W) - 1
    gcd = _bgcd if q == 2 else functools.partial(_gcd_packed, p=q, W=W, n=p + 1)
    pieces = [((1 << W * p) - 1) // lane]  # 1 in each of p lanes
    seen = bytearray(p)
    for g in range(1, p):
        if len(pieces) == (p - 1) // d:
            break
        if seen[g]:
            continue
        theta, u = 0, g  # theta_C over the coset C = g <q>
        for _ in range(d):
            seen[u] = 1
            theta |= 1 << W * u
            u = u * q % p
        split = []
        for piece in pieces:
            left = (piece.bit_length() - 1) // W
            if left == d:
                split.append(piece)
                continue
            for c in range(q):  # until the gcds' degrees add up to the piece's
                f = gcd(piece, theta | -c % q)  # theta_C - c: theta_C's lane 0 is 0
                left -= (f.bit_length() - 1) // W
                split.append(f)
                if not left:
                    break
        pieces = [f for f in split if f > lane]  # degree >= 1
    factors = []
    for f in pieces:
        if (f.bit_length() - 1) // W != d:
            return None
        coeffs = [f >> W * i & lane for i in range(d + 1)]
        inv = pow(coeffs[-1], -1, q)
        factors.append(tuple(c * inv % q for c in coeffs))
    return tuple(factors)


def _lc_cyclotomic(seq: PeriodicSequence, p: int, factors: tuple) -> int:
    """LC over F_q at period N = p^n from the factors of X^N - 1, q < p, q^{p-1} != 1 mod p^2.

    Over F_q, X^N - 1 = (X - 1) prod_{j=1..n} Phi_p(X^M), M = p^{j-1}, is
    squarefree as q does not divide N. The factors f_t of Phi_p
    (_cyclotomic_split) have degree d = ord_p(q), and ord_{p^j}(q) =
    p^{j-1} d when q^{p-1} != 1 mod p^2, so each f_t(X^M) is irreducible of
    degree dM (its roots are primitive p^j-th roots of unity). So LC =
    [S(1) != 0] + the sum of dM over the pairs (j, t) where f_t(X^M) does
    not divide S. With S_j = S mod (X^{pM} - 1) and Y = X^M, f_t(X^M)
    divides S exactly when f_t(Y) divides every column c_i(Y) = sum_k
    S_j[i + kM] Y^k, i < M. S_j is held as p blocks of M lanes, block k the
    Y^k coefficients of every column, and one long division by f_t takes
    all M columns at once: (p - d) d block multiply-adds, each followed by
    _lane_reduction's steps on the W-bit lanes of _gcd_packed, or an XOR on
    1-bit lanes at q = 2. At e = 1 no division is needed: a column has
    degree < p, so Phi_p divides it only when it is constant, that is when
    the p blocks are equal. S_{j-1} is the lane sum of the p blocks.
    """
    q, M = seq.alphabet_size, seq.period
    if q == 2:
        W, x = 1, _mask(seq.symbols)
    else:
        W = _lane_width(q << (q - 1).bit_length() - 1)
        x = _lanes(seq.symbols, W)
    d = len(factors[0]) - 1
    # subtracting c Y^k times a leading block is adding (q - c) times it
    subtract = [] if len(factors) == 1 else [
        [(k, q - c) for k, c in enumerate(f[:d]) if c] for f in factors]
    lc = 0
    while M > 1:
        M //= p
        block = (1 << W * M) - 1
        blocks = [x >> W * M * k & block for k in range(p)]
        if q == 2:
            x = functools.reduce(int.__xor__, blocks)
        else:
            G, steps = _lane_reduction(q, W, M)
            C = steps[-1][0]
            x = 0
            for b in blocks:
                x += b
                x -= (((x + C) & G) >> W - 1) * q
        if not subtract:  # e = 1
            lc += d * M * (blocks.count(blocks[0]) != p)
        for terms in subtract:
            rem = blocks[:]
            for top in range(p - 1, d - 1, -1):
                lead = rem[top]
                if not lead:
                    continue
                for k, v in terms:
                    t = rem[top - d + k]
                    if q == 2:
                        t ^= lead
                    else:
                        t += v * lead
                        for C, u in steps:
                            t -= (((t + C) & G) >> W - 1) * u
                    rem[top - d + k] = t
            if any(rem[:d]):
                lc += d * M
    return lc + (x != 0)


def linear_complexity(seq: PeriodicSequence) -> tuple[int, str]:
    """Linear complexity over the sequence's prime alphabet q, with its engine.

    A period N = p^n, p a prime above q with q^{p-1} != 1 mod p^2, takes the
    cyclotomic engine _lc_cyclotomic ("cyclotomic"), when _cyclotomic_split
    finds every factor of Phi_p over F_q. A prime period N = p takes it only
    when q is primitive modulo p (e = 1, Phi_p itself): for e >= 2 the split
    runs up to q gcds per factor at degree p, more than the one Euclid of
    the fallback at that degree, while from n = 2 on they stay below its
    N^2 = p^{2n} lane steps. Every other period keeps its engine: binary
    input the bitmask F_2[X] gcd ("bitmask_gcd"); F_q at a period that is a
    power of q Games-Chan on packed lanes ("games_chan"); any other period,
    at every prime q, the packed Euclid of lc_via_gcd ("packed_gcd"). So
    q > p keeps these engines, and so do the base-q Wieferich pairs, such as
    q = 3 at N = 11^2 (3^10 = 1 mod 121) or q = 2 at N = 1093, where some
    f_t(X^M) is reducible. Raises ValueError when q is not prime.
    """
    q, N = _field_size(seq), seq.period
    primes = factorint(N)
    p = min(primes, default=q)
    if (primes.keys() == {p} and q < p and pow(q, p - 1, p * p) != 1
            and (N > p or n_order(q, p) == p - 1)):
        factors = _cyclotomic_split(p, q)
        if factors:
            return _lc_cyclotomic(seq, p, factors), "cyclotomic"
    if q == 2:
        return lc_binary(_mask(seq.symbols), N), "bitmask_gcd"
    if primes.keys() <= {q}:  # N is a power of q
        return _lc_games_chan(seq), "games_chan"
    return lc_via_gcd(seq), "packed_gcd"


# --- k-error linear complexity -------------------------------------------

def _check_kerror_args(seq: PeriodicSequence, k_max: int) -> None:
    if seq.alphabet_size != 2:
        raise ValueError("binary sequence required")
    if not 0 <= k_max <= seq.period:
        raise ValueError(f"k_max must lie in [0, {seq.period}], got {k_max}")


def kerror_lc_bruteforce(
    seq: PeriodicSequence, k_max: int, budget: int = DEFAULT_PATTERN_BUDGET
) -> list[tuple[int, int, bool]]:
    """k-error LC of a binary sequence by exhaustion, as breakpoints (k, lc_k, exact).

    One incremental pass minimizes LC over the error patterns of each
    weight: weight w is searched once and serves every k >= w. The budget
    counts lc_binary calls at their cost: each pattern, the unflipped
    sequence included, is charged ceil(N^2 / 2^20), the quadratic cost of
    one call at period N against one at N <= 1024, where the charge is 1.
    The pass stops once the charges would exceed the budget or the LC
    reaches 0. From the first weight it leaves unsearched, every LC_k carries
    the last exact value, an upper bound that is inexact unless it is 0, the
    least LC there is. The profile holds the entry at k = 0 and one at each
    k <= k_max where lc or exact changes, the same breakpoints that
    kerror_lc_profile returns. Raises ValueError unless the sequence is
    binary and 0 <= k_max <= period.
    """
    _check_kerror_args(seq, k_max)
    mask = _mask(seq.symbols)
    period = seq.period
    best = lc_binary(mask, period)
    profile = [(0, best, True)]
    consumed = cost = -(-period * period // 2**20)
    for k in range(1, k_max + 1):
        if best == 0:
            break
        consumed += math.comb(period, k) * cost
        if consumed > budget:
            profile.append((k, best, False))
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
        if best < profile[-1][1]:
            profile.append((k, best, True))
    return profile


def profile_entries(
    profile: list[tuple[int, int, bool]], k_max: int
) -> list[tuple[int, int, bool]]:
    """A profile's breakpoints (k, lc_k, exact) as one entry per k = 0..k_max, for output.

    Each breakpoint's lc and exact hold from its k up to the next
    breakpoint's, the last one's up to k_max.
    """
    ends = [k for k, _, _ in profile[1:]] + [k_max + 1]
    return [(k, lc, exact) for (start, lc, exact), end in zip(profile, ends)
            for k in range(start, end)]


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
    Q modulo p, and _cyclotomic_split gives the two factors by the
    quadratic-residue split. Then it returns their codes, the binary
    quadratic-residue codes of length p, each split by parity into (low
    halves, high halves) of its words: bit j of a word is the coefficient
    of Y^j, and the halves are the bits below and from (p+1)//2.
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
    codes = []
    for f in _cyclotomic_split(p, 2):
        g = _mask(f)
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


# Lane width in bytes -> the memoryview and array format of one lane
_LANE_FORMAT = {1: "B", 2: "H", 4: "I", 8: "Q"}


def _cost_lanes(v: int) -> int:
    """The least lane width w, in bytes, of 1, 2, 4 and 8, with v below the guard bit 2^(8w-1).

    _lane_width's bytes, rounded up to a width that a memoryview cast reads.
    """
    return 1 << (_lane_width(v) // 8 - 1).bit_length()


def _relane(raw: bytes | bytearray, w: int, w2: int) -> bytes | bytearray:
    """raw's lanes of w bytes as lanes of w2 >= w bytes, in native order; raw itself when w2 == w.

    One extended-slice assignment per byte of the narrow lane.
    """
    if w2 == w:
        return raw
    wide = bytearray(len(raw) // w * w2)
    at = 0 if sys.byteorder == "little" else w2 - w
    for i in range(w):
        wide[at + i :: w2] = raw[i::w]
    return wide


def _lane_min(a: int, b: int, G: int, W: int) -> tuple[int, int]:
    """(lt, the lane-wise min of a and b): lt holds 1 in each W-bit lane where b < a, else 0.

    Every lane lies below 2^(W-1), and G holds bit W-1 of each: (b | G) - a
    borrows from no other lane and keeps bit W-1 exactly where b >= a, and
    lt spread to whole lanes, (lt << W) - lt, picks b's lanes.
    """
    lt = ((((b | G) - a) & G) ^ G) >> W - 1
    return lt, a ^ ((a ^ b) & ((lt << W) - lt))


def _branch(cost0: int, cost1: int, G: int, W: int, size: int) -> tuple[int, int, int]:
    """A branch's spend and the next level's bits and costs, from each column's cost0 and cost1.

    Both are ints of W-bit lanes, size bytes in all. Column i becomes parity
    bit cost1 < cost0 at the next level, flipping that bit costs
    |cost1 - cost0|, and the branch spends sum_i min(cost0, cost1), one
    memoryview cast's sum.
    """
    lt, low = _lane_min(cost0, cost1, G, W)
    lanes = memoryview(low.to_bytes(size, sys.byteorder)).cast(_LANE_FORMAT[W // 8])
    return sum(lanes), lt, (cost0 ^ cost1 ^ low) - low


def _drops(points: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The breakpoints (k, lc), where LC drops, of the least of several step functions.

    Each function never increases and is given by its own breakpoints, all
    of them in points, so its value at k is the least lc of its points at or
    before k, and the least function's is the running min over all points in
    k order.
    """
    drops = []
    for k, lc in sorted(points):
        if not drops or lc < drops[-1][1]:
            drops.append((k, lc))
    return drops


def _kerror_lc_pn(
    bits: bytes | bytearray, cost: bytes | bytearray | None, bound: int, p: int,
    codes: tuple, k_max: int,
) -> list[tuple[int, int]]:
    """Exact k-error LC over F_2 of a p^n-periodic sequence, p non-Wieferich, as breakpoints.

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

    A level's bits and costs are buffers of native-order lanes of w bytes,
    the least of 1, 2, 4 and 8 with p * bound below the lane's guard bit
    2^(8w-1), where bound caps every cost; no cost exceeds the period, so 8
    bytes always do. cost None means every cost is 1, as at the top level,
    which reads the sequence's bytes as its bits. Block j of M lanes is one
    slice of a buffer read as an int, and each column statistic is O(p)
    big-int operations on the blocks: the parities XOR them; to0, the cost
    of all-0 columns, sums cost_j & spread(bits_j); to1 is the sum of the
    cost blocks less to0; _lane_min gives the least cost per column and
    _branch the T = all branch. T = {} keeps its parent's bound, and every
    other branch multiplies it by p, since a column's codeword costs at most
    the sum of its costs. Only the middle tier reads single columns: a
    memoryview cast unpacks the level's bits and costs, and each column's
    gains go through the subset-sum tables, memoized on the gains.

    The LC left at period M is at most M <= dM, so any affordable T of a
    higher tier beats every T of a lower one: a tier serves only k from its
    spend up to one below the least spend of the next tier. That is the
    only decision that depends on k, so one pass follows each branch for its
    own k range (as in Lauder and Paterson's one-pass error spectrum, IEEE
    Trans. IT 49, 2003). An empty range prunes a branch. For e = 1 the two
    branches are the sum of the blocks, for k below the spend, and the equal
    blocks from there on, and the whole profile costs at most about p/(p-2)
    single-k runs. Each branch returns the breakpoints (k, lc) of its
    profile, k <= its k_max, where LC drops; the parent shifts them by the
    branch's spend and its (p-1-deg g_T) M, and _drops takes the least of
    all branches' step functions, which, since a higher tier wins from its
    spend on, is the whole profile. k_max >= 0.
    """
    w = _cost_lanes(p * bound)
    W, order = 8 * w, sys.byteorder
    n = len(bits) // w
    if n == 1:
        c = 1 if cost is None else int.from_bytes(cost, order)
        return _drops([(0, int.from_bytes(bits, order))] + [(c, 0)] * (c <= k_max))
    m = n // p
    size = m * w  # bytes in a block
    ones = int.from_bytes((1).to_bytes(w, order) * m, order)
    G = ones << W - 1
    parity = to0 = total = 0
    low = None  # the least cost in each column; None while every cost is 1
    for j in range(0, n * w, size):
        b = int.from_bytes(bits[j : j + size], order)
        parity ^= b
        if cost is None:
            to0 += b
        else:
            c = int.from_bytes(cost[j : j + size], order)
            to0 += c & (b << W) - b
            total += c
            low = c if low is None else _lane_min(low, c, G, W)[1]
    if cost is None:
        total = p * ones
    # each tier's deg g_T and, per T, its spend, the next level's bits and costs, and their bound
    tiers = [(0, [(0, parity, low, bound)])]
    if codes:
        h = (p + 1) // 2  # the half-word split of _cyclic_codes
        fmt = _LANE_FORMAT[w]
        bit_lanes = memoryview(bits).cast(fmt)
        cost_lanes = memoryview((1).to_bytes(w, order) * n if cost is None else cost).cast(fmt)
        memo = {}
        best = []  # per column, per code and parity, the least sum of gains over its words
        for i in range(m):
            # the change in cost from setting bit j of the column
            gain = tuple(-c if b else c for b, c in zip(bit_lanes[i::m], cost_lanes[i::m]))
            if gain not in memo:
                lo, hi = _subset_sums(gain[:h]), _subset_sums(gain[h:])
                memo[gain] = [[min(map(int.__add__, map(lo.__getitem__, lows),
                                       map(hi.__getitem__, highs)))
                               for lows, highs in code] for code in codes]
            best.append(memo[gain])
        zeros = memoryview(to0.to_bytes(size, order)).cast(fmt)  # to0, column by column
        middle = []
        for t in (0, 1):
            cost0, cost1 = (array(fmt, [x + col[t][b] for x, col in zip(zeros, best)])
                            for b in (0, 1))
            middle.append((*_branch(int.from_bytes(cost0, order), int.from_bytes(cost1, order),
                                    G, W, size), p * bound))
        tiers.append(((p - 1) // 2, middle))
    tiers.append((p - 1, [(*_branch(to0, total - to0, G, W, size), p * bound)]))
    points = []
    for s, (deg, branches) in enumerate(tiers):
        top = k_max if s + 1 == len(tiers) else min(
            k_max, min(branch[0] for branch in tiers[s + 1][1]) - 1)
        for spend, nbits, ncost, nbound in branches:
            if spend > top:
                continue
            w2 = _cost_lanes(p * nbound)
            child = _kerror_lc_pn(
                _relane(nbits.to_bytes(size, order), w, w2),
                None if ncost is None else _relane(ncost.to_bytes(size, order), w, w2),
                nbound, p, codes, top - spend)
            points += [(spend + k, (p - 1 - deg) * m + lc) for k, lc in child]
    return _drops(points)


def kerror_lc_profile(
    seq: PeriodicSequence, k_max: int, budget: int = DEFAULT_PATTERN_BUDGET
) -> list[tuple[int, int, bool]]:
    """k-error LC of a binary sequence, LC_0..LC_k_max, as breakpoints (k, lc_k, exact).

    The profile holds the entry at k = 0 and one at each k <= k_max where
    lc or exact changes; LC_k is the lc of the last breakpoint at or before
    k, and profile_entries expands them into one entry per k for output.
    The period alone picks the engine. A period p^n with p an odd prime that
    is not a Wieferich prime gets one pass of the structural block recursion
    _kerror_lc_pn, and every entry is exact, when 2 is primitive modulo p
    (two closed-form tiers) or p is 7, 17 or 23 (a middle tier through two
    Hamming [7,4], quadratic-residue [17,9] or Golay [23,12] codes, the only
    factor codes _cyclic_codes admits; below 50 it leaves out 31, 41,
    43 and 47). Its breakpoints are where LC drops.
    Any other period gets the exhaustive oracle
    kerror_lc_bruteforce under the pattern budget, in patterns each charged
    ceil(N^2 / 2^20) (1 up to N = 1024), whose profile ends in one inexact
    breakpoint when the budget runs out before the LC reaches 0. Raises
    ValueError unless the sequence is binary and 0 <= k_max <= period.
    """
    primes = list(factorint(seq.period))
    codes = _cyclic_codes(primes[0]) if len(primes) == 1 and primes[0] != 2 else None
    if codes is None:
        return kerror_lc_bruteforce(seq, k_max, budget)
    _check_kerror_args(seq, k_max)
    p = primes[0]
    drops = _kerror_lc_pn(_relane(seq.symbols, 1, _cost_lanes(p)), None, 1, p, codes, k_max)
    return [(k, lc, True) for k, lc in drops]


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
    order = n_order(2, p * p)
    if order != p * (p - 1):
        return (
            f"2 is not a primitive root modulo {p}^2 "
            f"(order {order} != {p * (p - 1)}); no profile asserted"
        )
    return None


@functools.cache
def _theorem_steps(m: PrimePowerModulus, index_size: int) -> tuple[tuple[int, int], ...]:
    """The theorem profile as its breakpoints (k, lc), where LC drops, from k = 0.

    LC_k is the lc of the last breakpoint at or before k, and the last
    breakpoint is (weight, 0). Odd |I| drops at p^{r-1}, at p^{r-1}(p-1)
    and at the weight, which is p^{r-1}(p-1) itself when |I| = 1, so that
    profile has three breakpoints; even |I| drops only at the weight.
    Cached per (m, |I|), so that theorem_kerror_lc, called once per k,
    reads them without recomputing. Raises ValueError unless
    theorem_precondition_error finds the preconditions met.
    """
    reason = theorem_precondition_error(m, index_size)
    if reason:
        raise ValueError(reason)
    p, r = m.p, m.r
    weight = p ** (r - 1) * (p - 1) * index_size
    base = p ** (r + 1) - p**r
    if index_size % 2 == 0:
        return ((0, base), (weight, 0))
    drops = ((0, base + p - 1), (p ** (r - 1), base + 1), (p ** (r - 1) * (p - 1), base))
    return drops[: 2 + (index_size > 1)] + ((weight, 0),)


def _lc_at(drops: Sequence[tuple[int, ...]], k: int) -> int:
    """LC_k of a profile given by its breakpoints (k, lc, ...), in k order from k = 0."""
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    return next(point[1] for point in reversed(drops) if point[0] <= k)


def theorem_kerror_lc(m: PrimePowerModulus, index_size: int, k: int) -> int:
    """Predicted k-error LC of the binary class sequence, |I| = index_size.

    Raises ValueError when k < 0, and unless theorem_precondition_error
    finds the preconditions met. The zero branch starts at the sequence weight
    p^{r-1}(p-1)|I| (the theorem display's "(p-1)|I|" threshold disagrees
    with its proof; the proof's threshold is used). The value is looked up
    in _theorem_steps.
    """
    return _lc_at(_theorem_steps(m, index_size), k)


def check_theorem_profile(
    profile: list[tuple[int, int, bool]], m: PrimePowerModulus, levels, k_max: int
) -> None:
    """Check a computed k-error profile of a class sequence against the theorem.

    profile holds the breakpoints (k, lc_k, exact) of LC_0..LC_k_max, as
    kerror_lc_profile returns them. The points where its lc changes are
    compared with the theorem's breakpoints up to k_max, as two lists.
    Raises ValueError, through _theorem_steps, unless the theorem's
    preconditions hold, and RuntimeError when the lists differ, naming the
    least k in their symmetric difference: the first k whose lc_k
    contradicts the predicted value.
    """
    members = sorted(validate_index_set(m.p, levels))
    predicted = [point for point in _theorem_steps(m, len(members)) if point[0] <= k_max]
    computed = [next(run)[:2] for _, run in itertools.groupby(profile, lambda e: e[1])]
    if computed != predicted:
        k = min(set(computed) ^ set(predicted))[0]
        raise RuntimeError(
            f"computed LC_{k} = {_lc_at(computed, k)} contradicts "
            f"predicted {_lc_at(predicted, k)} at (p={m.p}, r={m.r}, I={members})"
        )


# --- lemma-level divisibility checks over F_2 -----------------------------

def _class_masks(digits: bytearray | list[int], p: int) -> Iterator[int]:
    """The F_2[X] bitmask of each class D_l, l in [0, p), bit u set where digits[u] == l.

    The digits are split into planes, one byte string per byte of an array
    item wide enough for p, each reversed so that int(..., 2) puts position
    u at bit u. For p < 256 the digits come as top_digits' bytearray, which
    is the one plane itself; a list (p > 255) goes through an array. D_l's
    mask ANDs over the planes the positions whose byte matches l's byte
    there, each plane turned into ASCII 0/1 by one translate. The digits
    are released once the planes are taken.
    """
    kind = next(t for t in "BHILQ" if array(t).itemsize * 8 >= p.bit_length())
    size = array(kind).itemsize
    raw = digits if size == 1 else array(kind, digits).tobytes()
    del digits
    planes = [raw[len(raw) - size + i :: -size] for i in range(size)]  # raw[i::size][::-1]
    del raw
    for l in range(p):
        mask = -1
        for plane, byte in zip(planes, array(kind, [l]).tobytes()):
            hit = bytearray(b"0" * 256)
            hit[byte] = ord("1")
            mask &= int(plane.translate(hit), 2)
        yield mask


def check_root_group_lemmas(m: PrimePowerModulus) -> bool:
    """Divisibility form of the class-polynomial root statements, r >= 2.

    For every class polynomial D_l(X) = sum_{u in D_l} X^u over F_2:
    (a) (X^{p^r}-1)/(X^p-1) divides D_l(X) mod (X^{p^r}-1);
    (b) D_l(X) == 1 modulo (X^p-1)/(X-1);
    (c) D_l(1) = 0, i.e. |D_l| is even.

    Each D_l(X) is built from the top digits of one period, with the
    multiples of p marked p (sequences.top_digits), by one translate per
    class (_class_masks); |D_l| is its mask's bit count. A divisor c(X) of
    X^n - 1 divides A(X) exactly when X^n - 1 divides A(X) (X^n - 1)/c(X),
    so (a) is tested as (X^{p^r}-1) | D_l(X)(X^p-1) and (b) as
    (X^p-1) | (D_l(X)-1)(X-1), each with one _fold.
    """
    if m.r < 2:
        raise ValueError(f"root-group lemmas need r >= 2, got r={m.r}")
    p, pr = m.p, m.modulus
    for d_mask in _class_masks(top_digits(m, on_multiples=p), p):
        if _fold(d_mask ^ (d_mask << p), pr) != 0:
            return False
        off_one = d_mask ^ 1  # D_l(X) - 1
        if _fold(off_one ^ (off_one << 1), p) != 0:
            return False
        if d_mask.bit_count() % 2 != 0:
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
