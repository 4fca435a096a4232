import json
import math
import random
import tracemalloc

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.galoistools import gf_factor_sqf, gf_gcd, gf_mul, gf_quo, gf_rem, gf_strip

from eulerseq import complexity
from eulerseq.cli import main
from eulerseq.complexity import (
    berlekamp_massey,
    check_poly_p_lemma,
    check_root_group_lemmas,
    check_theorem_profile,
    constructive_error_patterns,
    kerror_lc_bruteforce,
    kerror_lc_profile,
    lc_binary,
    lc_games_chan_lists,
    lc_via_gcd,
    linear_complexity,
    poly_p_precondition_error,
    profile_entries,
    theorem_kerror_lc,
    theorem_precondition_error,
)
from eulerseq.fieldarith import PrimeField
from eulerseq.quotients import PrimePowerModulus
from eulerseq.sequences import (
    PeriodicSequence,
    binary_class_sequence,
    level_sequence,
    mary_sequence,
)
from eulerseq.verify import suite_lc_p

F2 = PrimeField(2)
F3 = PrimeField(3)


def _bitmasks():
    """F_2[X] bitmasks of up to 600 bits, spread over their bit lengths."""
    return st.integers(0, 600).flatmap(lambda n: st.integers(0, (1 << n) - 1))


def _f2_poly(mask):
    """A bitmask as sympy's dense F_2[X] list, top degree first."""
    return [int(c) for c in bin(mask)[2:]] if mask else []


def _f2_mask(coeffs):
    return int("".join(map(str, coeffs)) or "0", 2)


def _lc_gf_gcd(seq):
    """T - deg gcd(X^T - 1, S(X)) over F_p by sympy's gf_gcd, for any prime p."""
    p, T = seq.alphabet_size, seq.period
    xt1 = [1] + [0] * (T - 1) + [p - 1]
    return T - (len(gf_gcd(xt1, gf_strip(list(seq.symbols[::-1])), p, ZZ)) - 1)


@st.composite
def _packed_operands(draw):
    """(p, a, b) with up to 300 coefficients each, X^i at index i.

    p covers the lane widths of the packed Euclid: 4 bits at 2 and 3, 8
    from 5 up to 13, 16 at 17 and 24 at 257.

    Half the draws multiply a and b by a common factor, so that their gcd
    is not a unit.
    """
    p = draw(st.sampled_from([2, 3, 5, 7, 11, 13, 17, 257]))

    def coeffs(most):
        size = draw(st.integers(0, most))
        return draw(st.lists(st.integers(0, p - 1), min_size=size, max_size=size))

    a, b = coeffs(250), coeffs(250)
    if draw(st.booleans()):
        c = coeffs(50)[::-1]
        a = gf_mul(a[::-1], c, p, ZZ)[::-1]
        b = gf_mul(b[::-1], c, p, ZZ)[::-1]
    return p, a, b


def _pack(coeffs, W):
    """Coefficients, X^i at index i, as an int of W-bit lanes, X^i in lane i."""
    return sum(c << W * i for i, c in enumerate(coeffs))


def _euclid_width(p):
    """The lane width of lc_via_gcd's Euclid over F_p."""
    return complexity._lane_width(p << (p - 1).bit_length() - 1)


# Berlekamp-Massey's lane widths: 1 bit at p = 2, 4 at 3, 8 at 5 and 13, 16 at
# 17 and 251, 24 at 257 (the first alphabet stored as a tuple), 128 at the
# Mersenne prime 2^61 - 1, where sympy's gf_gcd is kept to short periods
_BM_PRIMES = [2, 3, 5, 13, 17, 251, 257, 2**61 - 1]


def _shaped_symbols(draw, p, T, sizes):
    """T symbols over F_p: random, sparse, or a block repeated, its length drawn from sizes."""
    symbol = st.integers(0, p - 1)
    shape = draw(st.sampled_from(["random", "block", "sparse"]))
    if shape == "block":  # a block of length size repeated: LC <= size
        size = draw(sizes)
        block = draw(st.lists(symbol, min_size=size, max_size=size))
        return [block[u % size] for u in range(T)]
    if shape == "sparse":
        symbols = [0] * T
        for u, x in draw(st.lists(st.tuples(st.integers(0, T - 1), symbol), max_size=3)):
            symbols[u] = x
        return symbols
    return draw(st.lists(symbol, min_size=T, max_size=T))


@st.composite
def _bm_periods(draw):
    """A period over F_p, N <= 120 (<= 8 at 2^61 - 1): random, sparse or a block repeated."""
    p = draw(st.sampled_from(_BM_PRIMES))
    T = draw(st.integers(1, 8 if p > 257 else 120))
    return PeriodicSequence(p, T, _shaped_symbols(draw, p, T, st.integers(1, T)))


def bits(*symbols):
    return PeriodicSequence(2, len(symbols), symbols)


class TestLinearComplexity:
    def test_zero_sequence(self):
        z = bits(0, 0, 0, 0, 0)
        assert berlekamp_massey(z, F2) == 0
        assert lc_via_gcd(z) == 0

    def test_impulse_has_full_lc(self):
        for T in (3, 9, 14):
            s = PeriodicSequence(2, T, (1,) + (0,) * (T - 1))
            assert berlekamp_massey(s, F2) == T
            assert lc_via_gcd(s) == T

    def test_all_ones_odd_period(self):
        for T in (3, 9, 27):
            s = PeriodicSequence(2, T, (1,) * T)
            assert lc_via_gcd(s) == 1
            assert berlekamp_massey(s, F2) == 1

    def test_alphabet_mismatch(self):
        s = PeriodicSequence(3, 3, (0, 1, 2))
        with pytest.raises(ValueError):
            berlekamp_massey(s, F2)

    def test_composite_alphabet(self):
        # the oracle and the entry point read p from the alphabet and refuse 4
        s = PeriodicSequence(4, 3, (0, 1, 3))
        message = "alphabet size 4 is not prime: linear complexity needs a prime field F_p"
        for lc in (lc_via_gcd, linear_complexity):
            with pytest.raises(ValueError, match=message):
                lc(s)

    def test_level_sequence_lc(self):
        m = PrimePowerModulus(3, 2)
        seq = level_sequence(m, 1)
        assert berlekamp_massey(seq, F3) == 11  # p^r + p - 1

    def test_lc_p_suite_at_3_8(self):
        # N = 3^9 = 19,683: Games-Chan on lists and on lanes both give p^r + p - 1
        assert suite_lc_p(3, 8) == [
            ("games_chan_lists LC at (p=3, r=8)", True, "6563 vs 6563"),
            ("games_chan LC at (p=3, r=8)", True, "6563 vs 6563"),
        ]

    def test_lc_p_suite_computes_both_lines_at_3_10(self):
        # N = 3^11 = 177,147: both lines are computed, none is skipped
        assert suite_lc_p(3, 10) == [
            ("games_chan_lists LC at (p=3, r=10)", True, "59051 vs 59051"),
            ("games_chan LC at (p=3, r=10)", True, "59051 vs 59051"),
        ]

    def test_berlekamp_massey_start_alignment(self):
        # B = 1 counts as stored one step before n = 0, so b starts one lane
        # above c. A start one lane higher gets the impulses at the end of a
        # period wrong, one lane lower those at its start (the first update
        # then scales C by 1 - s_0). sympy's gf_gcd, which uses no lanes, is
        # the reference
        cases = [(3, (0, 0, 1))]
        for p in (2, 3, 13, 17, 257):
            cases += [(p, (p - 1,)), (p, (0,) * 8 + (p - 1,))]
            cases += [(p, (x,) + (0,) * 8) for x in {1, p - 1}]
            cases += [(p, (1,) * T) for T in (1, 3, 9, 15, 27)]
        for p, symbols in cases:
            s = PeriodicSequence(p, len(symbols), symbols)
            assert berlekamp_massey(s, PrimeField(p)) == _lc_gf_gcd(s), (p, symbols)
        assert berlekamp_massey(PeriodicSequence(3, 3, (0, 0, 1)), F3) == 3

    @settings(max_examples=300, deadline=None)
    @given(_bm_periods())
    def test_berlekamp_massey_matches_sympy_across_lane_widths(self, seq):
        assert berlekamp_massey(seq, PrimeField(seq.alphabet_size)) == _lc_gf_gcd(seq)

    def test_cross_oracle_random(self):
        # Berlekamp-Massey runs one loop on W-bit lanes, 1-bit lanes for
        # p = 2; linear_complexity takes the cyclotomic engine at periods
        # that are a power of one prime above p, unless p is a Wieferich
        # base there (3 at 11) or the period is that prime and p is not
        # primitive modulo it, and the packed Euclid at every other odd p at
        # periods that are not a power of p; from p = 17, on 16-bit lanes,
        # sympy's gf_gcd checks it too
        rng = random.Random(1234)
        for _ in range(200):
            char = rng.choice([2, 3, 5, 7, 11, 13, 17, 19])
            T = rng.randint(1, 120)
            s = PeriodicSequence(char, T, tuple(rng.randrange(char) for _ in range(T)))
            lc = lc_via_gcd(s)
            if char >= 17:
                assert lc == _lc_gf_gcd(s)
            assert berlekamp_massey(s, PrimeField(char)) == lc
            primes = list(sympy.factorint(T))
            if len(primes) == 1 and char < primes[0] and (char, primes[0]) != (3, 11) and (
                    T > primes[0] or sympy.is_primitive_root(char, T)):
                method = "cyclotomic"
            elif char == 2:
                method = "bitmask_gcd"
            elif char ** sympy.multiplicity(char, T) == T:
                method = "games_chan"
            else:
                method = "packed_gcd"
            assert linear_complexity(s) == (lc, method)

    @pytest.mark.parametrize("p", [3, 5, 13, 17, 251, 257])
    def test_packing_boundary(self, p):
        # the lane boundaries of the packed Euclid: 3 is the largest prime on
        # 4-bit lanes, 5 the smallest on 8-bit lanes, 13 the largest on them,
        # 17 the smallest on 16-bit lanes, 251 the largest on them and 257
        # the smallest on 24-bit lanes. Every nonzero symbol is p - 1, which
        # drives a remainder step's lane to its largest sum, p(p - 1); sympy's
        # gf_gcd and Berlekamp-Massey check the Euclid.
        fp = PrimeField(p)
        top = p - 1
        rng = random.Random(p)
        cases = [(0,), (top,), (0,) * 9, (top,) * 9, (top,) + (0,) * 8]
        cases += [tuple(top * (u % 3 == 0) for u in range(T)) for T in (5, 7, 10)]
        cases += [
            tuple(top * rng.randrange(2) for _ in range(rng.randint(1, 120)))
            for _ in range(20)
        ]
        for symbols in cases:
            s = PeriodicSequence(p, len(symbols), symbols)
            assert lc_via_gcd(s) == _lc_gf_gcd(s) == berlekamp_massey(s, fp), symbols

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_nibble_lanes_match_the_reference_packing(self, p):
        # 4-bit lanes put two symbols in a byte, the even index in the low
        # nibble: N = 1 (no odd index), odd and even N, and all-(p - 1)
        # periods, the largest symbol in every nibble
        assert complexity._lane_width(p) == 4
        rng = random.Random(p)
        periods = [[rng.randrange(p) for _ in range(N)] for N in (1, 2, 7, 10, 121, 128)]
        periods += [[p - 1] * N for N in (1, 2, 7, 10)]
        for symbols in periods:
            s = PeriodicSequence(p, len(symbols), symbols)
            assert complexity._lanes(s.symbols, 4) == _pack(symbols, 4), symbols

    def test_binary_fast_path_matches_reference(self):
        rng = random.Random(99)
        for _ in range(300):
            T = rng.randint(1, 400)  # reaches N = 343, the (7,2) period
            syms = tuple(rng.randrange(2) for _ in range(T))
            s = PeriodicSequence(2, T, syms)
            mask = sum(b << i for i, b in enumerate(syms))
            assert complexity._lanes(s.symbols, 1) == mask  # bit i holds symbol i
            assert lc_binary(mask, T) == lc_via_gcd(s)


# periods up to 128, 81, 125, 49, 121 and 169
_MAX_DIGITS = {2: 7, 3: 4, 5: 3, 7: 2, 11: 2, 13: 2}


@st.composite
def prime_power_periods(draw):
    """Period p^n over F_p: random, a short block repeated (low LC), or sparse."""
    p = draw(st.sampled_from(sorted(_MAX_DIGITS)))
    n = draw(st.integers(0, _MAX_DIGITS[p]))
    T = p**n
    # a repeated block has length p^j < T
    sizes = st.integers(0, max(n - 1, 0)).map(lambda j: p**j)
    return PeriodicSequence(p, T, tuple(_shaped_symbols(draw, p, T, sizes)))


def lc_and_oracle(seq):
    """linear_complexity's LC after checking its engine against lc_via_gcd."""
    lc, _ = linear_complexity(seq)
    assert lc == lc_via_gcd(seq)
    return lc


class TestGcdOracle:
    """At p^n periods over F_p, p odd, linear_complexity divides by the p - 1
    copies of Y - 1 in the cyclotomic engine ("games_chan"); the gcd
    definition (the packed Euclid, on the same lane format),
    Berlekamp-Massey and Games-Chan on lists (lc_games_chan_lists) check
    it."""

    @settings(max_examples=300, deadline=None)
    @given(prime_power_periods())
    @example(PeriodicSequence(5, 125, (0,) * 125))
    @example(PeriodicSequence(5, 125, (3,) * 125))
    @example(PeriodicSequence(7, 49, (1,) + (0,) * 48))  # coprime to (X - 1)^49
    # one block repeated p times: every power of Y - 1 divides at the top level
    @example(PeriodicSequence(3, 81, (2, 0, 1, 1, 0, 0, 2, 1, 2) * 9))
    @example(PeriodicSequence(11, 121, tuple(range(11)) * 11))
    def test_matches_berlekamp_massey_at_prime_power_periods(self, seq):
        bm = berlekamp_massey(seq, PrimeField(seq.alphabet_size))
        assert lc_via_gcd(seq) == bm
        assert lc_games_chan_lists(seq) == bm
        method = "bitmask_gcd" if seq.alphabet_size == 2 else "games_chan"
        assert linear_complexity(seq) == (bm, method)

    def test_lists_oracle_refuses_other_periods(self):
        for p, T in ((2, 12), (3, 6), (5, 24), (13, 26)):
            with pytest.raises(ValueError, match=f"^period {T} is not a power of"):
                lc_games_chan_lists(PeriodicSequence(p, T, (1,) * T))

    def test_edge_cases(self):
        for p in (2, 3, 5, 7):
            assert lc_and_oracle(PeriodicSequence(p, 1, (0,))) == 0
            for x in range(1, p):
                assert lc_and_oracle(PeriodicSequence(p, 1, (x,))) == 1
            T = p**3
            assert lc_and_oracle(PeriodicSequence(p, T, (0,) * T)) == 0
            assert lc_and_oracle(PeriodicSequence(p, T, (1,) * T)) == 1
            # an impulse is coprime to X^T - 1 = (X - 1)^T: full LC
            assert lc_and_oracle(PeriodicSequence(p, T, (1,) + (0,) * (T - 1))) == T

    @pytest.mark.parametrize("p", [131, 257])
    def test_lanes_match_lists_past_byte_lanes(self, p):
        # p > 128 takes 16-bit lanes; the r = 1 top-level sequence has period p^2
        seq = level_sequence(PrimePowerModulus(p, 1), 0)
        assert linear_complexity(seq) == (2 * p - 1, "games_chan")
        assert lc_games_chan_lists(seq) == 2 * p - 1

    @pytest.mark.parametrize("p", [7, 11, 127, 131, 257])
    def test_lane_width_boundary(self, p):
        # 7 is the largest prime on 4-bit lanes and 11 the smallest on 8-bit
        # lanes; 127 is the largest on them; 131 takes 16-bit lanes from
        # bytes storage, 257 from tuple storage. An all-(p - 1) period makes
        # every lane sum 2p - 2, the most a lane must hold.
        rng = random.Random(p)

        def periods(N):
            sparse = [0] * N
            for u in rng.sample(range(N), 3):
                sparse[u] = rng.randrange(1, p)
            dense = [rng.randrange(p) for _ in range(N)]
            return [PeriodicSequence(p, N, tuple(s)) for s in (dense, sparse, [p - 1] * N)]

        for seq in periods(p):
            assert linear_complexity(seq) == (berlekamp_massey(seq, PrimeField(p)), "games_chan")
        if p < 257:
            for seq in periods(p * p):
                assert linear_complexity(seq) == (lc_games_chan_lists(seq), "games_chan")

    def test_alphabet_past_every_array_type(self):
        # 2^64 + 13 is a prime below the Miller-Rabin bound whose symbols fit
        # no array type: period 1 takes Games-Chan, periods 2 and 6 the
        # packed Euclid, each on lanes wider than 64 bits
        p = 2**64 + 13
        rng = random.Random(p)
        for T, method in ((1, "games_chan"), (2, "packed_gcd"), (6, "packed_gcd")):
            for symbols in ([p - 1] * T, [rng.randrange(p) for _ in range(T)]):
                s = PeriodicSequence(p, T, symbols)
                assert linear_complexity(s) == (berlekamp_massey(s, PrimeField(p)), method)

    def test_top_level_sequence_at_3_8(self):
        seq = level_sequence(PrimePowerModulus(3, 8), 7)  # N = 3^9 = 19,683
        assert linear_complexity(seq) == (3**8 + 2, "games_chan")


@st.composite
def cyclotomic_periods(draw):
    """Period p^n, n <= 3, over F_q for a prime q < p: dense, sparse or a block repeated.

    The symbols come from a drawn seed, so that periods in the thousands stay
    within Hypothesis's buffer. Over odd q the packed Euclid is the oracle,
    and p^n stays at most 5,000.
    """
    p = draw(st.sampled_from([3, 7, 17, 31]))
    q = draw(st.sampled_from([q for q in (2, 3, 5, 7, 11, 13, 29) if q < p]))
    n = draw(st.integers(1, 3 if q == 2 or p < 31 else 2))
    N = p**n
    rng = random.Random(draw(st.integers(0, 2**32)))
    shape = draw(st.sampled_from(["dense", "sparse", "block"]))
    if shape == "dense":
        symbols = [rng.randrange(q) for _ in range(N)]
    elif shape == "sparse":
        symbols = [0] * N
        for u in rng.sample(range(N), rng.randint(1, min(N, 4))):
            symbols[u] = rng.randrange(q)
    else:  # a block of length p^j < N repeated: LC <= p^j
        block = [rng.randrange(q) for _ in range(p ** rng.randrange(n))]
        symbols = block * (N // len(block))
    return PeriodicSequence(q, N, symbols)


class TestCyclotomicEngine:
    """At periods p^n over F_q, q < p, linear_complexity tests which factors
    f_t(X^M) of X^N - 1 divide S(X); lc_binary (q = 2) and lc_via_gcd (odd q)
    are its oracles there."""

    @settings(max_examples=150, deadline=None)
    @given(cyclotomic_periods())
    def test_matches_the_gcd_oracles(self, seq):
        q, N = seq.alphabet_size, seq.period
        p = sympy.primefactors(N)[0]
        oracle = lc_binary(complexity._lanes(seq.symbols, 1), N) if q == 2 else lc_via_gcd(seq)
        factors = [(f, 1) for f in complexity._cyclotomic_split(p, q)]
        assert complexity._lc_cyclotomic(seq, p, factors) == oracle
        if N == p and sympy.n_order(q, p) < p - 1:  # a prime period with e >= 2
            method = "bitmask_gcd" if q == 2 else "packed_gcd"
        else:
            method = "cyclotomic"
        assert linear_complexity(seq) == (oracle, method)

    def test_split_is_complete(self):
        # e = (p-1)/ord_p(q) monic factors of degree ord_p(q) whose product
        # is 1 + Y + ... + Y^{p-1}: at q = 2 below 400, at q = 3..13 below 200
        pairs = [(p, 2) for p in sympy.primerange(3, 400)]
        pairs += [(p, q) for q in (3, 5, 7, 11, 13) for p in sympy.primerange(q + 1, 200)]
        for p, q in pairs:
            factors = complexity._cyclotomic_split(p, q)
            d = sympy.n_order(q, p)
            assert factors is not None and len(factors) == (p - 1) // d, (p, q)
            product = [1]
            for f in factors:
                assert len(f) == d + 1 and f[-1] == 1, (p, q)
                product = gf_mul(product, list(f[::-1]), q, ZZ)
            assert product == [1] * p, (p, q)

    def test_incomplete_split_keeps_the_old_engines(self, monkeypatch):
        # a split that does not find every factor leaves the period to the
        # engine it had: the bitmask gcd at q = 2, the packed Euclid at odd q
        monkeypatch.setattr(complexity, "_cyclotomic_split", lambda p, q: None)
        rng = random.Random(7)
        for q, method in ((2, "bitmask_gcd"), (3, "packed_gcd"), (5, "packed_gcd")):
            s = PeriodicSequence(q, 343, [rng.randrange(q) for _ in range(343)])
            assert linear_complexity(s) == (lc_via_gcd(s), method)

    def test_prime_periods_split_only_phi_p(self, monkeypatch):
        # at N = p only e = 1 takes the cyclotomic engine: at q = 509, p = 1019
        # (e = 2) the split would scan up to 509 gcds of degree 1019, where
        # the fallback runs one Euclid of that degree
        rng = random.Random(1019)
        s = PeriodicSequence(509, 1019, [rng.randrange(509) for _ in range(1019)])
        monkeypatch.setattr(complexity, "_cyclotomic_split", None)  # never called
        assert linear_complexity(s) == (berlekamp_massey(s, PrimeField(509)), "packed_gcd")
        monkeypatch.undo()
        # 2 is primitive modulo 11 and 13 is not modulo 17 (order 4)
        for q, p, method in ((2, 11, "cyclotomic"), (13, 17, "packed_gcd"), (2, 17, "bitmask_gcd")):
            s = PeriodicSequence(q, p, [rng.randrange(q) for _ in range(p)])
            assert linear_complexity(s) == (lc_via_gcd(s), method)

    def test_wieferich_pairs_keep_the_old_engines(self):
        # 3^10 = 1 mod 11^2 and 2^1092 = 1 mod 1093^2: no base-q Wieferich
        # pair takes the cyclotomic engine; at 11^2 the count would not hold,
        # as the factors f_t(X^11) of degree 5 * 11 are reducible
        rng = random.Random(11)
        for q, p, N, method in ((3, 11, 121, "packed_gcd"), (2, 1093, 1093, "bitmask_gcd")):
            assert pow(q, p - 1, p * p) == 1
            for symbols in ([rng.randrange(q) for _ in range(N)], [1] * N, [1] + [0] * (N - 1)):
                s = PeriodicSequence(q, N, symbols)
                assert linear_complexity(s) == (lc_via_gcd(s), method)

    def test_large_periods(self):
        # the m-ary sequence of order 13 at (79,2) and the class sequence
        # at (3,11), which took 25-35 s and 4 s in the quadratic engines
        assert linear_complexity(mary_sequence(PrimePowerModulus(79, 2), 13)) == (
            6162, "cyclotomic")
        m = PrimePowerModulus(3, 11)
        assert linear_complexity(binary_class_sequence(m, {0})) == (
            theorem_kerror_lc(m, 1, 0), "cyclotomic")


class TestKErrorBruteForce:
    def test_k0_is_lc(self):
        m = PrimePowerModulus(3, 2)
        f = binary_class_sequence(m, {0})
        assert kerror_lc_bruteforce(f, 0) == [(0, lc_via_gcd(f), True)]

    def test_k_equals_weight_gives_zero(self):
        s = bits(1, 0, 1, 0, 0, 1, 0)
        assert kerror_lc_bruteforce(s, s.weight)[-1] == (s.weight, 0, True)

    def test_theorem_value_at_k3(self):
        # LC_3 = p^{r+1} - p^r + 1; every entry is exact under a budget that
        # covers the 397,594 patterns of weight <= 6 at N = 27
        m = PrimePowerModulus(3, 2)
        f = binary_class_sequence(m, {0})
        profile = kerror_lc_bruteforce(f, 6, budget=10**6)
        assert profile == [(0, 20, True), (3, 19, True), (6, 0, True)]
        assert profile_entries(profile, 6) == [
            (k, lc, True) for k, lc in enumerate([20, 20, 20, 19, 19, 19, 0])
        ]

    def test_monotone_in_k(self):
        rng = random.Random(7)
        for _ in range(20):
            T = rng.randint(2, 16)
            s = PeriodicSequence(2, T, tuple(rng.randrange(2) for _ in range(T)))
            values = [lc for _, lc, _ in kerror_lc_bruteforce(s, min(T, 5))]
            assert values == sorted(values, reverse=True)

    def test_budget_exceeded(self):
        # 1 + 60 patterns fit in 1000, the 1,770 of weight 2 do not: k <= 1
        # is exact, and each later entry carries LC_1 as an upper bound, one
        # inexact breakpoint at k = 2.
        # 0101... with bit 0 flipped: one error takes LC_0 = 60 to LC_1 = 2
        s = PeriodicSequence(2, 60, tuple(int(i % 2 or i == 0) for i in range(60)))
        profile = kerror_lc_bruteforce(s, 10, budget=1000)
        assert profile[:2] == kerror_lc_bruteforce(s, 1)
        # LC_1 independently: the least LC over no flip and each single flip
        syms = tuple(s.symbols)
        flips = [s] + [
            PeriodicSequence(2, 60, syms[:i] + (1 - syms[i],) + syms[i + 1 :])
            for i in range(60)
        ]
        lc1 = min(lc_via_gcd(f) for f in flips)
        assert lc1 < lc_via_gcd(s)
        assert profile == [(0, lc_via_gcd(s), True), (1, lc1, True), (2, lc1, False)]
        assert profile_entries(profile, 10)[2:] == [(k, lc1, False) for k in range(2, 11)]

    def test_zero_lc_is_exact_past_budget(self):
        # 1 + 10 patterns fit in 11 and one flip zeroes the impulse's LC;
        # LC_k never increases and never goes below 0, so LC_2 and LC_3
        # are exact although weights 2 and 3 were not searched
        s = PeriodicSequence(2, 10, (1,) + (0,) * 9)
        profile = kerror_lc_bruteforce(s, 3, budget=11)
        assert profile == [(0, 10, True), (1, 0, True)]
        assert profile_entries(profile, 3) == [
            (0, 10, True), (1, 0, True), (2, 0, True), (3, 0, True)
        ]

    def test_stops_summing_patterns_once_done(self, monkeypatch):
        # LC_1 = 0 and weight 2 is past the budget: the pattern count for
        # k = 2..10 is never needed, and each is a binomial sum
        s = PeriodicSequence(2, 10, (1,) + (0,) * 9)
        expected = [(0, 10, True), (1, 0, True)]
        real_comb, calls = math.comb, []

        def counting_comb(n, k):
            calls.append(k)
            return real_comb(n, k)

        monkeypatch.setattr(math, "comb", counting_comb)
        profile = kerror_lc_bruteforce(s, 10, budget=11)
        assert profile == expected
        assert profile_entries(profile, 10) == [(0, 10, True)] + [
            (k, 0, True) for k in range(1, 11)]
        assert len(calls) <= 2

    def test_budget_charges_by_period(self, monkeypatch):
        # (31, 2), N = 29,791: a pattern costs ceil(N^2 / 2^20) = 847, so the
        # N single flips (25.2e6) overrun the default budget at once; counted
        # as patterns they fit, and each lc_binary call takes 28-42 ms
        seq = binary_class_sequence(PrimePowerModulus(31, 2), {0})
        real, calls = complexity.lc_binary, []

        def counting_lc_binary(mask, period):
            calls.append(period)
            if len(calls) > 10:
                raise AssertionError("exhaustive search ran past the budget")
            return real(mask, period)

        monkeypatch.setattr(complexity, "lc_binary", counting_lc_binary)
        lc = real(complexity._lanes(seq.symbols, 1), seq.period)
        assert kerror_lc_bruteforce(seq, 1) == [(0, lc, True), (1, lc, False)]

    def test_budget_charge_above_1024(self):
        # period 2187: charge ceil(2187^2 / 2^20) = 5 per pattern, so k <= 1
        # takes 5 * (1 + 2187) units, and one unit less leaves k = 1 unsearched
        rng = random.Random(2187)
        s = PeriodicSequence(2, 2187, tuple(rng.randrange(2) for _ in range(2187)))
        fits = 5 * (1 + 2187)
        exact = profile_entries(kerror_lc_bruteforce(s, 1, budget=fits), 1)
        assert [e for _, _, e in exact] == [True, True]
        assert kerror_lc_bruteforce(s, 1, budget=fits - 1) == [
            exact[0], (1, exact[0][1], False)
        ]

    def test_default_budget_stops_before_minutes(self, monkeypatch):
        # (41, 1), N = 1,681, has no structural engine, and each pattern is
        # charged 3: k <= 1 takes 3 * 1,682 units, and k = 2 would add
        # 3 * C(1681, 2) = 4.2e6, minutes of lc_binary calls, past the default
        seq = binary_class_sequence(PrimePowerModulus(41, 1), {0})
        real, calls = complexity.lc_binary, []

        def counting_lc_binary(mask, period):
            calls.append(period)
            return real(mask, period)

        monkeypatch.setattr(complexity, "lc_binary", counting_lc_binary)
        profile = kerror_lc_profile(seq, 2)
        assert len(calls) == 1682
        assert [exact for _, _, exact in profile] == [True, True, False]
        assert profile[2][1] == profile[1][1]

    def test_bad_k(self):
        with pytest.raises(ValueError):
            kerror_lc_bruteforce(bits(1, 0), 3)

    @pytest.mark.parametrize("period", [1, 16, 45, 60])
    def test_profile_takes_exhaustive_path_off_odd_prime_powers(self, period):
        # 1 has no prime factor, 16 is even, 45 and 60 are not prime powers
        rng = random.Random(period)
        s = PeriodicSequence(2, period, tuple(rng.randrange(2) for _ in range(period)))
        k_max = min(period, 2)
        assert kerror_lc_profile(s, k_max) == kerror_lc_bruteforce(s, k_max)

    def test_rejects_non_binary(self):
        # a p^n period over F_3: the structural engine would read its symbols
        # as bits and report [20, 20, 20], although its LC is 11
        seq = level_sequence(PrimePowerModulus(3, 2), 1)
        with pytest.raises(ValueError, match="binary sequence required"):
            kerror_lc_profile(seq, 2)
        with pytest.raises(ValueError, match="binary sequence required"):
            kerror_lc_bruteforce(seq, 2)


class TestErrorPatterns:
    def test_lambda_positions(self):
        lam, _ = constructive_error_patterns(PrimePowerModulus(3, 2))
        assert lam == (0, 3, 6)  # weight p^{r-1}

    def test_lambda_times_full_positions(self):
        _, full = constructive_error_patterns(PrimePowerModulus(3, 2))
        assert full == (1, 2, 4, 5, 7, 8)  # weight p^{r-1}(p-1)

    def test_requires_r2(self):
        with pytest.raises(ValueError):
            constructive_error_patterns(PrimePowerModulus(3, 1))

    @pytest.mark.parametrize("p,r", [(3, 2), (3, 3), (5, 2)])
    def test_patterns_achieve_theorem_drops(self, p, r):
        m = PrimePowerModulus(p, r)
        f = binary_class_sequence(m, {0})
        base = p ** (r + 1) - p**r
        assert lc_via_gcd(f) == base + p - 1
        lam, full = constructive_error_patterns(m)
        assert lc_via_gcd(f.flip(lam)) == base + 1
        assert lc_via_gcd(f.flip(full)) == base


class TestTheoremProfile:
    def test_primitivity_detection(self):
        assert theorem_precondition_error(PrimePowerModulus(3, 2), 1) is None
        assert theorem_precondition_error(PrimePowerModulus(5, 2), 1) is None
        assert "(order 21 != 42)" in theorem_precondition_error(PrimePowerModulus(7, 2), 1)
        # 2 is a primitive root modulo 9, but 9 is not prime: order 6, not 8
        assert poly_p_precondition_error(9) == "2 is not a primitive root modulo 9"
        with pytest.raises(ValueError):
            poly_p_precondition_error(1)

    def test_predicted_values(self):
        m = PrimePowerModulus(3, 2)
        assert [theorem_kerror_lc(m, 1, k) for k in range(7)] == [
            20, 20, 20, 19, 19, 19, 0,
        ]
        m5 = PrimePowerModulus(5, 2)
        assert theorem_kerror_lc(m5, 2, 0) == 100
        assert theorem_kerror_lc(m5, 2, 39) == 100
        assert theorem_kerror_lc(m5, 2, 40) == 0

    @pytest.mark.parametrize("levels", [{0}, {1}, {2}])
    def test_full_profile_matches_brute_force(self, levels):
        m = PrimePowerModulus(3, 2)
        f = binary_class_sequence(m, levels)
        profile = kerror_lc_profile(f, 6)
        check_theorem_profile(profile, m, levels, 6)
        assert profile == [(0, 20, True), (3, 19, True), (6, 0, True)]
        entries = profile_entries(profile, 6)
        assert all(exact for _, _, exact in entries)
        assert [lc for _, lc, _ in entries] == [
            20, 20, 20, 19, 19, 19, 0,
        ]

    @pytest.mark.parametrize("p,levels", [(11, {0, 3, 7}), (13, {1, 2, 4, 8, 11})])
    def test_odd_index_set_past_first_drops(self, p, levels):
        # odd |I| >= 3 is the only way to reach p^{r-1}(p-1) <= k < weight,
        # where the theorem predicts p^{r+1} - p^r
        m = PrimePowerModulus(p, 2)
        f = binary_class_sequence(m, levels)
        profile = kerror_lc_profile(f, f.weight)
        check_theorem_profile(profile, m, levels, f.weight)
        assert all(exact for _, _, exact in profile)
        base, k = p**3 - p**2, p * (p - 1)
        assert f.weight == k * len(levels)
        assert profile[2:] == [(k, base, True), (f.weight, 0, True)]
        entries = profile_entries(profile, f.weight)
        assert [lc for _, lc, _ in entries[k - 1 : k + 1]] == [base + 1, base]
        assert [lc for _, lc, _ in entries[-2:]] == [base, 0]

    def test_refuses_non_primitive_p(self):
        m = PrimePowerModulus(7, 2)
        f = binary_class_sequence(m, {0})
        with pytest.raises(ValueError, match="primitive root"):
            check_theorem_profile(kerror_lc_profile(f, 0), m, {0}, 0)

    def test_refuses_oversized_index_set(self):
        m = PrimePowerModulus(3, 2)
        f = binary_class_sequence(m, {0, 1})
        with pytest.raises(ValueError):
            check_theorem_profile(kerror_lc_profile(f, 2), m, {0, 1}, 2)

    def test_budget_exhaustion_marks_inexact(self):
        # 75 = 3 * 5^2 is not a prime power, so it has no structural engine
        # and the profile comes from budgeted exhaustive search.
        rng = random.Random(75)
        f = PeriodicSequence(2, 75, tuple(rng.randrange(2) for _ in range(75)))
        profile = kerror_lc_profile(f, k_max=3, budget=1000)  # 1 + 75 patterns fit
        entries = profile_entries(profile, 3)
        assert [exact for _, _, exact in entries] == [True, True, False, False]
        # the exact entries match a search under the default budget
        assert entries[:2] == profile_entries(kerror_lc_bruteforce(f, 1), 1)
        lc1 = entries[1][1]
        assert entries[0][1] == lc_via_gcd(f)
        # an inexact entry carries the last exact value: LC_1 is achieved
        # with one error, so it bounds LC_2 and LC_3 from above
        assert [lc for _, lc, _ in entries[2:]] == [lc1, lc1]
        assert profile[-1] == (2, lc1, False)

    def test_negative_k_is_refused(self):
        with pytest.raises(ValueError, match="k must be >= 0, got -1"):
            theorem_kerror_lc(PrimePowerModulus(3, 2), 1, -1)

    def test_theorem_breakpoints(self):
        # |I| = 1 drops at p^{r-1} and at the weight p^{r-1}(p-1), with no
        # empty run of p^{r+1} - p^r between; odd |I| >= 3 has that run,
        # even |I| drops once
        assert complexity._theorem_steps(PrimePowerModulus(3, 2), 1) == (
            (0, 20), (3, 19), (6, 0))
        assert complexity._theorem_steps(PrimePowerModulus(11, 2), 3) == (
            (0, 1220), (11, 1211), (110, 1210), (330, 0))
        assert complexity._theorem_steps(PrimePowerModulus(5, 2), 2) == ((0, 100), (40, 0))

    @pytest.mark.parametrize("profile,message", [
        # the drop at k = 3 one k late, then one k early
        ([(0, 20, True), (4, 19, True), (6, 0, True)], "LC_3 = 20 contradicts predicted 19"),
        ([(0, 20, True), (2, 19, True), (6, 0, True)], "LC_2 = 19 contradicts predicted 20"),
        # an extra drop inside the theorem's run of 19
        ([(0, 20, True), (3, 19, True), (5, 18, True), (6, 0, True)],
         "LC_5 = 18 contradicts predicted 19"),
        # a missing drop at the weight
        ([(0, 20, True), (3, 19, True)], "LC_6 = 19 contradicts predicted 0"),
    ])
    def test_mismatch_names_the_first_bad_k(self, profile, message):
        m = PrimePowerModulus(3, 2)
        at = r" at \(p=3, r=2, I=\[0\]\)$"
        with pytest.raises(RuntimeError, match=f"^computed {message}{at}"):
            check_theorem_profile(profile, m, {0}, 6)

    def test_exact_flag_changes_are_not_drops(self):
        m = PrimePowerModulus(3, 2)
        check_theorem_profile(
            [(0, 20, True), (2, 20, False), (3, 19, False), (6, 0, True)], m, {0}, 6)

    @pytest.mark.parametrize("p,levels,k_max", [
        (3, {0}, 0), (3, {0}, 2), (3, {0}, 4), (3, {0}, 5),
        (11, {0, 3, 7}, 10), (11, {0, 3, 7}, 50), (11, {0, 3, 7}, 200),
    ])
    def test_k_max_between_breakpoints_passes(self, p, levels, k_max):
        # the theorem's breakpoints past k_max are not compared
        m = PrimePowerModulus(p, 2)
        profile = kerror_lc_profile(binary_class_sequence(m, levels), k_max)
        assert profile[-1][0] < k_max or k_max == 0
        check_theorem_profile(profile, m, levels, k_max)

    def test_theorem_requires_r2(self):
        with pytest.raises(ValueError, match="r >= 2"):
            theorem_kerror_lc(PrimePowerModulus(3, 1), 1, 0)

    @pytest.mark.parametrize("p,size", [(3, 0), (3, 2), (5, 3)])
    def test_theorem_requires_index_size_in_range(self, p, size):
        with pytest.raises(ValueError, match="index set size"):
            theorem_kerror_lc(PrimePowerModulus(p, 2), size, 0)

    def test_theorem_requires_two_primitive_mod_p2(self):
        with pytest.raises(ValueError, match="primitive root modulo 7\\^2"):
            theorem_kerror_lc(PrimePowerModulus(7, 2), 1, 0)


# p^n with p a non-Wieferich odd prime: 2 is primitive mod p^n for 3, 5, 11
# and 13, and has order (p-1)/2 mod p for 7, 17 and 23, so their profiles
# run through the intermediate cyclic codes of length p
QUALIFYING_PERIODS = (3, 9, 27, 81, 5, 25, 11, 13, 7, 49, 17, 23)


@st.composite
def qualifying_sequences(draw):
    period = draw(st.sampled_from(QUALIFYING_PERIODS))
    symbols = draw(st.lists(st.integers(0, 1), min_size=period, max_size=period))
    return PeriodicSequence(2, period, tuple(symbols))


# periods of the exhaustive-oracle property: 7 and 49 take the e = 2 middle tier
_ORACLE_PERIODS = (7, 9, 25, 27, 49, 81, 125)


@st.composite
def _oracle_cases(draw):
    """(binary period, k_max <= 3, <= 2 past 49): random, sparse, dense or a block repeated."""
    T = draw(st.sampled_from(_ORACLE_PERIODS))
    sizes = st.sampled_from([d for d in range(1, T + 1) if T % d == 0])
    symbols = _shaped_symbols(draw, 2, T, sizes)
    if draw(st.booleans()):  # the complement: sparse turns dense
        symbols = [1 - x for x in symbols]
    return PeriodicSequence(2, T, symbols), draw(st.integers(0, 3 if T <= 49 else 2))


def _shaped_binary(shape, T, rng):
    """T bits: random, sparse (3 ones), dense (3 zeros), all 0 or all 1."""
    if shape == "random":
        return [rng.randrange(2) for _ in range(T)]
    if shape in ("sparse", "dense"):
        symbols = [int(shape == "dense")] * T
        for u in rng.sample(range(T), 3):
            symbols[u] ^= 1
        return symbols
    return [int(shape == "one")] * T


@st.composite
def _profile_cases(draw):
    """(binary sequence, k_max, budget): a structural period, or 1..12 under a small budget."""
    if draw(st.booleans()):
        seq = draw(qualifying_sequences())
    else:
        T = draw(st.integers(1, 12))
        seq = PeriodicSequence(2, T, draw(st.lists(st.integers(0, 1), min_size=T, max_size=T)))
    return seq, draw(st.integers(0, seq.period)), draw(st.integers(0, 200))


class TestStructuralKError:
    """The structural engine of kerror_lc_profile against independent engines.

    A budget of 1 pattern leaves every k >= 1 entry inexact on the
    exhaustive path, so an all-exact profile shows the structural engine ran.
    """

    @settings(max_examples=60, deadline=None)
    @given(qualifying_sequences())
    def test_matches_exhaustive_search(self, seq):
        # exhaustive k = 3 at period 81 takes seconds per example; it is
        # covered once by test_matches_exhaustive_search_k3_period_81.
        # Period 49 is capped the same way.
        k_max = 2 if seq.period in (49, 81) else 3
        assert kerror_lc_profile(seq, k_max, budget=1) == kerror_lc_bruteforce(seq, k_max)

    def test_matches_exhaustive_search_k3_period_81(self):
        rng = random.Random(81)
        seq = PeriodicSequence(2, 81, tuple(rng.randrange(2) for _ in range(81)))
        assert kerror_lc_profile(seq, 3, budget=1) == kerror_lc_bruteforce(seq, 3)

    @pytest.mark.parametrize("level", range(7))
    def test_single_classes_at_7_2(self, level):
        # 2 has order 21 mod 49: period 343 goes through the codes of length 7
        f = binary_class_sequence(PrimePowerModulus(7, 2), {level})
        assert kerror_lc_profile(f, 1, budget=1) == kerror_lc_bruteforce(f, 1)

    def test_no_small_prime_power_reaches_exhaustive_search(self, monkeypatch):
        def refuse(seq, k_max, budget):
            raise AssertionError(f"period {seq.period} reached exhaustive search")

        monkeypatch.setattr(complexity, "kerror_lc_bruteforce", refuse)
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            period = p
            while period < 10**5:
                seq = PeriodicSequence(2, period, (1,) + (0,) * (period - 1))
                assert kerror_lc_profile(seq, 1, budget=1) == [
                    (0, period, True), (1, 0, True)
                ]
                period *= p

    def test_cyclic_codes_are_the_two_factor_codes(self):
        # below 10^4 only e = 2 at 7, 17 and 23 gives codes within the
        # dimension cap: the Hamming [7,4], quadratic-residue [17,9] and
        # Golay [23,12] pairs. Each must be the multiples of one factor of
        # sympy's factorization of 1 + Y + ... + Y^{p-1}, the reference.
        least_weight = {7: 3, 17: 5, 23: 7}
        shapes = {p: complexity._cyclic_codes(p) for p in sympy.primerange(3, 10**4)}
        assert all(codes is None or len(codes) in (0, 2) for codes in shapes.values())
        assert sorted(p for p, codes in shapes.items() if codes) == [7, 17, 23]
        for p, weight in least_weight.items():
            h = (p + 1) // 2
            words = []
            for even, odd in shapes[p]:
                even, odd = ({lo | hi << h for lo, hi in zip(*half)} for half in (even, odd))
                assert len(even) == len(odd) == 2 ** (h - 1)
                assert {w.bit_count() & 1 for w in even} == {0}
                assert {w.bit_count() & 1 for w in odd} == {1}
                assert min(w.bit_count() for w in even | odd if w) == weight
                words.append(even | odd)
            assert words[0] & words[1] == {0, (1 << p) - 1}
            _, factors = gf_factor_sqf([1] * p, 2, ZZ)
            multiples = {frozenset(_f2_mask(gf_mul(_f2_poly(a), f, 2, ZZ))
                                   for a in range(1 << (p + 1 - len(f))))
                         for f in factors}
            assert len(factors) == 2
            assert {frozenset(code) for code in words} == multiples

    @settings(max_examples=80, deadline=None)
    @given(_oracle_cases())
    def test_matches_the_exhaustive_oracle(self, case):
        # a budget that covers every pattern up to k_max keeps the oracle exact
        seq, k_max = case
        profile = kerror_lc_profile(seq, k_max, budget=1)
        assert profile == kerror_lc_bruteforce(seq, k_max, budget=10**6)
        assert all(exact for _, _, exact in profile)

    @pytest.mark.parametrize("shape", ["random", "sparse", "dense", "zero", "one"])
    def test_period_131_starts_on_16_bit_lanes(self, shape):
        # p = 131 is past the 8-bit lane's guard bit 2^7 at cost 1, and 2 is
        # primitive modulo 131, so the recursion reads one 16-bit lane per bit
        assert complexity._cost_lanes(131) == 2 and complexity._cyclic_codes(131) == ()
        seq = PeriodicSequence(2, 131, _shaped_binary(shape, 131, random.Random(131)))
        assert kerror_lc_profile(seq, 2, budget=1) == kerror_lc_bruteforce(seq, 2)

    def test_cost_lanes_never_narrow_as_costs_grow(self):
        # the least of 1, 2, 4 and 8 bytes with v below the guard bit
        # 2^(8w - 1), on both sides of each guard bit, and no narrower for
        # any larger v up to 2^63 - 1
        cases = {1: 1, 7: 1, 8: 1, 127: 1, 128: 2, 2**15 - 1: 2, 2**15: 4,
                 2**31 - 1: 4, 2**31: 8, 2**63 - 1: 8}
        assert [complexity._cost_lanes(v) for v in cases] == list(cases.values())
        swept = [complexity._cost_lanes(v) for b in range(64) for v in (2**b - 1, 2**b)][:-1]
        assert swept == sorted(swept)

    @pytest.mark.parametrize("r", [9, 10])
    def test_class_profiles_widen_past_16_bit_lanes(self, r, monkeypatch):
        # the T = all costs multiply by 3 per level, so the profile down to
        # LC 0 runs on 8-, 16- and then 32-bit lanes
        real, widths = complexity._cost_lanes, set()

        def recording(v):
            w = real(v)
            widths.add(w)
            return w

        monkeypatch.setattr(complexity, "_cost_lanes", recording)
        m = PrimePowerModulus(3, r)
        f = binary_class_sequence(m, {0})
        profile = kerror_lc_profile(f, f.weight)
        check_theorem_profile(profile, m, {0}, f.weight)
        assert all(exact for _, _, exact in profile) and profile[-1] == (f.weight, 0, True)
        assert widths == {1, 2, 4}

    @pytest.mark.parametrize("period", [3, 7, 9, 49, 125, 131, 343, 2187])
    def test_constant_periods(self, period):
        # all 0 has LC 0; all 1 has LC 1 until all period bits are flipped
        zero = PeriodicSequence(2, period, bytes(period))
        one = PeriodicSequence(2, period, b"\1" * period)
        assert kerror_lc_profile(zero, period) == [(0, 0, True)]
        assert kerror_lc_profile(one, period) == [(0, 1, True), (period, 0, True)]
        assert profile_entries(kerror_lc_profile(one, period), period) == (
            [(k, 1, True) for k in range(period)] + [(period, 0, True)])

    @settings(max_examples=100, deadline=None)
    @given(qualifying_sequences())
    def test_prefixes_end_at_every_breakpoint(self, seq):
        # k_max at each drop of LC and one below it cuts the breakpoints there
        profile = kerror_lc_profile(seq, seq.period, budget=1)
        drops = [k for k, _, _ in profile[1:]]
        for j in {0, seq.period}.union(*({k - 1, k} for k in drops)):
            assert kerror_lc_profile(seq, j, budget=1) == [b for b in profile if b[0] <= j]

    @settings(max_examples=150, deadline=None)
    @given(_profile_cases())
    def test_both_engines_return_canonical_breakpoints(self, case):
        # the first point at k = 0, k strictly increasing up to k_max, and
        # each point a change of lc or exact; the budget cuts the oracle short
        seq, k_max, budget = case
        for profile in (kerror_lc_profile(seq, k_max, budget),
                        kerror_lc_bruteforce(seq, k_max, budget)):
            ks = [k for k, _, _ in profile]
            assert ks[0] == 0 and ks == sorted(set(ks)) and ks[-1] <= k_max
            assert all(a[1:] != b[1:] for a, b in zip(profile, profile[1:]))
            entries = profile_entries(profile, k_max)
            assert [k for k, _, _ in entries] == list(range(k_max + 1))
            assert set(profile) <= set(entries)

    @settings(max_examples=200, deadline=None)
    @given(qualifying_sequences())
    def test_profile_shape(self, seq):
        profile = kerror_lc_profile(seq, seq.period, budget=1)
        assert all(exact for _, _, exact in profile)
        values = [lc for _, lc, _ in profile_entries(profile, seq.period)]
        mask = sum(b << i for i, b in enumerate(seq.symbols))
        assert values[0] == lc_binary(mask, seq.period) == lc_via_gcd(seq)
        assert values == sorted(values, reverse=True)
        assert all(lc == 0 for lc in values[seq.weight:])
        # a smaller k_max prunes the recursion's k ranges, not its values
        for j in {0, 1, seq.weight // 2, seq.period - 1}:
            assert kerror_lc_profile(seq, j, budget=1) == [b for b in profile if b[0] <= j]


class TestComplexityReportSerialization:
    def test_json_shape(self, capsys):
        code = main([
            "analyze", "--p", "3", "--r", "2", "--kind", "class",
            "--I", "0", "--k-max", "3", "--format", "json",
        ])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert list(doc) == ["sequence", "lc", "method", "kerror"]
        assert list(doc["sequence"]) == ["p", "r", "kind", "I"]
        assert doc["sequence"] == {"p": 3, "r": 2, "kind": "class", "I": [0]}
        assert doc["lc"] == 20
        assert doc["kerror"][0] == {"k": 0, "lc": 20, "exact": True}
        assert doc["kerror"][3] == {"k": 3, "lc": 19, "exact": True}


class TestLemmas:
    @pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (3, 3)])
    def test_root_group_lemmas(self, p, r):
        assert check_root_group_lemmas(PrimePowerModulus(p, r))

    # Flipped coefficients of D_0(X) at (3,2), where p^r = 9:
    # one coefficient breaks (a), (b) and (c); X + X^4 (distance p) keeps
    # (b) and (c) but breaks (a); (1 + X)(1 + X^3 + X^6), with
    # 1 + X^3 + X^6 = (X^9-1)/(X^3-1), keeps (a) and (c) but breaks (b);
    # (X^9-1)/(X-1) keeps (a) and (b) but makes |D_0| = 13 odd, breaking (c).
    # D_0's mask is the first the engine takes, and only it is perturbed;
    # the flips may put multiples of p into D_0.
    @pytest.mark.parametrize(
        "flips", [{5}, {1, 4}, {0, 3, 6, 1, 4, 7}, set(range(9))]
    )
    def test_root_group_lemmas_detect_flips(self, flips, monkeypatch):
        m = PrimePowerModulus(3, 2)
        real = complexity._class_masks

        def flipped(digits, p):
            masks = real(digits, p)
            yield next(masks) ^ sum(1 << u for u in flips)
            yield from masks

        monkeypatch.setattr(complexity, "_class_masks", flipped)
        assert not check_root_group_lemmas(m)

    # p = 257 splits each digit over two byte planes; p itself marks a multiple
    @pytest.mark.parametrize("p", [3, 5, 257])
    def test_class_masks_mark_each_digit(self, p):
        rng = random.Random(p)
        digits = [rng.randrange(p + 1) for _ in range(700)]
        # as top_digits gives them: a bytearray below 256, else a list
        given = bytearray(digits) if p < 256 else list(digits)
        masks = list(complexity._class_masks(given, p))
        assert masks == [
            sum(1 << u for u, d in enumerate(digits) if d == l) for l in range(p)
        ]

    def test_root_group_lemmas_read_the_top_digits(self, monkeypatch):
        m = PrimePowerModulus(3, 2)
        real = complexity.top_digits

        def off_at_one(m, on_multiples):  # u = 1 leaves D_0 for P: |D_0| turns odd
            digits = real(m, on_multiples)
            digits[1] = on_multiples
            return digits

        monkeypatch.setattr(complexity, "top_digits", off_at_one)
        assert not check_root_group_lemmas(m)

    @given(st.integers(1, 80), st.integers(0, 2**400))
    def test_fold_is_remainder_mod_xn_minus_1(self, n, a):
        xn1 = _f2_poly((1 << n) | 1)
        assert complexity._fold(a, n) == _f2_mask(gf_rem(_f2_poly(a), xn1, 2, ZZ))

    # The lemma checks test c | A, with c = (X^n - 1)/(X^d - 1), as
    # (X^n - 1) | A (X^d - 1); half the draws are multiples of c.
    @settings(max_examples=300, deadline=None)
    @given(
        st.sampled_from([(3, 1), (5, 1), (13, 1), (9, 3), (27, 3), (25, 5)]),
        st.integers(0, 2**60),
        st.booleans(),
    )
    def test_fold_tests_divisibility_by_quotient(self, nd, a, multiple):
        n, d = nd
        c = gf_quo(_f2_poly((1 << n) | 1), _f2_poly((1 << d) | 1), 2, ZZ)
        if multiple:
            a = _f2_mask(gf_mul(_f2_poly(a), c, 2, ZZ))
        divides = not gf_rem(_f2_poly(a), c, 2, ZZ)
        assert divides or not multiple
        assert (complexity._fold(a ^ (a << d), n) == 0) == divides

    _LONG = 2**599 + 2**300 + 1

    @given(_bitmasks(), _bitmasks())
    @example(0, 0)
    @example(0, 0b1011)
    @example(_LONG, 0)
    @example(_LONG, 1)
    @example(_LONG, _LONG)
    def test_bitmask_kernel_matches_sympy(self, a, b):
        fa, fb = _f2_poly(a), _f2_poly(b)
        assert complexity._bgcd(a, b) == _f2_mask(gf_gcd(fa, fb, 2, ZZ))

    # operands as coefficient lists, X^i at index i; every coefficient p - 1
    # drives a remainder step's lane to its largest sum, p(p - 1): 6 at
    # p = 3, the top of 4-bit lanes, 156 at p = 13, the top of 8-bit lanes,
    # and 65,792 at p = 257 on 24-bit lanes
    @settings(deadline=None)
    @given(_packed_operands())
    @example((2, [], []))
    @example((7, [3, 0, 5], []))
    @example((5, [], [0, 1]))
    @example((11, [4, 0, 7, 1], [4, 0, 7, 1]))
    @example((5, [4] + [0] * 11 + [1], [4, 0, 0, 0, 1]))  # X^4 - 1 | X^12 - 1
    @example((3, [2] * 300, [2] * 120))
    @example((13, [12] * 300, [12] * 120))
    @example((257, [256] * 300, [256] * 120))
    def test_packed_euclid_matches_sympy(self, operands):
        p, a, b = operands
        W = _euclid_width(p)
        g = complexity._gcd_packed(_pack(a, W), _pack(b, W), p, W, max(len(a), len(b)))
        g = [g >> W * i & (1 << W) - 1 for i in range(-(-g.bit_length() // W))][::-1]
        monic = [c * pow(g[0], -1, p) % p for c in g] if g else []
        assert monic == gf_gcd(gf_strip(a[::-1]), gf_strip(b[::-1]), p, ZZ)

    def test_root_group_needs_r2(self):
        with pytest.raises(ValueError):
            check_root_group_lemmas(PrimePowerModulus(3, 1))

    @pytest.mark.parametrize("p", [3, 5, 11, 13])
    def test_poly_p_lemma(self, p):
        assert check_poly_p_lemma(p)

    def test_poly_p_refuses_p7(self):
        with pytest.raises(ValueError, match="primitive root"):
            check_poly_p_lemma(7)

    def test_poly_p_refuses_p_past_cap(self):
        # 2 is primitive modulo 19, past the cap of the old exhaustive search
        assert check_poly_p_lemma(19)
        # 2 is primitive modulo 65539 too, but its matrix would take ~300 MB:
        # the size guard refuses it before anything is built
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"p <= {complexity._POLY_P_CAP}, got p=65539"):
                check_poly_p_lemma(65539)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16

    def test_cyclotomic_factor_count_is_p_minus_1_over_ord_2(self):
        # Phi_p splits over F_2 into (p-1)/ord_p(2) factors of degree ord_p(2)
        for p in range(3, 2000, 2):
            if sympy.isprime(p):
                expected = (p - 1) // sympy.n_order(2, p)
                assert complexity._cyclotomic_factor_count(p) == expected, p
