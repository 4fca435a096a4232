import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eulerseq.complexity import (
    ComplexityReport,
    ErrorPattern,
    PatternBudgetExceeded,
    berlekamp_massey,
    check_poly_p_lemma,
    check_root_group_lemmas,
    constructive_error_pattern,
    kerror_lc_bruteforce,
    kerror_lc_profile,
    kerror_profile,
    lc_binary,
    lc_via_gcd,
    linear_complexity,
    theorem_kerror_lc,
    two_is_primitive_root_mod_p2,
)
from eulerseq.fieldarith import PrimeField
from eulerseq.quotients import PrimePowerModulus
from eulerseq.sequences import PeriodicSequence, binary_class_sequence, level_sequence

F2 = PrimeField(2)
F3 = PrimeField(3)


def bits(*symbols):
    return PeriodicSequence(2, len(symbols), symbols)


class TestLinearComplexity:
    def test_zero_sequence(self):
        z = bits(0, 0, 0, 0, 0)
        assert berlekamp_massey(z, F2) == 0
        assert lc_via_gcd(z, F2) == 0

    def test_impulse_has_full_lc(self):
        for T in (3, 9, 14):
            s = PeriodicSequence(2, T, (1,) + (0,) * (T - 1))
            assert berlekamp_massey(s, F2) == T
            assert lc_via_gcd(s, F2) == T

    def test_all_ones_odd_period(self):
        for T in (3, 9, 27):
            s = PeriodicSequence(2, T, (1,) * T)
            assert lc_via_gcd(s, F2) == 1
            assert berlekamp_massey(s, F2) == 1

    def test_alphabet_mismatch(self):
        s = PeriodicSequence(3, 3, (0, 1, 2))
        with pytest.raises(ValueError):
            berlekamp_massey(s, F2)
        with pytest.raises(ValueError):
            lc_via_gcd(s, F2)

    def test_level_sequence_lc(self):
        m = PrimePowerModulus(3, 2)
        seq = level_sequence(m, 1)
        assert berlekamp_massey(seq, F3) == 11  # p^r + p - 1

    def test_cross_oracle_random(self):
        rng = random.Random(1234)
        for _ in range(200):
            char = rng.choice([2, 3])
            T = rng.randint(1, 120)
            s = PeriodicSequence(char, T, tuple(rng.randrange(char) for _ in range(T)))
            fp = PrimeField(char)
            lc = lc_via_gcd(s, fp)
            assert berlekamp_massey(s, fp) == lc
            method = "bitmask_gcd" if char == 2 else "berlekamp_massey"
            assert linear_complexity(s) == (lc, method)

    def test_binary_fast_path_matches_reference(self):
        rng = random.Random(99)
        for _ in range(300):
            T = rng.randint(1, 150)
            syms = tuple(rng.randrange(2) for _ in range(T))
            s = PeriodicSequence(2, T, syms)
            mask = sum(b << i for i, b in enumerate(syms))
            assert lc_binary(mask, T) == lc_via_gcd(s, F2)


class TestKErrorBruteForce:
    def test_k0_is_lc(self):
        m = PrimePowerModulus(3, 2)
        f = binary_class_sequence(m, {0})
        assert kerror_lc_bruteforce(f, 0) == lc_via_gcd(f, F2)

    def test_k_equals_weight_gives_zero(self):
        s = bits(1, 0, 1, 0, 0, 1, 0)
        assert kerror_lc_bruteforce(s, s.weight) == 0

    def test_theorem_value_at_k3(self):
        m = PrimePowerModulus(3, 2)
        f = binary_class_sequence(m, {0})
        assert kerror_lc_bruteforce(f, 3) == 19  # p^{r+1} - p^r + 1

    def test_monotone_in_k(self):
        rng = random.Random(7)
        for _ in range(20):
            T = rng.randint(2, 16)
            s = PeriodicSequence(2, T, tuple(rng.randrange(2) for _ in range(T)))
            values = [kerror_lc_bruteforce(s, k) for k in range(min(T, 5) + 1)]
            assert values == sorted(values, reverse=True)

    def test_budget_exceeded(self):
        s = PeriodicSequence(2, 60, tuple(i % 2 for i in range(60)))
        with pytest.raises(PatternBudgetExceeded):
            kerror_lc_bruteforce(s, 10, budget=1000)

    def test_bad_k(self):
        with pytest.raises(ValueError):
            kerror_lc_bruteforce(bits(1, 0), 3)


class TestErrorPatterns:
    def test_pattern_validation(self):
        with pytest.raises(ValueError):
            ErrorPattern(period=9, positions=(1, 10))  # collide mod 9

    def test_lambda_positions(self):
        m = PrimePowerModulus(3, 2)
        pat = constructive_error_pattern(m, "lambda")
        assert pat.positions == (0, 3, 6)
        assert pat.weight == 3  # p^{r-1}

    def test_lambda_times_full_positions(self):
        m = PrimePowerModulus(3, 2)
        pat = constructive_error_pattern(m, "lambda_times_full")
        assert pat.positions == (1, 2, 4, 5, 7, 8)
        assert pat.weight == 6  # p^{r-1}(p-1)

    def test_requires_r2(self):
        with pytest.raises(ValueError):
            constructive_error_pattern(PrimePowerModulus(3, 1), "lambda")

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            constructive_error_pattern(PrimePowerModulus(3, 2), "nope")

    @pytest.mark.parametrize("p,r", [(3, 2), (3, 3), (5, 2)])
    def test_patterns_achieve_theorem_drops(self, p, r):
        m = PrimePowerModulus(p, r)
        f = binary_class_sequence(m, {0})
        base = p ** (r + 1) - p**r
        assert lc_via_gcd(f, F2) == base + p - 1
        lam = constructive_error_pattern(m, "lambda")
        assert lc_via_gcd(lam.apply(f), F2) == base + 1
        full = constructive_error_pattern(m, "lambda_times_full")
        assert lc_via_gcd(full.apply(f), F2) == base


class TestTheoremProfile:
    def test_primitivity_detection(self):
        assert two_is_primitive_root_mod_p2(3)
        assert two_is_primitive_root_mod_p2(5)
        assert not two_is_primitive_root_mod_p2(7)  # ord(2 mod 49) = 21

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
        report = kerror_profile(f, m, levels, k_max=6)
        assert all(exact for _, _, exact in report.kerror_profile)
        assert [lc for _, lc, _ in report.kerror_profile] == [
            20, 20, 20, 19, 19, 19, 0,
        ]

    def test_refuses_non_primitive_p(self):
        m = PrimePowerModulus(7, 2)
        f = binary_class_sequence(m, {0})
        with pytest.raises(ValueError, match="primitive root"):
            kerror_profile(f, m, {0}, k_max=2)

    def test_refuses_oversized_index_set(self):
        m = PrimePowerModulus(3, 2)
        f = binary_class_sequence(m, {0, 1})
        with pytest.raises(ValueError):
            kerror_profile(f, m, {0, 1}, k_max=2)

    def test_rejects_mismatched_sequence(self):
        m = PrimePowerModulus(3, 2)
        f = binary_class_sequence(m, {1})
        with pytest.raises(ValueError, match="not the binary class sequence"):
            kerror_profile(f, m, {0}, k_max=2)

    def test_budget_exhaustion_marks_inexact(self):
        # 2 has order 21 mod 49, so period 343 has no structural engine and
        # the profile comes from budgeted exhaustive search.
        m = PrimePowerModulus(7, 2)
        f = binary_class_sequence(m, {0})
        profile = kerror_lc_profile(f, k_max=3, budget=1000)  # 1 + 343 patterns fit
        assert [exact for _, _, exact in profile] == [True, True, False, False]
        lc1 = kerror_lc_bruteforce(f, 1)
        assert profile[0][1] == lc_via_gcd(f, F2)
        assert profile[1][1] == lc1
        # an inexact entry carries the last exact value: LC_1 is achieved
        # with one error, so it bounds LC_2 and LC_3 from above
        assert [lc for _, lc, _ in profile[2:]] == [lc1, lc1]

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


QUALIFYING_PERIODS = (3, 9, 27, 81, 5, 25, 11, 13)  # p^n with 2 primitive mod p^n


@st.composite
def qualifying_sequences(draw):
    period = draw(st.sampled_from(QUALIFYING_PERIODS))
    symbols = draw(st.lists(st.integers(0, 1), min_size=period, max_size=period))
    return PeriodicSequence(2, period, tuple(symbols))


class TestStructuralKError:
    """The structural engine of kerror_lc_profile against independent engines.

    A budget of 1 pattern leaves every k >= 1 entry inexact on the
    exhaustive path, so an all-exact profile shows the structural engine ran.
    """

    @settings(max_examples=60, deadline=None)
    @given(qualifying_sequences())
    def test_matches_exhaustive_search(self, seq):
        # exhaustive k = 3 at period 81 takes seconds per example; it is
        # covered once by test_matches_exhaustive_search_k3_period_81
        k_max = 2 if seq.period == 81 else 3
        profile = kerror_lc_profile(seq, k_max, budget=1)
        assert all(exact for _, _, exact in profile)
        assert [lc for _, lc, _ in profile] == [
            kerror_lc_bruteforce(seq, k) for k in range(k_max + 1)
        ]

    def test_matches_exhaustive_search_k3_period_81(self):
        rng = random.Random(81)
        seq = PeriodicSequence(2, 81, tuple(rng.randrange(2) for _ in range(81)))
        lc3 = kerror_lc_profile(seq, 3, budget=1)[3]
        assert lc3 == (3, kerror_lc_bruteforce(seq, 3), True)

    @settings(max_examples=200, deadline=None)
    @given(qualifying_sequences())
    def test_profile_shape(self, seq):
        profile = kerror_lc_profile(seq, seq.period, budget=1)
        assert all(exact for _, _, exact in profile)
        values = [lc for _, lc, _ in profile]
        mask = sum(b << i for i, b in enumerate(seq.symbols))
        assert values[0] == lc_binary(mask, seq.period) == lc_via_gcd(seq, F2)
        assert values == sorted(values, reverse=True)
        assert all(lc == 0 for lc in values[seq.weight:])


class TestComplexityReportSerialization:
    def test_json_shape(self):
        report = ComplexityReport(
            sequence_id={"p": 3, "r": 2, "kind": "class", "I": [0]},
            lc=20,
            method="gcd_formula",
            kerror_profile=[(0, 20, True), (3, 19, True)],
        )
        doc = report.to_json_dict()
        assert list(doc) == ["sequence", "lc", "method", "kerror"]
        assert list(doc["sequence"]) == ["p", "r", "kind", "I"]
        assert doc["kerror"][1] == {"k": 3, "lc": 19, "exact": True}


class TestLemmas:
    @pytest.mark.parametrize("p,r", [(3, 2), (5, 2), (3, 3)])
    def test_root_group_lemmas(self, p, r):
        assert check_root_group_lemmas(PrimePowerModulus(p, r))

    def test_root_group_needs_r2(self):
        with pytest.raises(ValueError):
            check_root_group_lemmas(PrimePowerModulus(3, 1))

    @pytest.mark.parametrize("p", [3, 5, 11, 13])
    def test_poly_p_lemma(self, p):
        assert check_poly_p_lemma(p)

    def test_poly_p_refuses_p7(self):
        with pytest.raises(ValueError, match="primitive root"):
            check_poly_p_lemma(7)
