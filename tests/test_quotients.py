import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from eulerseq import verify
from eulerseq.quotients import (
    PrimePowerModulus,
    euler_quotient,
    fermat_quotient_order,
    new_quotient_h,
    quotient_table,
)
from eulerseq.sequences import level_sequence
from eulerseq.verify import suite_qrs, suite_theorem_hh


class TestPrimePowerModulus:
    def test_rejects_even_prime(self):
        with pytest.raises(ValueError):
            PrimePowerModulus(2, 3)

    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimePowerModulus(9, 1)

    def test_derived_quantities(self):
        m = PrimePowerModulus(3, 2)
        assert m.modulus == 9
        assert m.phi == 6
        assert m.sequence_period == 27

    def test_cached_values_leave_eq_and_hash_on_the_fields(self):
        read, fresh = PrimePowerModulus(5, 3), PrimePowerModulus(5, 3)
        assert (read.modulus, read.phi) == (125, 100)
        assert read == fresh and hash(read) == hash(fresh)
        assert read != PrimePowerModulus(5, 2)


class TestEulerQuotient:
    def test_fermat_case(self):
        assert euler_quotient(PrimePowerModulus(3, 1), 2) == 1  # (4-1)/3

    def test_zero_on_multiples(self):
        assert euler_quotient(PrimePowerModulus(5, 2), 10) == 0

    def test_r2_example(self):
        # 2^6 = 64 = 1 + 7*9, quotient 7
        assert euler_quotient(PrimePowerModulus(3, 2), 2) == 7

    def test_rejects_negative_u(self):
        with pytest.raises(ValueError, match="u must be nonnegative, got -1"):
            euler_quotient(PrimePowerModulus(3, 2), -1)

    def test_matches_direct_integer_arithmetic(self):
        for (p, r) in [(3, 2), (3, 3), (5, 2), (7, 2)]:
            m = PrimePowerModulus(p, r)
            for u in range(1, 60):
                if u % p == 0:
                    continue
                direct = (u**m.phi - 1) // m.modulus % m.modulus
                assert euler_quotient(m, u) == direct


class TestQuotientTable:
    """The one-pass table against the per-residue definition euler_quotient."""

    @pytest.mark.parametrize(
        "p,r", [(3, 2), (3, 3), (3, 5), (5, 2), (5, 3), (7, 2), (11, 2), (13, 2)]
    )
    def test_exhaustive(self, p, r):
        m = PrimePowerModulus(p, r)
        table = quotient_table(m)
        assert len(table) == m.sequence_period
        assert list(table) == [euler_quotient(m, u) for u in range(m.sequence_period)]

    @given(
        st.sampled_from([(3, 1), (3, 4), (5, 1), (5, 2), (7, 3), (17, 1)]),
        st.integers(0, 10**12),
    )
    def test_depends_on_u_mod_p_r_plus_1(self, pr_pair, u):
        m = PrimePowerModulus(*pr_pair)
        assert quotient_table(m)[u % m.sequence_period] == euler_quotient(m, u)


M53 = PrimePowerModulus(5, 3)
LEVELS_5_3 = [level_sequence(M53, j) for j in range(M53.r)]


class TestLevelDigits:
    """The level sequences carry the base-p digits a_j(u) of Q_r(u)."""

    def test_multiple_of_p(self):
        m = PrimePowerModulus(3, 2)
        assert [level_sequence(m, j)[3] for j in range(2)] == [0, 0]

    def test_example(self):
        m = PrimePowerModulus(3, 2)
        # Q_2(2) = 7 = 1 + 2*3
        assert [level_sequence(m, j)[2] for j in range(2)] == [1, 2]

    @given(st.integers(0, 10**6))
    def test_recomposition(self, u):
        m = M53
        q = euler_quotient(m, u)
        digits = [seq[u] for seq in LEVELS_5_3]
        assert digits == [q // m.p**j % m.p for j in range(m.r)]
        assert sum(a * m.p**j for j, a in enumerate(digits)) == q


class TestNewQuotient:
    def test_top_digit(self):
        assert new_quotient_h(PrimePowerModulus(3, 2), 2) == 2

    def test_zero_on_multiples(self):
        for l in range(5):
            assert new_quotient_h(PrimePowerModulus(3, 2), 3 * l) == 0

    def test_difference_formula_cross_check(self):
        # (Q_r - Q_{r-1}) / p^{r-1} mod p equals the top digit
        for (p, r) in [(3, 2), (3, 3), (5, 2)]:
            m = PrimePowerModulus(p, r)
            lower = PrimePowerModulus(p, r - 1) if r > 1 else None
            for u in range(m.sequence_period):
                if u % p == 0:
                    continue
                if lower is None:
                    continue
                diff = (
                    (euler_quotient(m, u) - euler_quotient(lower, u))
                    // p ** (r - 1)
                    % p
                )
                assert new_quotient_h(m, u) == diff

    def test_r1_is_fermat_quotient(self):
        m = PrimePowerModulus(3, 1)
        for u in range(27):
            assert new_quotient_h(m, u) == euler_quotient(m, u)

    @pytest.mark.parametrize("p,r", [(3, 2), (3, 3), (5, 2), (7, 2)])
    def test_shift_law(self, p, r):
        m = PrimePowerModulus(p, r)
        for v in range(m.modulus):
            if v % p == 0:
                continue
            hv = new_quotient_h(m, v)
            for k in range(p):
                expected = (hv - k * pow(v, p - 2, p)) % p
                assert new_quotient_h(m, v + k * m.modulus) == expected

    @pytest.mark.parametrize("p,r", [(3, 2), (3, 3), (5, 2), (7, 2)])
    def test_least_period(self, p, r):
        m = PrimePowerModulus(p, r)
        period = m.sequence_period
        sym = [new_quotient_h(m, u) for u in range(2 * period)]
        assert sym[:period] == sym[period:]
        shorter = period // p
        assert any(sym[u] != sym[u + shorter] for u in range(period))

    def test_h1_congruence_worked_example(self):
        # with u^{p-1} = 1 + c1 p + c2 p^2 + ...:
        # H_0 = c1 and H_1 = (p-1)/2 * c1^2 + c2 mod p, except that at
        # p = 3 the binomial term C(p,3) c1^3 p^3 survives modulo p^4
        # (p does not divide C(3,3)) and adds c1^3 to H_1.
        for p in (3, 5, 7):
            m1 = PrimePowerModulus(p, 1)
            m2 = PrimePowerModulus(p, 2)
            for u in range(1, p**3):
                if u % p == 0:
                    continue
                t = u ** (p - 1)
                c1 = t // p % p
                c2 = t // p**2 % p
                h1 = ((p - 1) // 2 * c1 * c1 + c2) % p
                if p == 3:
                    h1 = (h1 + c1**3) % p
                assert new_quotient_h(m1, u) == c1
                assert new_quotient_h(m2, u) == h1


class TestFermatQuotientOrder:
    def test_order_one_is_fermat(self):
        assert fermat_quotient_order(3, 1, 2) == 1

    def test_order_two_example(self):
        # 2^2 = 4 = 1 + 1*3 + 0*9
        assert fermat_quotient_order(3, 2, 2) == 0

    def test_zero_on_multiples(self):
        assert fermat_quotient_order(5, 2, 5) == 0
        assert fermat_quotient_order(5, 3, 0) == 0

    def test_matches_digit_of_exact_power(self):
        for p in (3, 5):
            for i in (1, 2, 3):
                for u in range(1, 200):
                    if u % p == 0:
                        continue
                    assert fermat_quotient_order(p, i, u) == u ** (p - 1) // p**i % p

    @pytest.mark.parametrize("p", [3, 5])
    @pytest.mark.parametrize("i", [1, 2, 3])
    def test_shift_rule(self, p, i):
        pi = p**i
        for v in range(1, pi):
            if v % p == 0:
                continue
            fv = fermat_quotient_order(p, i, v)
            for k in range(p):
                expected = (fv - k * pow(v, p - 2, p)) % p
                assert fermat_quotient_order(p, i, v + k * pi) == expected

    def test_bad_order(self):
        with pytest.raises(ValueError):
            fermat_quotient_order(3, 0, 2)

    @pytest.mark.parametrize("p", [9, 2])
    def test_rejects_p_not_odd_prime(self, p):
        with pytest.raises(ValueError, match=f"p must be an odd prime, got {p}"):
            fermat_quotient_order(p, 1, 1)

    def test_rejects_negative_u(self):
        with pytest.raises(ValueError, match="u must be nonnegative, got -1"):
            fermat_quotient_order(3, 1, -1)


class TestCongruenceQrs:
    # verify's q-r-s suite compares quotient_table's Q_r with each Q_s from
    # its definition at every u in one period and every 0 < s <= r
    def test_examples(self):
        assert suite_qrs(3, 2) == [("q-r-s at (p=3, r=2)", True, "u < 27, s <= 2")]
        assert suite_qrs(5, 3) == [("q-r-s at (p=5, r=3)", True, "u < 625, s <= 3")]
        assert suite_qrs(3, 1) == [("q-r-s at (p=3, r=1)", True, "vacuous for r < 2")]

    @pytest.mark.parametrize("p,r", [(3, 3), (3, 4), (5, 3)])
    def test_exhaustive(self, p, r):
        assert all(passed for _, passed, _ in suite_qrs(p, r))

    # digit j of one unit's Q_r moved by 1: s = j + 1 sees it first, and the
    # top digit j = r - 1 only s = r; a multiple of p holding nonzero fails too
    @pytest.mark.parametrize("p,r", [(3, 4), (5, 3)])
    def test_corrupted_digit_fails(self, p, r, monkeypatch):
        real = verify.quotient_table
        n = p ** (r + 1)
        for u in (1, n - 1, p ** r + 2, 0, p):
            for j in range(r):
                def corrupted(m, u=u, j=j):
                    table = real(m)
                    digit = table[u] // p**j % p
                    table[u] += ((digit + 1) % p - digit) * p**j
                    return table

                monkeypatch.setattr(verify, "quotient_table", corrupted)
                [(_, passed, _)] = suite_qrs(p, r)
                assert not passed, (u, j)

    # Q_r + p^r agrees with Q_r mod p^s at every s <= r, but is no quotient
    @pytest.mark.parametrize("shift", [3**4, -(3**4)])
    def test_entry_out_of_range_fails(self, shift, monkeypatch):
        real = verify.quotient_table

        def shifted(m):
            table = real(m)
            table[2] += shift
            return table

        monkeypatch.setattr(verify, "quotient_table", shifted)
        assert suite_qrs(3, 4) == [("q-r-s at (p=3, r=4)", False, "u < 243, s <= 4")]


def _shift_law_violations(table, p, r):
    """(v, k) pairs, p not dividing v, where H(v + k p^r) != H(v) - k v^{p-2} mod p."""
    base, pr = p ** (r - 1), p**r
    return sum(
        table[v + k * pr] // base != (table[v] // base - k * pow(v, p - 2, p)) % p
        for v in range(pr)
        if v % p
        for k in range(p)
    )


class TestShiftLawSuite:
    # theorem-hh counts each violated (v, k) pair once, as the per-pair loop
    # above does, whichever single entry of the table takes a wrong value in
    # [0, p^r)
    @pytest.mark.parametrize("p,r,trials", [(3, 3, 40), (5, 2, 40), (7, 2, 40), (257, 1, 4)])
    def test_violations_match_reference(self, p, r, trials, monkeypatch):
        rng = random.Random(f"{p},{r}")
        real = quotient_table(PrimePowerModulus(p, r))
        for _ in range(trials):
            table = list(real)
            table[rng.randrange(len(table))] = rng.randrange(p**r)
            monkeypatch.setattr(verify, "quotient_table", lambda m, table=table: list(table))
            [(_, passed, detail)] = suite_theorem_hh(p, r)
            expected = _shift_law_violations(table, p, r)
            assert passed == (expected == 0)
            assert detail == (f"{expected} violations" if expected else "all units checked")
