from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.polys.galoistools import gf_div, gf_gcd

from eulerseq.fieldarith import (
    PrimeField,
    multiplicative_order,
    poly_divrem,
    poly_gcd,
)


def to_gf(coeffs):
    """Trimmed low-to-high coefficient list -> sympy's high-to-low form."""
    return [ZZ(c) for c in reversed(coeffs)]


def from_gf(coeffs):
    return [int(c) for c in reversed(coeffs)]


def trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def polys(max_size, min_size=0):
    """Raw coefficient lists over {0, 1, 2}; tests reduce them mod p and trim."""
    return st.lists(st.integers(0, 2), min_size=min_size, max_size=max_size)


class TestMultiplicativeOrder:
    def test_examples(self):
        assert multiplicative_order(2, 9) == 6
        assert multiplicative_order(1, 17) == 1
        assert multiplicative_order(2, 25) == 20  # = phi(25): 2 primitive mod 25

    def test_not_coprime(self):
        with pytest.raises(ValueError):
            multiplicative_order(6, 9)

    def test_lagrange(self):
        import sympy

        for m in range(2, 200):
            phi = sympy.totient(m)
            for g in range(1, m):
                if sympy.gcd(g, m) == 1:
                    assert phi % multiplicative_order(g, m) == 0


class TestPrimeField:
    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(9)

    def test_inverse(self):
        f = PrimeField(7)
        for a in range(1, 7):
            assert a * f.inv(a) % 7 == 1


class TestPolynomial:
    def test_normalization(self):
        # outputs are trimmed lists with coefficients in [0, p)
        assert poly_divrem([2, 1, 2, 2], [1, 1, 1], 3) == ([0, 2], [2, 2])
        assert poly_divrem([1, 0, 1], [0, 0, 1], 3) == ([1], [1])  # not [1, 0]
        assert poly_divrem([1, 1], [1, 1], 3) == ([1], [])
        assert poly_gcd([2, 2], [2, 2], 3) == [1, 1]


class TestDivRem:
    def test_x_squared_by_x(self):
        assert poly_divrem([0, 0, 1], [0, 1], 3) == ([0, 1], [])

    def test_telescoping(self):
        # (X^p - 1)/(X - 1) = 1 + X + ... + X^{p-1} over F_p
        for p in (3, 5, 7):
            xp1 = [p - 1] + [0] * (p - 1) + [1]
            assert poly_divrem(xp1, [p - 1, 1], p) == ([1] * p, [])

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            poly_divrem([1], [], 3)

    @settings(max_examples=200)
    @given(st.integers(2, 3), polys(12), polys(8, min_size=1))
    def test_recomposition(self, p, acs, bcs):
        # against sympy's independent F_p division: a = q*b + r, deg r < deg b
        a = trimmed(c % p for c in acs)
        b = trimmed(c % p for c in bcs)
        if not b:
            return
        q, r = poly_divrem(a, b, p)
        gq, gr = gf_div(to_gf(a), to_gf(b), p, ZZ)
        assert (q, r) == (from_gf(gq), from_gf(gr))
        assert len(r) < len(b)


def enumerate_divisors(poly, p):
    """All monic divisors of poly, by exhaustive trial division (small degree)."""
    return [
        list(tail) + [1]
        for d in range(len(poly))
        for tail in product(range(p), repeat=d)
        if not poly_divrem(poly, list(tail) + [1], p)[1]
    ]


class TestGcd:
    def test_shared_root(self):
        # gcd(X^2 - 1, X - 1) over F_3, monic: X + 2
        assert poly_gcd([2, 0, 1], [2, 1], 3) == [2, 1]

    def test_gcd_with_zero(self):
        # 2 + X + 2X^2 made monic: times 2^{-1} = 2
        assert poly_gcd([2, 1, 2], [], 3) == [1, 2, 1]

    def test_both_zero(self):
        with pytest.raises(ValueError):
            poly_gcd([], [], 3)

    def test_divides_both(self):
        a = [1] + [0] * 26 + [1]  # X^27 + 1
        b = [1, 1, 1]
        g = poly_gcd(a, b, 2)
        assert not poly_divrem(a, g, 2)[1]
        assert not poly_divrem(b, g, 2)[1]

    @settings(max_examples=200)
    @given(st.integers(2, 3), polys(12), polys(12))
    def test_matches_sympy_gf_gcd(self, p, acs, bcs):
        a = trimmed(c % p for c in acs)
        b = trimmed(c % p for c in bcs)
        if not a and not b:
            return
        assert poly_gcd(a, b, p) == from_gf(gf_gcd(to_gf(a), to_gf(b), p, ZZ))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(2, 3), polys(6, min_size=1), polys(6, min_size=1))
    def test_against_divisor_enumeration(self, p, acs, bcs):
        a = trimmed(c % p for c in acs)
        b = trimmed(c % p for c in bcs)
        if not a or not b:
            return
        g = poly_gcd(a, b, p)
        assert not poly_divrem(a, g, p)[1]
        assert not poly_divrem(b, g, p)[1]
        # any common monic divisor divides g
        common = {tuple(d) for d in enumerate_divisors(a, p)} & {
            tuple(d) for d in enumerate_divisors(b, p)
        }
        for c in common:
            assert not poly_divrem(g, list(c), p)[1]
