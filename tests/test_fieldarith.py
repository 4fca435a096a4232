import pytest

from eulerseq.fieldarith import PrimeField, multiplicative_order


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

