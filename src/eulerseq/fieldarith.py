"""Exact modular arithmetic and dense polynomials over prime fields.

A polynomial over F_p is a trimmed coefficient list: index i holds the
coefficient of X^i, every entry lies in [0, p), and the last entry is
nonzero (the zero polynomial is the empty list). All arithmetic is exact
over arbitrary-precision integers.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy


def multiplicative_order(g: int, modulus: int) -> int:
    """Least t > 0 with g**t == 1 mod modulus; g must be a unit."""
    if modulus < 2:
        raise ValueError(f"modulus must be >= 2, got {modulus}")
    if sympy.gcd(g, modulus) != 1:
        raise ValueError(f"{g} is not coprime to {modulus}")
    return int(sympy.n_order(g, modulus))


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a prime p."""

    p: int

    def __post_init__(self):
        if not sympy.isprime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def inv(self, a: int) -> int:
        return pow(a, -1, self.p)


def _trim(coeffs: list[int]) -> list[int]:
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return coeffs


def poly_divrem(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder over F_p with a = q*b + r, deg r < deg b."""
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    db = len(b) - 1
    lead_inv = pow(b[-1], -1, p)
    rem = list(a)
    quot = [0] * max(len(a) - db, 0)
    for i in range(len(quot) - 1, -1, -1):
        c = rem[i + db] * lead_inv % p
        if c == 0:
            continue
        quot[i] = c
        for j, bc in enumerate(b):
            rem[i + j] = (rem[i + j] - c * bc) % p
    return _trim(quot), _trim(rem[:db])


def poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic greatest common divisor over F_p by the Euclidean algorithm."""
    if not a and not b:
        raise ValueError("gcd of two zero polynomials is undefined")
    while b:
        a, b = b, poly_divrem(a, b, p)[1]
    lead_inv = pow(a[-1], -1, p)
    return [c * lead_inv % p for c in a]
