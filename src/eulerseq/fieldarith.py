"""Exact modular arithmetic over prime fields: multiplicative orders and F_p.

Polynomial arithmetic over F_p, where a gcd needs it, comes from
sympy.polys.galoistools (see complexity.lc_via_gcd).
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

