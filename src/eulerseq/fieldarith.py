"""The prime field F_p.

Multiplicative orders and primitive roots come from sympy (n_order,
is_primitive_root), and polynomial arithmetic over F_p, where a gcd needs
it, from sympy.polys.galoistools (see complexity.lc_via_gcd).
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a prime p."""

    p: int

    def __post_init__(self):
        if not sympy.isprime(self.p):
            raise ValueError(f"{self.p} is not prime")
