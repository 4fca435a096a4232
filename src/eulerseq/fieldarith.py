"""The prime field F_p, its primality checked by ntheory.isprime.

No polynomial arithmetic lives here: complexity.lc_via_gcd runs its F_p
Euclid on packed lanes for every prime p, p = 2 included, and the F_2
engines in complexity work on bitmasks.
"""

from __future__ import annotations

from dataclasses import dataclass

from .ntheory import isprime


@dataclass(frozen=True)
class PrimeField:
    """The field F_p for a prime p."""

    p: int

    def __post_init__(self):
        if not isprime(self.p):
            raise ValueError(f"{self.p} is not prime")
