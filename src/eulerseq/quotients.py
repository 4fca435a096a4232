"""Euler quotients modulo p^r and their top-digit quotient H_{r-1}, plus
Fermat quotients of higher order.

For gcd(u, p) = 1 the Euler quotient is (u^phi(p^r) - 1)/p^r reduced into
[0, p^r); it is 0 by convention when p divides u. Its base-p digits are the
level values a_0(u), ..., a_{r-1}(u); the top digit a_{r-1}(u) = H_{r-1}(u)
generates a sequence of least period p^{r+1}.
"""

from __future__ import annotations

from dataclasses import dataclass

import sympy


@dataclass(frozen=True)
class PrimePowerModulus:
    """The pair (p, r): an odd prime p raised to a positive power r."""

    p: int
    r: int

    def __post_init__(self):
        if self.p == 2 or not sympy.isprime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")

    @property
    def modulus(self) -> int:
        return self.p**self.r

    @property
    def phi(self) -> int:
        """Euler totient of p^r."""
        return self.p ** (self.r - 1) * (self.p - 1)

    @property
    def sequence_period(self) -> int:
        """Period p^{r+1} of the top-digit sequence."""
        return self.p ** (self.r + 1)


def euler_quotient(m: PrimePowerModulus, u: int) -> int:
    """Euler quotient of u modulo p^r, in [0, p^r); 0 when p | u.

    Computed from u^phi(p^r) mod p^{2r}: that residue determines the
    quotient modulo p^r exactly, keeping intermediates bounded.
    """
    if u < 0:
        raise ValueError(f"u must be nonnegative, got {u}")
    if u % m.p == 0:
        return 0
    pr = m.modulus
    t = pow(u, m.phi, pr * pr)
    return (t - 1) // pr % pr


def new_quotient_h(m: PrimePowerModulus, u: int) -> int:
    """Top digit a_{r-1}(u) of the Euler quotient, in [0, p).

    For r = 1 this is the Fermat quotient. Equivalent to the difference
    form (Q_r(u) - Q_{r-1}(u)) / p^{r-1} mod p, since canonical
    representatives satisfy Q_r mod p^{r-1} = Q_{r-1}.
    """
    return euler_quotient(m, u) // m.p ** (m.r - 1)


def fermat_quotient_order(p: int, i: int, u: int) -> int:
    """Order-i Fermat quotient: the i-th base-p digit of u^{p-1}; 0 if p | u."""
    if not sympy.isprime(p) or p == 2:
        raise ValueError(f"p must be an odd prime, got {p}")
    if i < 1:
        raise ValueError(f"order i must be >= 1, got {i}")
    if u < 0:
        raise ValueError(f"u must be nonnegative, got {u}")
    if u % p == 0:
        return 0
    t = pow(u, p - 1, p ** (i + 1))
    return t // p**i % p


def verify_congruence_qrs(m: PrimePowerModulus, s: int, u: int) -> bool:
    """Whether Q_r(u) == Q_s(u) mod p^s for the lower exponent 0 < s < r."""
    if not 0 < s < m.r:
        raise ValueError(f"need 0 < s < r, got s={s}, r={m.r}")
    lower = PrimePowerModulus(m.p, s)
    return euler_quotient(m, u) % lower.modulus == euler_quotient(lower, u)
