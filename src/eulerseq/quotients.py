"""Euler quotients modulo p^r and their top-digit quotient H_{r-1}, plus
Fermat quotients of higher order.

For gcd(u, p) = 1 the Euler quotient is (u^phi(p^r) - 1)/p^r reduced into
[0, p^r); it is 0 by convention when p divides u. Its base-p digits are the
level values a_0(u), ..., a_{r-1}(u); the top digit a_{r-1}(u) = H_{r-1}(u)
generates a sequence of least period p^{r+1}.

euler_quotient computes one value from its definition, one modular power
with exponent phi(p^r) per residue. quotient_table computes a whole period
at once from two facts: Q_r(u) depends only on u mod p^{r+1}, and Q_r is
logarithmic, Q_r(uv) == Q_r(u) + Q_r(v) mod p^r. With g a primitive root
modulo p^{r+1}, Q_r(g^k) = k Q_r(g) mod p^r, so walking the powers of g
fills the table with one multiplication and one addition per unit, after a
single modular power for Q_r(g). The table holds p^{r+1} machine integers
(8 bytes each) and is rebuilt on every call.
"""

from __future__ import annotations

from array import array
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


def quotient_table(m: PrimePowerModulus) -> array:
    """Q_r(u) for every u in [0, p^{r+1}), with 0 where p divides u.

    g = sympy.primitive_root(p * p) is a primitive root modulo every power
    of the odd prime p, so x = g^k mod p^{r+1} runs over all units as k
    runs over [0, phi(p^{r+1})), and Q_r(x) = k Q_r(g) mod p^r.
    """
    p, pr = m.p, m.modulus
    n = m.sequence_period
    g = int(sympy.primitive_root(p * p))
    step = euler_quotient(m, g)
    table = array("Q", [0]) * n
    x, q = 1, 0
    for _ in range(n - n // p):
        table[x] = q
        x = x * g % n
        q += step
        if q >= pr:
            q -= pr
    return table


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

