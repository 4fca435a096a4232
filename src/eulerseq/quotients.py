"""Euler quotients modulo p^r and their top-digit quotient H_{r-1}, plus
Fermat quotients of higher order.

For gcd(u, p) = 1 the Euler quotient is (u^phi(p^r) - 1)/p^r reduced into
[0, p^r); it is 0 by convention when p divides u. Its base-p digits are the
level values a_0(u), ..., a_{r-1}(u); the top digit a_{r-1}(u) = H_{r-1}(u)
generates a sequence of least period p^{r+1}.

euler_quotient computes one value from its definition, one modular power
with exponent phi(p^r) per residue. quotient_map computes a whole period
at once from two facts: Q_r(u) depends only on u mod p^{r+1}, and Q_r is
logarithmic, Q_r(uv) == Q_r(u) + Q_r(v) mod p^r. With g a primitive root
modulo p^{r+1}, Q_r(g^k) = k Q_r(g) mod p^r, so along the walk over the
powers of g every quotient-derived symbol repeats with period p^r in k.
quotient_map makes that p^r-cycle once, at C speed, passing each quotient
through the caller's map as it goes, and scatter_cycle writes it along the
walk: one multiplication and two list stores per pair of units u and
p^{r+1} - u, which share their quotient. quotient_table is quotient_map
with no map, Q_r itself.

The walk is the named oracle. The sequence kinds other than the m-ary one
are built by sequences._quotient_blocks, from p^{ceil((r+1)/2)} modular
powers and a shift law of Q_r; quotient_map serves the m-ary kind, whose
symbol ind_g(Q_r) the law does not make additive, and quotient_table the
theorem-hh and q-r-s checks, so that those check the law's builder against
an independent construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator

from .ntheory import isprime, primitive_root


@dataclass(frozen=True)
class PrimePowerModulus:
    """The pair (p, r): an odd prime p raised to a positive power r."""

    p: int
    r: int

    def __post_init__(self):
        if self.p == 2 or not isprime(self.p):
            raise ValueError(f"p must be an odd prime, got {self.p}")
        if self.r < 1:
            raise ValueError(f"r must be >= 1, got {self.r}")

    # cached: euler_quotient, the per-residue definition, reads both per call
    @cached_property
    def modulus(self) -> int:
        return self.p**self.r

    @cached_property
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


def scatter_cycle(out: list, g: int, cycle: list) -> list:
    """Write cycle[k mod len(cycle)] at x = g^k mod n, n = len(out), at every unit x.

    n = p * len(cycle) is a power of an odd prime p and g a primitive root
    modulo it, so the walk over k in [0, phi(n)) meets each unit once,
    lapping the cycle p - 1 times; the multiples of p keep what out held.
    g^{phi(n)/2} = -1 and phi(n)/2 is a whole number of laps, so the walk's
    second half writes the first half's entries at n - x: each step of the
    first half writes both.
    """
    n = len(out)
    x = 1
    for _ in range((n // len(cycle) - 1) // 2):  # (p - 1)/2 laps
        for s in cycle:
            out[x] = out[n - x] = s
            x = x * g % n
    return out


def quotient_map(
    m: PrimePowerModulus,
    f: Callable[[Iterator[int]], Iterable[int]] | None = None,
    on_multiples: int = 0,
) -> list[int]:
    """f's image of Q_r(u) for every u in [0, p^{r+1}); on_multiples where p | u.

    f maps the stream of quotients along the p^r-cycle to the stream of
    symbols (None keeps the quotients). The list is allocated first, so a
    period past what memory holds fails at once, before f builds any table.
    Q_r(g^k) = k Q_r(g) mod p^r for g = ntheory.primitive_root(p, 2), a
    primitive root modulo every power of the odd prime p. The cycle's
    quotients are made lazily and pass through f as they go, so only f's
    values for one cycle are held; scatter_cycle writes them along the walk
    x = g^k mod p^{r+1}. N/2 Python steps and a list of N pointers: the
    independent path that mary_sequence builds on and that quotient_table
    gives the theorem-hh and q-r-s checks.
    """
    out = [on_multiples] * m.sequence_period
    p, pr = m.p, m.modulus
    g = primitive_root(p, 2)
    step = euler_quotient(m, g)
    quotients = map(pr.__rmod__, range(0, step * pr, step))
    cycle = list(quotients if f is None else f(quotients))
    return scatter_cycle(out, g, cycle)


def quotient_table(m: PrimePowerModulus) -> list[int]:
    """Q_r(u) for every u in [0, p^{r+1}), with 0 where p divides u."""
    return quotient_map(m)


def new_quotient_h(m: PrimePowerModulus, u: int) -> int:
    """Top digit a_{r-1}(u) of the Euler quotient, in [0, p).

    For r = 1 this is the Fermat quotient. Equivalent to the difference
    form (Q_r(u) - Q_{r-1}(u)) / p^{r-1} mod p, since canonical
    representatives satisfy Q_r mod p^{r-1} = Q_{r-1}.
    """
    return euler_quotient(m, u) // m.p ** (m.r - 1)


def fermat_quotient_order(p: int, i: int, u: int) -> int:
    """Order-i Fermat quotient: the i-th base-p digit of u^{p-1}; 0 if p | u."""
    if i < 1:
        raise ValueError(f"order i must be >= 1, got {i}")
    pi = PrimePowerModulus(p, i).modulus  # p must be an odd prime
    if u < 0:
        raise ValueError(f"u must be nonnegative, got {u}")
    if u % p == 0:
        return 0
    t = pow(u, p - 1, pi * p)
    return t // pi % p

