"""Exact integer number theory on the standard library.

isprime is the Miller-Rabin test with the first 13 primes as bases, which no
composite below _MR_BOUND passes (Sorenson and Webster, Strong pseudoprimes
to twelve prime bases, Math. Comp. 86, 2017). factorint divides by the
primes below 2^16 and then tests the cofactor: 1, a prime, or a prime's
square. Past those bounds (isprime at n >= _MR_BOUND with no factor among
the bases, factorint on any other cofactor above 2^32) both raise
ValueError, so every answer is exact and trial division never runs
unbounded. So n_order modulo p or p^2 and primitive_root modulo p^e, for a
prime p, factor nothing harder than p - 1.
"""

from __future__ import annotations

import functools
import itertools
import math

_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3_317_044_064_679_887_385_961_981
_TRIAL_BOUND = 1 << 16


def isprime(n: int) -> bool:
    """Whether n is prime; ValueError past _MR_BOUND unless n has a factor in _BASES."""
    if n < 2:
        return False
    for q in _BASES:
        if n % q == 0:
            return n == q
    if n >= _MR_BOUND:
        raise ValueError(f"primality is decided only below {_MR_BOUND}, got {n}")
    s = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^s, d odd
    d = (n - 1) >> s
    for a in _BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@functools.cache
def _small_primes() -> tuple[int, ...]:
    """The primes below _TRIAL_BOUND, by the sieve of Eratosthenes."""
    sieve = bytearray([1]) * _TRIAL_BOUND
    sieve[:2] = b"\0\0"
    for i in range(2, math.isqrt(_TRIAL_BOUND) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytes(len(range(i * i, _TRIAL_BOUND, i)))
    return tuple(itertools.compress(range(_TRIAL_BOUND), sieve))


def factorint(n: int) -> dict[int, int]:
    """The prime factorization of n >= 1 as {prime: exponent}, primes ascending.

    ValueError for a cofactor past 2^32 that is neither a prime nor a prime's square.
    """
    if n < 1:
        raise ValueError(f"factorint needs n >= 1, got {n}")
    factors = {}
    for q in _small_primes():
        if q * q > n:
            break
        while n % q == 0:
            factors[q] = factors.get(q, 0) + 1
            n //= q
    if n < 1 << 32:  # no prime factor below min(2^16, sqrt(n)): 1 or a prime
        if n > 1:
            factors[n] = 1
        return factors
    root = math.isqrt(n)
    if root * root == n and isprime(root):  # n_order's modulus p^2
        return {**factors, root: 2}
    if isprime(n):
        return {**factors, n: 1}
    raise ValueError(f"cannot factor {n}: past 2^32 and neither a prime nor a prime's square")


def n_order(a: int, n: int) -> int:
    """The multiplicative order of a modulo n; ValueError unless n >= 2 and gcd(a, n) = 1.

    For each prime power q^k of n the order of a modulo q comes from the
    prime factors of q - 1, and each lift to the next power of q multiplies
    it by 1 or q; the order modulo n is the lcm over the q^k.
    """
    if n < 2 or math.gcd(a, n) != 1:
        raise ValueError(f"{a} has no multiplicative order modulo {n}")
    order = 1
    for q, k in factorint(n).items():
        t = q - 1
        for f in factorint(t):
            while t % f == 0 and pow(a, t // f, q) == 1:
                t //= f
        qk = q**k
        x = pow(a, t, qk)
        while x != 1:
            x = pow(x, q, qk)
            t *= q
        order = math.lcm(order, t)
    return order


@functools.cache  # the sequence builders ask once per period
def primitive_root(p: int, e: int = 1) -> int:
    """The smallest primitive root modulo p^e, for an odd prime p and e >= 1.

    g generates the units modulo p^e for e >= 2 exactly when it does modulo
    p and g^{p-1} != 1 modulo p^2, so one root serves every e >= 2. At e = 1
    the root need not be one modulo p^2: modulo 40487 it is 5, modulo
    40487^2 it is 10.
    """
    cofactors = [(p - 1) // q for q in factorint(p - 1)]
    for g in itertools.count(2):
        if g % p and all(pow(g, c, p) != 1 for c in cofactors) and (
            e == 1 or pow(g, p - 1, p * p) != 1
        ):
            return g
