"""Sequence families built from Euler quotient level values.

Covers the F_p-valued level sequences, the residue-class partition
D_0, ..., D_{p-1} | P modulo p^{r+1}, the binary class sequences (plain and
balance-adjusted), the binary threshold sequence, the m-ary character
sequence, and the binary sequences from order-i Fermat quotients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import IO, Iterable

import sympy

from .quotients import PrimePowerModulus, euler_quotient, fermat_quotient_order, new_quotient_h


@dataclass(frozen=True)
class PeriodicSequence:
    """One canonical period of a periodic sequence over {0..alphabet_size-1}."""

    alphabet_size: int
    period: int
    symbols: tuple[int, ...]

    def __post_init__(self):
        if self.alphabet_size < 2:
            raise ValueError(f"alphabet_size must be >= 2, got {self.alphabet_size}")
        if self.period < 1 or len(self.symbols) != self.period:
            raise ValueError(
                f"need exactly period={self.period} symbols, got {len(self.symbols)}"
            )
        if any(not 0 <= s < self.alphabet_size for s in self.symbols):
            raise ValueError("symbol out of alphabet range")

    def __getitem__(self, u: int) -> int:
        return self.symbols[u % self.period]

    @property
    def weight(self) -> int:
        """Number of nonzero symbols per period."""
        return sum(1 for s in self.symbols if s)

    def least_period(self) -> int:
        """Measured least period (a divisor of the stored period)."""
        for d in sorted(sympy.divisors(self.period)):
            if all(self.symbols[i] == self.symbols[i % d] for i in range(self.period)):
                return d
        return self.period

    def flip(self, positions: Iterable[int]) -> "PeriodicSequence":
        """Binary only: toggle the given positions of the stored period."""
        if self.alphabet_size != 2:
            raise ValueError("flip is defined for binary sequences only")
        out = list(self.symbols)
        for pos in positions:
            out[pos % self.period] ^= 1
        return PeriodicSequence(2, self.period, tuple(out))


@dataclass(frozen=True)
class ClassPartition:
    """Partition of [0, p^{r+1}) into classes D_0..D_{p-1} and multiples P.

    D_l holds the units u with top quotient digit H_{r-1}(u) = l; P holds
    the p^r multiples of p. Each D_l has exactly p^r(p-1) elements.
    """

    modulus: PrimePowerModulus
    classes: tuple[frozenset[int], ...]
    multiples: frozenset[int]


def class_partition(m: PrimePowerModulus) -> ClassPartition:
    """Compute the D_l / P partition of residues modulo p^{r+1}."""
    classes: list[set[int]] = [set() for _ in range(m.p)]
    multiples = set()
    for u in range(m.sequence_period):
        if u % m.p == 0:
            multiples.add(u)
        else:
            classes[new_quotient_h(m, u)].add(u)
    return ClassPartition(
        modulus=m,
        classes=tuple(frozenset(c) for c in classes),
        multiples=frozenset(multiples),
    )


def validate_index_set(p: int, levels: Iterable[int], enforce_half: bool = False) -> frozenset[int]:
    """Normalize a level index set; optionally enforce |I| <= (p-1)/2."""
    members = frozenset(levels)
    if not members:
        raise ValueError("index set must be non-empty")
    if any(not 0 <= l < p for l in members):
        raise ValueError(f"index set members must lie in [0, {p})")
    if enforce_half and len(members) > (p - 1) // 2:
        raise ValueError(
            f"index set size {len(members)} exceeds (p-1)/2 = {(p - 1) // 2}"
        )
    return members


def level_sequence(m: PrimePowerModulus, j: int) -> PeriodicSequence:
    """The j-th level sequence (a_j(u)) over F_p, one period of length p^{j+2}.

    The j-th digit of Q_r coincides with the top digit of Q_{j+1}, so the
    symbols come from the (p, j+1) top-digit quotient.
    """
    if not 0 <= j < m.r:
        raise ValueError(f"level index j must lie in [0, {m.r}), got {j}")
    sub = PrimePowerModulus(m.p, j + 1)
    period = sub.sequence_period
    return PeriodicSequence(
        alphabet_size=m.p,
        period=period,
        symbols=tuple(new_quotient_h(sub, u) for u in range(period)),
    )


def binary_class_sequence(m: PrimePowerModulus, levels: Iterable[int]) -> PeriodicSequence:
    """Binary sequence with f(u) = 1 iff u mod p^{r+1} lies in some D_l, l in I."""
    members = validate_index_set(m.p, levels)
    period = m.sequence_period
    symbols = tuple(
        1 if u % m.p != 0 and new_quotient_h(m, u) in members else 0
        for u in range(period)
    )
    return PeriodicSequence(2, period, symbols)


def balanced_class_sequence(m: PrimePowerModulus, levels: Iterable[int]) -> PeriodicSequence:
    """Balance-adjusted variant: additionally 1 on the multiples P."""
    members = validate_index_set(m.p, levels)
    period = m.sequence_period
    symbols = tuple(
        1 if u % m.p == 0 or new_quotient_h(m, u) in members else 0
        for u in range(period)
    )
    return PeriodicSequence(2, period, symbols)


def threshold_sequence(m: PrimePowerModulus) -> PeriodicSequence:
    """Binary threshold sequence: 1 iff the quotient is at least p^r / 2.

    Integer comparison 2*Q_r(u) >= p^r; one stored period of length p^{r+1}
    (always a period, without any least-period claim).
    """
    period = m.sequence_period
    pr = m.modulus
    symbols = tuple(
        1 if 2 * euler_quotient(m, u) >= pr else 0 for u in range(period)
    )
    return PeriodicSequence(2, period, symbols)


def _bsgs_dlog(g: int, h: int, modulus: int, order: int) -> int:
    """Baby-step giant-step discrete log of h base g in (Z/modulus)*."""
    step = math.isqrt(order) + 1
    baby = {}
    e = 1
    for j in range(step):
        baby.setdefault(e, j)
        e = e * g % modulus
    giant = pow(g, -step, modulus)
    gamma = h % modulus
    for i in range(step + 1):
        if gamma in baby:
            return i * step + baby[gamma]
        gamma = gamma * giant % modulus
    raise ValueError(f"{h} is not in the subgroup generated by {g} mod {modulus}")


def mary_sequence(m: PrimePowerModulus, order: int) -> PeriodicSequence:
    """m-ary character sequence of the Euler quotient values.

    Uses the order-`order` character induced by the smallest positive
    primitive root g modulo p^r: the symbol is ind_g(Q_r(u)) mod order when
    Q_r(u) is a unit, and 0 otherwise.
    """
    if order < 2:
        raise ValueError(f"character order must be > 1, got {order}")
    if m.phi % order != 0:
        raise ValueError(f"order {order} does not divide phi(p^r) = {m.phi}")
    g = int(sympy.primitive_root(m.modulus))
    period = m.sequence_period
    symbols = []
    for u in range(period):
        q = euler_quotient(m, u)
        if q % m.p == 0:
            symbols.append(0)
        else:
            symbols.append(_bsgs_dlog(g, q, m.modulus, m.phi) % order)
    return PeriodicSequence(order, period, tuple(symbols))


def order_i_binary_sequence(p: int, i: int, levels: Iterable[int]) -> PeriodicSequence:
    """Binary sequence from order-i Fermat quotients, period p^{i+1}.

    f(u) = 1 iff gcd(u, p) = 1 and the order-i quotient value lies in the
    level set. For i = 1 this is the r = 1 binary class sequence.
    """
    members = validate_index_set(p, levels)
    period = p ** (i + 1)
    symbols = tuple(
        1 if u % p != 0 and fermat_quotient_order(p, i, u) in members else 0
        for u in range(period)
    )
    return PeriodicSequence(2, period, symbols)


# --- sequence file format -------------------------------------------------
#
# Header line:  seq <alphabet_size> <period> p=<p> r=<r> kind=<name>
# followed by the period's symbols as space-separated decimal integers,
# wrapped over one or more lines.

_SYMBOLS_PER_LINE = 40


def write_sequence(fh: IO[str], seq: PeriodicSequence, p: int, r: int, kind: str) -> None:
    """Write a sequence in the line-oriented text format."""
    fh.write(f"seq {seq.alphabet_size} {seq.period} p={p} r={r} kind={kind}\n")
    for start in range(0, seq.period, _SYMBOLS_PER_LINE):
        chunk = seq.symbols[start : start + _SYMBOLS_PER_LINE]
        fh.write(" ".join(str(s) for s in chunk) + "\n")


class SequenceParseError(ValueError):
    """Malformed sequence file; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def read_sequence(fh: IO[str]) -> tuple[PeriodicSequence, dict]:
    """Parse the text format; returns the sequence and its header metadata."""
    header = fh.readline()
    if not header:
        raise SequenceParseError(1, "empty file")
    parts = header.split()
    if len(parts) != 6 or parts[0] != "seq":
        raise SequenceParseError(1, f"bad header: {header.strip()!r}")
    try:
        alphabet = int(parts[1])
        period = int(parts[2])
    except ValueError:
        raise SequenceParseError(1, f"bad header numbers: {header.strip()!r}") from None
    meta = {}
    for idx, field in enumerate(parts[3:6]):
        key, _, value = field.partition("=")
        if key not in ("p", "r", "kind") or not value:
            raise SequenceParseError(1, f"bad header field: {field!r}")
        meta[key] = int(value) if key in ("p", "r") else value
    symbols: list[int] = []
    lineno = 1
    for line in fh:
        lineno += 1
        for tok in line.split():
            try:
                symbols.append(int(tok))
            except ValueError:
                raise SequenceParseError(lineno, f"bad symbol {tok!r}") from None
    if len(symbols) != period:
        raise SequenceParseError(
            lineno, f"expected {period} symbols, found {len(symbols)}"
        )
    try:
        seq = PeriodicSequence(alphabet, period, tuple(symbols))
    except ValueError as exc:
        raise SequenceParseError(lineno, str(exc)) from None
    return seq, meta
