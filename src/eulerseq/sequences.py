"""Sequence families built from Euler quotient level values.

Covers the F_p-valued level sequences, the residue-class partition
D_0, ..., D_{p-1} | P modulo p^{r+1}, the binary class sequences (plain and
balance-adjusted), the binary threshold sequence, the m-ary character
sequence, and the binary sequences from order-i Fermat quotients.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable

import sympy

from .quotients import PrimePowerModulus, quotient_table


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
        for d in sympy.divisors(self.period)[:-1]:  # d = period always matches
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
    """The classes D_0..D_{p-1} of units modulo p^{r+1}.

    D_l holds the units u with top quotient digit H_{r-1}(u) = l, in
    ascending order; each has exactly p^{r-1}(p-1) elements. The rest of
    [0, p^{r+1}) is P = range(0, p^{r+1}, p), the multiples of p.
    """

    modulus: PrimePowerModulus  # read by perfbench's tracer to count symbols
    classes: list[list[int]]


def _top_digits(m: PrimePowerModulus) -> list[int]:
    """H_{r-1}(u) for every u in [0, p^{r+1}), 0 where p divides u."""
    base = m.p ** (m.r - 1)
    return [q // base for q in quotient_table(m)]


def class_partition(m: PrimePowerModulus) -> ClassPartition:
    """D_0..D_{p-1} modulo p^{r+1}, each an ascending list, from one pass over u."""
    classes: list[list[int]] = [[] for _ in range(m.p)]
    for u, h in enumerate(_top_digits(m)):
        if u % m.p:
            classes[h].append(u)
    return ClassPartition(m, classes)


def validate_index_set(p: int, levels: Iterable[int]) -> frozenset[int]:
    """Normalize a level index set: non-empty, members in [0, p)."""
    members = frozenset(levels)
    if not members:
        raise ValueError("index set must be non-empty")
    if any(not 0 <= l < p for l in members):
        raise ValueError(f"index set members must lie in [0, {p})")
    return members


def level_sequence(m: PrimePowerModulus, j: int) -> PeriodicSequence:
    """The j-th level sequence (a_j(u)) over F_p, one period of length p^{j+2}.

    The j-th digit of Q_r coincides with the top digit of Q_{j+1}, so the
    symbols come from the (p, j+1) top-digit quotient.
    """
    if not 0 <= j < m.r:
        raise ValueError(f"level index j must lie in [0, {m.r}), got {j}")
    sub = PrimePowerModulus(m.p, j + 1)
    return PeriodicSequence(
        alphabet_size=m.p,
        period=sub.sequence_period,
        symbols=tuple(_top_digits(sub)),
    )


def _class_indicator(
    m: PrimePowerModulus, levels: Iterable[int], on_multiples: int
) -> PeriodicSequence:
    """1 on the classes D_l with l in I, on_multiples on P, 0 elsewhere."""
    members = validate_index_set(m.p, levels)
    hit = [1 if l in members else 0 for l in range(m.p)]
    symbols = [hit[h] for h in _top_digits(m)]
    symbols[:: m.p] = [on_multiples] * m.modulus
    return PeriodicSequence(2, m.sequence_period, tuple(symbols))


def binary_class_sequence(m: PrimePowerModulus, levels: Iterable[int]) -> PeriodicSequence:
    """Binary sequence with f(u) = 1 iff u mod p^{r+1} lies in some D_l, l in I."""
    return _class_indicator(m, levels, 0)


def balanced_class_sequence(m: PrimePowerModulus, levels: Iterable[int]) -> PeriodicSequence:
    """Balance-adjusted variant: additionally 1 on the multiples P."""
    return _class_indicator(m, levels, 1)


def threshold_sequence(m: PrimePowerModulus) -> PeriodicSequence:
    """Binary threshold sequence: 1 iff the quotient is at least p^r / 2.

    Integer comparison 2*Q_r(u) >= p^r; one stored period of length p^{r+1}
    (always a period, without any least-period claim).
    """
    pr = m.modulus
    symbols = tuple(1 if 2 * q >= pr else 0 for q in quotient_table(m))
    return PeriodicSequence(2, m.sequence_period, symbols)


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
    character = [0] * m.modulus  # ind_g(x) mod order on units, 0 on the rest
    x = 1
    for k in range(m.phi):
        character[x] = k % order
        x = x * g % m.modulus
    symbols = tuple(character[q] for q in quotient_table(m))
    return PeriodicSequence(order, m.sequence_period, symbols)


def order_i_binary_sequence(p: int, i: int, levels: Iterable[int]) -> PeriodicSequence:
    """Binary sequence from order-i Fermat quotients, period p^{i+1}.

    f(u) = 1 iff gcd(u, p) = 1 and the order-i quotient value, the i-th
    base-p digit of u^{p-1} mod p^{i+1}, lies in the level set. For i = 1
    this is the r = 1 binary class sequence. u^{p-1} is multiplicative in u,
    so walking x = g^k for a primitive root g gives x^{p-1} = (g^{p-1})^k.
    """
    members = validate_index_set(p, levels)
    if i < 1:
        raise ValueError(f"order i must be >= 1, got {i}")
    top = PrimePowerModulus(p, i).modulus  # p must be an odd prime
    period = p * top
    g = int(sympy.primitive_root(p * p))
    step = pow(g, p - 1, period)
    symbols = [0] * period
    x, t = 1, 1
    for _ in range(period - top):
        symbols[x] = 1 if t // top in members else 0
        x = x * g % period
        t = t * step % period
    return PeriodicSequence(2, period, tuple(symbols))


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
    meta = {}
    for field in parts[3:]:  # three distinct keys: p, r and kind, each once
        key, _, value = field.partition("=")
        if key not in ("p", "r", "kind") or key in meta or not value:
            raise SequenceParseError(1, f"bad header field: {field!r}")
        meta[key] = value
    try:
        alphabet, period = int(parts[1]), int(parts[2])
        meta["p"], meta["r"] = int(meta["p"]), int(meta["r"])
    except ValueError:
        raise SequenceParseError(1, f"bad header numbers: {header.strip()!r}") from None
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
