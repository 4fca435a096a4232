"""Sequence families built from Euler quotient level values.

Covers the F_p-valued level sequences, the residue-class partition
D_0, ..., D_{p-1} | P modulo p^{r+1}, the binary class sequences (plain and
balance-adjusted), the binary threshold sequence, the m-ary character
sequence, and the binary sequences from order-i Fermat quotients.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import IO, Iterable

from .ntheory import factorint, primitive_root
from .quotients import PrimePowerModulus, quotient_map, scatter_cycle


# _ALPHABET[:q] is the bytes 0..q-1, the symbols of an alphabet of size q
_ALPHABET = bytes(range(256))


@dataclass(frozen=True)
class PeriodicSequence:
    """One canonical period of a periodic sequence over {0..alphabet_size-1}.

    The constructor takes any sequence of ints and stores it as bytes when
    alphabet_size <= 256, else as a tuple; indexing, slicing, count and
    equality behave alike on both, so readers need not know which one it
    is. The range check is bytes() itself, then one C-speed translate (min
    and max on a tuple); a negative symbol or one past the alphabet raises
    ValueError.
    """

    alphabet_size: int
    period: int
    symbols: bytes | tuple[int, ...]

    def __post_init__(self):
        q = self.alphabet_size
        if q < 2:
            raise ValueError(f"alphabet_size must be >= 2, got {q}")
        if self.period < 1 or len(self.symbols) != self.period:
            raise ValueError(
                f"need exactly period={self.period} symbols, got {len(self.symbols)}"
            )
        if q <= 256:
            try:
                symbols = bytes(self.symbols)
            except ValueError:  # a symbol outside [0, 256)
                raise ValueError("symbol out of alphabet range") from None
            # deleting the alphabet leaves what lies outside it
            outside = symbols.translate(None, _ALPHABET[:q])
        else:
            symbols = tuple(self.symbols)
            outside = min(symbols) < 0 or max(symbols) >= q
        if outside:
            raise ValueError("symbol out of alphabet range")
        object.__setattr__(self, "symbols", symbols)

    def __getitem__(self, u: int) -> int:
        return self.symbols[u % self.period]

    @property
    def weight(self) -> int:
        """Number of nonzero symbols per period."""
        return self.period - self.symbols.count(0)

    def least_period(self) -> int:
        """Measured least period, a divisor of the stored period.

        The periods dividing N are the multiples of the least period that
        divide N, so for each prime q of N the exponent of q drops while
        d / q is still a period, down to its exponent in the least period.
        """
        s, d = self.symbols, self.period
        for q in factorint(self.period):
            while d % q == 0 and s[d // q :] == s[: -(d // q)]:  # s[i] == s[i + d/q]
                d //= q
        return d

    def flip(self, positions: Iterable[int]) -> "PeriodicSequence":
        """Binary only: toggle the given positions of the stored period."""
        if self.alphabet_size != 2:
            raise ValueError("flip is defined for binary sequences only")
        out = bytearray(self.symbols)
        for pos in positions:
            out[pos % self.period] ^= 1
        return PeriodicSequence(2, self.period, out)


@dataclass(frozen=True)
class ClassPartition:
    """The classes D_0..D_{p-1} of units modulo p^{r+1}.

    D_l holds the units u with top quotient digit H_{r-1}(u) = l, in
    ascending order; each has exactly p^{r-1}(p-1) elements. The rest of
    [0, p^{r+1}) is P = range(0, p^{r+1}, p), the multiples of p.
    """

    modulus: PrimePowerModulus  # read by perfbench's tracer to count symbols
    classes: list[list[int]]


def top_digits(m: PrimePowerModulus, on_multiples: int = 0) -> list[int]:
    """H_{r-1}(u) for every u in [0, p^{r+1}), on_multiples where p divides u."""
    base = m.p ** (m.r - 1)
    return quotient_map(m, lambda qs: map(base.__rfloordiv__, qs), on_multiples)


def class_partition(m: PrimePowerModulus) -> ClassPartition:
    """D_0..D_{p-1} modulo p^{r+1}, each an ascending list, from one pass over u."""
    digits = top_digits(m, on_multiples=m.p)  # first: it sizes the period's list
    classes: list[list[int]] = [[] for _ in range(m.p + 1)]  # the last one is P
    for u, h in enumerate(digits):
        classes[h].append(u)
    return ClassPartition(m, classes[:-1])


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
        symbols=top_digits(sub),
    )


def _class_indicator(
    m: PrimePowerModulus, levels: Iterable[int], on_multiples: int
) -> PeriodicSequence:
    """1 on the classes D_l with l in I, on_multiples on P, 0 elsewhere."""
    members = validate_index_set(m.p, levels)
    base = m.p ** (m.r - 1)

    def indicator(qs):  # called once the period's list is allocated
        hit = [1 if l in members else 0 for l in range(m.p)]
        return map(hit.__getitem__, map(base.__rfloordiv__, qs))

    symbols = quotient_map(m, indicator, on_multiples)
    return PeriodicSequence(2, m.sequence_period, symbols)


def binary_class_sequence(m: PrimePowerModulus, levels: Iterable[int]) -> PeriodicSequence:
    """Binary sequence with f(u) = 1 iff u mod p^{r+1} lies in some D_l, l in I."""
    return _class_indicator(m, levels, 0)


def balanced_class_sequence(m: PrimePowerModulus, levels: Iterable[int]) -> PeriodicSequence:
    """Balance-adjusted variant: additionally 1 on the multiples P."""
    return _class_indicator(m, levels, 1)


def threshold_sequence(m: PrimePowerModulus) -> PeriodicSequence:
    """Binary threshold sequence: 1 iff the quotient is at least p^r / 2.

    Integer comparison 2*Q_r(u) >= p^r, made as Q_r(u) // half with
    half = (p^r + 1)/2: p^r is odd, so the quotient is 1 exactly when
    Q_r(u) >= half, and Q_r(u) < 2 half keeps it below 2. One stored period
    of length p^{r+1} (always a period, without any least-period claim).
    """
    half = (m.modulus + 1) // 2
    symbols = quotient_map(m, lambda qs: map(half.__rfloordiv__, qs))
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

    def characters(qs):  # called once the period's list is allocated
        g = primitive_root(m.p, m.r)
        character = [0] * m.modulus  # ind_g(x) mod order on units, 0 on the rest
        x = 1
        for k in range(m.phi):
            character[x] = k % order
            x = x * g % m.modulus
        return map(character.__getitem__, qs)

    symbols = quotient_map(m, characters)
    return PeriodicSequence(order, m.sequence_period, symbols)


def order_i_binary_sequence(p: int, i: int, levels: Iterable[int]) -> PeriodicSequence:
    """Binary sequence from order-i Fermat quotients, period p^{i+1}.

    f(u) = 1 iff gcd(u, p) = 1 and the order-i quotient value, the i-th
    base-p digit of u^{p-1} mod p^{i+1}, lies in the level set. For i = 1
    this is the r = 1 binary class sequence. u^{p-1} is multiplicative in u,
    so walking x = g^k for a primitive root g gives x^{p-1} = (g^{p-1})^k,
    and g^{p-1} has order p^i modulo p^{i+1}: the symbols along the walk
    repeat with period p^i in k, and scatter_cycle writes that cycle.
    """
    members = validate_index_set(p, levels)
    if i < 1:
        raise ValueError(f"order i must be >= 1, got {i}")
    top = PrimePowerModulus(p, i).modulus  # p must be an odd prime
    period = p * top
    symbols = [0] * period  # sized first, so a period past memory fails at once
    g = primitive_root(p, 2)
    step = pow(g, p - 1, period)
    cycle = [0] * top
    t = 1
    for k in range(top):
        cycle[k] = 1 if t // top in members else 0
        t = t * step % period
    return PeriodicSequence(2, period, scatter_cycle(symbols, g, cycle))


# --- sequence file format -------------------------------------------------
#
# Header line:  seq <alphabet_size> <period> p=<p> r=<r> kind=<name>
# followed by the period's symbols as space-separated decimal integers,
# wrapped over one or more lines of _SYMBOLS_PER_LINE symbols each.

_SYMBOLS_PER_LINE = 40
# translate tables between the symbols 0..9 and their ASCII digits, both ways
_DIGITS = b"0123456789"
_DIGIT_OF = bytes.maketrans(_ALPHABET[:10], _DIGITS)
_VALUE_OF = bytes.maketrans(_DIGITS, _ALPHABET[:10])


def write_sequence(fh: IO[str], seq: PeriodicSequence, p: int, r: int, kind: str) -> None:
    """Write a sequence in the line-oriented text format, in one write.

    An alphabet of at most 10 has one-digit names, so the text is built in
    one bytearray: digits at the even offsets, a space or a newline at the
    odd ones, the newline after every _SYMBOLS_PER_LINE-th symbol and after
    the last. Larger alphabets join each line's decimal names. Both give
    the same bytes for the same sequence.
    """
    symbols, n = seq.symbols, seq.period
    header = f"seq {seq.alphabet_size} {n} p={p} r={r} kind={kind}\n"
    if seq.alphabet_size <= 10:
        text = bytearray(b" ") * (2 * n)
        text[0::2] = symbols.translate(_DIGIT_OF)
        step = 2 * _SYMBOLS_PER_LINE
        text[step - 1 :: step] = b"\n" * (n // _SYMBOLS_PER_LINE)
        text[-1] = ord("\n")
        fh.write(header + text.decode("ascii"))
        return
    lines = [
        " ".join(map(str, symbols[start : start + _SYMBOLS_PER_LINE]))
        for start in range(0, n, _SYMBOLS_PER_LINE)
    ]
    fh.write(header + "\n".join([*lines, ""]))


class SequenceParseError(ValueError):
    """Malformed sequence file; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def read_sequence(fh: IO[str]) -> tuple[PeriodicSequence, dict]:
    """Parse the text format; returns the sequence and its header metadata.

    The body is read once. A body of single digits below the alphabet,
    each followed by one space or newline, with the header's count, as
    write_sequence writes for alphabets up to 10, takes _parse_digits, a
    few C-speed passes over its bytes. Any other body, such as one with
    CRLF line ends, extra spaces or names of more than one digit, goes
    through the line loop, _parse_lines, which takes each token with int()
    and reports each error with its line number.
    """
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
    body = fh.read()
    seq = _parse_digits(body, alphabet, period)
    if seq is None:
        seq = _parse_lines(io.StringIO(body), alphabet, period)
    return seq, meta


def _parse_digits(body: str, alphabet: int, period: int) -> PeriodicSequence | None:
    """The body's sequence when it is plain one-digit symbols, else None.

    There must be period digits, each below the alphabet, at the even
    offsets, each followed by one space or newline, the last by a newline,
    so the body is exactly 2 * period characters. Such a body parses the
    same in _parse_lines.
    """
    # an alphabet below 2 is left to _parse_lines, which reports its line
    if alphabet < 2 or len(body) != 2 * period or not body.endswith("\n"):
        return None
    if not body.isascii():  # so that encode cannot fail
        return None
    text = body.encode("ascii")
    digits = text[0::2]
    if digits.translate(None, _DIGITS[:alphabet]) or text[1::2].translate(None, b" \n"):
        return None
    return PeriodicSequence(alphabet, period, digits.translate(_VALUE_OF))


def _parse_lines(lines: Iterable[str], alphabet: int, period: int) -> PeriodicSequence:
    """The body's sequence from its lines of whitespace-separated int tokens.

    Each token is read by one int() call. Line numbers count the header as
    line 1; a bad token, a wrong count or a symbol outside the alphabet
    raises SequenceParseError.
    """
    symbols: list[int] = []
    lineno = 1
    for line in lines:
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
        return PeriodicSequence(alphabet, period, symbols)
    except ValueError as exc:
        raise SequenceParseError(lineno, str(exc)) from None
