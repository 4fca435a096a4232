"""Sequence families built from Euler quotient level values.

Covers the F_p-valued level sequences, the residue-class partition
D_0, ..., D_{p-1} | P modulo p^{r+1}, the binary class sequences (plain and
balance-adjusted), the binary threshold sequence, the m-ary character
sequence, and the binary sequences from order-i Fermat quotients.

Every kind but the m-ary one builds its period with _quotient_blocks: one
modular power per unit below p^{ceil((r+1)/2)}, by the definition, and one
rotated slice of a symbol table per such unit, written along its residue
class (the law and its proof are in that docstring). The m-ary symbol
ind_g(Q_r) is not additive along those slices, so mary_sequence keeps
quotients.quotient_map's walk over the powers of a primitive root.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import repeat
from typing import IO, Callable, Iterable, Sequence

from .ntheory import factorint, primitive_root
from .quotients import PrimePowerModulus, quotient_map


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


def _period_buffer(period: int, fill: int, wide: bool) -> bytearray | list[int]:
    """One period of fill: a list when wide (symbols past 255), else a bytearray.

    _quotient_blocks calls this before it makes any table, so a period past
    what memory holds fails at once (MemoryError, or OverflowError past the
    index range), before a table of p entries is built.
    """
    return [fill] * period if wide else bytearray([fill]) * period


def _quotient_blocks(
    p: int,
    m: int,
    fermat: bool,
    fill: int,
    wide: bool,
    tables: Callable[[int], tuple[list[Sequence[int]], int]],
) -> bytearray | list[int]:
    """One period, p^{m+1}, of a symbol of the quotient q(u); fill where p | u.

    q is the Euler quotient Q_m(u) = (u^phi(p^m) - 1)/p^m mod p^m, or with
    fermat the order-m Fermat quotient, (u^{p-1} mod p^{m+1} - 1)/p, whose
    digit m-1 is digit m of u^{p-1}. Both have m base-p digits and depend on
    u mod p^{m+1} = N only.

    The law. Take s = ceil((m+1)/2), so 2s >= m + 1, B = p^s and
    P = p^{m+1-s}, so that N = B P and P divides B. Let v be a unit below B
    and u = v + j B. Then
        q(u) = q(v) + p^{s-1} ((p-1) j v^a mod P)  (mod p^m),
    with a = -1 for Q_m and a = p - 2 for the Fermat quotient.
    Proof for Q_m, with phi = phi(p^m): u = v (1 + p^s t) mod p^{2m} with
    t = j v^{-1}. In (1 + p^s t)^phi the term of degree k >= 2 has valuation
    at least v_p(C(phi, k)) + k s >= m - 1 - v_p(k) + k s >= 2m, since
    v_p(C(phi, k)) >= v_p(phi) - v_p(k), 2s >= m + 1, and v_p(k) <= k - 2
    for k >= 3. So (1 + p^s t)^phi = 1 + phi p^s t mod p^{2m}, and with
    v^phi = 1 + p^m q(v),
        u^phi = 1 + p^m q(v) + (p-1) p^{m+s-1} t  (mod p^{2m}),
    the cross term p^{2m+s-1} (p-1) q(v) t vanishing; dividing by p^m gives
    the law. For the Fermat quotient, (1 + p^s t)^{p-1} = 1 + (p-1) p^s t
    mod p^{2s}, so u^{p-1} = v^{p-1} + (p-1) p^s j v^{p-2} mod p^{m+1}, and
    dividing by p gives the law.

    The blocks. Split q = L + p^{s-1} H with L < p^{s-1} and the head
    H < P. By the law, L(v + jB) = L(v), and on block j the head is
        H(v + jB) = H(v) + j c_v mod P,  c_v = (p-1) v^a mod P,
    where c_v is a unit mod P. Let D map a head to its symbol and
    R_c[j] = D[j c mod P]. With t = H(v) c_v^{-1} mod P,
    D[H(v) + j c_v] = R_c[t + j], so the slice out[v::B], the symbols at
    v, v + B, ..., is R_{c_v} rotated by t. The symbol is the same at u and
    N - u (q(-1) = 0, as p - 1 is even), and N - (v + jB) =
    (B - v) + (P-1-j) B, so out[B-v::B] is out[v::B] reversed.

    The walk. c_v depends on v mod P. The units v below B with c_v = c are
    w + iP, i < B/P, where (p-1) w^a = c mod P. Along c = g^k, g a primitive
    root modulo p^2, w steps by g^{1/a} (1/a mod phi(P)), and
    R_{cg} = (R_c * g)[::g]: one slice per step, on tables kept doubled so
    that each rotation is one slice. -c = c g^{phi(P)/2} holds the mirrors
    B - v, so the walk takes k < phi(P)/2. Each unit it meets costs one
    pow, by the definition, and two slice writes of P symbols.

    tables(P) returns the symbol tables over the heads [0, P) and low_cut:
    a unit v whose low digits L(v) are below low_cut takes the second table,
    every other unit the first. Only the threshold kind has two; its low
    digits move its cut by at most one step of H. The period is allocated
    first, through _period_buffer.
    """
    n = m + 1
    out = _period_buffer(p**n, fill, wide)
    s = (n + 1) // 2
    B, P = p**s, p ** (n - s)
    if fermat:
        e, k, a = p - 1, 1, p - 2
    else:
        e, k, a = p ** (m - 1) * (p - 1), m, -1
    mod, div = p ** (k + m), p ** (k + s - 1)  # x = u^e mod p^{k+m}, H = x // div
    symbol_tables, low_cut = tables(P)
    cut = 1 + p**k * low_cut  # x mod div = 1 + p^k L
    rows = [row + row for row in symbol_tables]  # R_c at c = 1, doubled
    phi = P // p * (p - 1)  # phi(P)
    g = primitive_root(p, 2)
    a_inv = pow(a, -1, phi)
    w_step, g_inv = pow(g, a_inv, P), pow(g, -1, P)
    w, c_inv = pow(pow(p - 1, -1, P), a_inv, P), 1  # c_w = 1
    for _ in range(phi // 2):  # the other half are the mirrors B - v
        units = range(w, B, P)
        for v, x in zip(units, map(pow, units, repeat(e), repeat(mod))):
            t = x // div * c_inv % P
            run = rows[x % div < cut][t : t + P]
            out[v::B] = run
            out[B - v :: B] = run[::-1]
        rows = [(row * g)[::g] for row in rows]
        w, c_inv = w * w_step % P, c_inv * g_inv % P
    return out


def top_digits(m: PrimePowerModulus, on_multiples: int = 0) -> bytearray | list[int]:
    """H_{r-1}(u) for every u in [0, p^{r+1}), on_multiples where p divides u.

    A bytearray for p < 256, else a list; both take assignment by index.
    """
    p = m.p
    wide = p > 255

    def tables(P):  # H_{r-1} is the head's top digit
        top = P // p
        digits = map(top.__rfloordiv__, range(P))
        return [list(digits) if wide else bytes(digits)], 0

    return _quotient_blocks(p, m.r, False, on_multiples, wide, tables)


def class_partition(m: PrimePowerModulus) -> ClassPartition:
    """D_0..D_{p-1} modulo p^{r+1}, each an ascending list, from one pass over u."""
    digits = top_digits(m, on_multiples=m.p)  # first: it sizes the period's buffer
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
    symbols = _quotient_blocks(m.p, m.r, False, on_multiples, False, _indicator(m.p, members))
    return PeriodicSequence(2, m.sequence_period, symbols)


def _indicator(p: int, members: frozenset[int]):
    """_quotient_blocks tables: 1 where the head's top digit lies in members."""

    def tables(P):  # called once the period is allocated
        top = P // p
        hit = bytes(map(members.__contains__, range(p)))
        return [bytes(map(hit.__getitem__, map(top.__rfloordiv__, range(P))))], 0

    return tables


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

    def tables(P):  # H > head gives 1 and H < head 0; at H = head, L >= low
        head, low = divmod(half, m.modulus // P)
        return [bytes(h >= head for h in range(P)), bytes(h > head for h in range(P))], low

    symbols = _quotient_blocks(m.p, m.r, False, 0, False, tables)
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
    this is the r = 1 binary class sequence. That digit is the top digit of
    the order-i Fermat quotient (u^{p-1} mod p^{i+1} - 1)/p, which
    _quotient_blocks builds by its Fermat-quotient law.
    """
    members = validate_index_set(p, levels)
    if i < 1:
        raise ValueError(f"order i must be >= 1, got {i}")
    period = PrimePowerModulus(p, i).sequence_period  # p must be an odd prime
    symbols = _quotient_blocks(p, i, True, 0, False, _indicator(p, members))
    return PeriodicSequence(2, period, symbols)


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
