import io

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eulerseq import sequences
from eulerseq.complexity import theorem_precondition_error
from eulerseq.ntheory import primitive_root
from eulerseq.quotients import (
    PrimePowerModulus,
    euler_quotient,
    fermat_quotient_order,
    new_quotient_h,
    quotient_map,
    scatter_cycle,
)
from eulerseq.sequences import (
    PeriodicSequence,
    SequenceParseError,
    balanced_class_sequence,
    binary_class_sequence,
    class_partition,
    level_sequence,
    mary_sequence,
    order_i_binary_sequence,
    read_sequence,
    threshold_sequence,
    validate_index_set,
    write_sequence,
)


class TestPeriodicSequence:
    def test_validation(self):
        with pytest.raises(ValueError):
            PeriodicSequence(2, 3, (0, 1))
        with pytest.raises(TypeError):  # bytes(3) would be three zero symbols
            PeriodicSequence(2, 3, 3)
        for symbols in [(0, 2), (-1, 0)]:
            with pytest.raises(ValueError, match="^symbol out of alphabet range$"):
                PeriodicSequence(2, 2, symbols)

    def test_weight_and_indexing(self):
        s = PeriodicSequence(3, 4, (0, 2, 1, 0))
        assert s.weight == 2
        assert s[5] == 2

    def test_least_period(self):
        s = PeriodicSequence(2, 6, (1, 0, 1, 0, 1, 0))
        assert s.least_period() == 2

    def test_flip_binary_only(self):
        s = PeriodicSequence(3, 2, (0, 1))
        with pytest.raises(ValueError):
            s.flip([0])

    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from([2, 10, 11, 256, 257, 1000]),
        st.lists(st.integers(0, 255), min_size=1, max_size=60),
    )
    def test_tuple_and_bytes_inputs_agree(self, alphabet, raw):
        symbols = [x % alphabet for x in raw]  # below 256 as well, so bytes hold them
        as_tuple = PeriodicSequence(alphabet, len(symbols), tuple(symbols))
        for other in (bytes(symbols), bytearray(symbols), symbols):
            seq = PeriodicSequence(alphabet, len(symbols), other)
            assert seq == as_tuple
            assert hash(seq) == hash(as_tuple)
        # the storage follows the alphabet: bytes up to 256 symbols, a tuple past it
        assert type(as_tuple.symbols) is (bytes if alphabet <= 256 else tuple)
        assert list(as_tuple.symbols) == symbols
        assert [as_tuple[u] for u in range(len(symbols))] == symbols

    @pytest.mark.parametrize("alphabet", [2, 10, 11, 256, 257, 1000])
    def test_out_of_range_symbol_message(self, alphabet):
        bad = [-1, alphabet, alphabet + 1, -300]
        inputs = [(0, x, 1) for x in bad] + [[1, x] for x in bad]
        inputs += [bytes([0, x]) for x in bad if 0 <= x < 256]
        for symbols in inputs:
            with pytest.raises(ValueError, match="^symbol out of alphabet range$"):
                PeriodicSequence(alphabet, len(symbols), symbols)


class TestClassPartition:
    @pytest.mark.parametrize("p,r", [(3, 2), (3, 3), (5, 2)])
    def test_invariants(self, p, r):
        m = PrimePowerModulus(p, r)
        part = class_partition(m)
        size = p ** (r - 1) * (p - 1)
        assert all(len(c) == size for c in part.classes)
        assert all(c == sorted(set(c)) for c in part.classes)
        everything = set(range(0, m.sequence_period, p))  # P
        for c in part.classes:
            assert not (everything & set(c))
            everything |= set(c)
        assert everything == set(range(m.sequence_period))

    def test_membership_round_trip(self):
        m = PrimePowerModulus(3, 2)
        part = class_partition(m)
        for l, c in enumerate(part.classes):
            for u in c:
                assert u % 3 != 0
                assert new_quotient_h(m, u) == l
        assert 2 in part.classes[2]

    @pytest.mark.parametrize("p,r", [(3, 2), (3, 3), (5, 2)])
    def test_explicit_lift_form(self, p, r):
        # D_l = {v + m_lv p^r : units v < p^r}, m_lv = v (H(v) - l) mod p
        m = PrimePowerModulus(p, r)
        part = class_partition(m)
        pr = p**r
        for l, c in enumerate(part.classes):
            lifted = set()
            for v in range(1, pr):
                if v % p == 0:
                    continue
                mlv = v * (new_quotient_h(m, v) - l) % p
                lifted.add(v + mlv * pr)
            assert lifted == set(c)

    @pytest.mark.parametrize("p,r", [(3, 2), (3, 3), (5, 2)])
    def test_reduction_fibers(self, p, r):
        # mod p^j each class covers Z*_{p^j} with fibers of size p^{r-j}
        m = PrimePowerModulus(p, r)
        part = class_partition(m)
        for j in range(1, r + 1):
            pj = p**j
            units = {x for x in range(pj) if x % p != 0}
            for c in part.classes:
                from collections import Counter

                counts = Counter(u % pj for u in c)
                assert set(counts) == units
                assert all(v == p ** (r - j) for v in counts.values())


class TestIndexSetValidation:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            validate_index_set(3, [])

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            validate_index_set(3, [3])

    def test_half_bound(self):
        # |I| <= (p-1)/2 is the theorem's precondition, not the index set's
        m = PrimePowerModulus(5, 2)
        assert theorem_precondition_error(m, 2) is None
        assert theorem_precondition_error(m, 3) is not None


class TestLevelSequence:
    def test_periods(self):
        m = PrimePowerModulus(3, 2)
        assert level_sequence(m, 1).period == 27
        assert level_sequence(m, 0).period == 9

    def test_level_zero_is_fermat_sequence(self):
        m = PrimePowerModulus(3, 2)
        seq = level_sequence(m, 0)
        m1 = PrimePowerModulus(3, 1)
        assert tuple(seq.symbols) == tuple(new_quotient_h(m1, u) for u in range(9))

    def test_symbol_zero_at_zero(self):
        assert level_sequence(PrimePowerModulus(5, 2), 1)[0] == 0

    def test_j_out_of_range(self):
        with pytest.raises(ValueError):
            level_sequence(PrimePowerModulus(3, 2), 2)

    @pytest.mark.parametrize("p,r", [(3, 2), (3, 3), (5, 2)])
    def test_least_period_every_level(self, p, r):
        m = PrimePowerModulus(p, r)
        for j in range(r):
            assert level_sequence(m, j).least_period() == p ** (j + 2)


class TestBinaryClassSequence:
    def test_weight(self):
        m = PrimePowerModulus(3, 2)
        f = binary_class_sequence(m, {0})
        assert f.weight == 3 ** (2 - 1) * 2  # p^{r-1}(p-1)|I|
        assert f.period == 27

    def test_zero_at_zero(self):
        for levels in ({0}, {1}, {0, 2}):
            assert binary_class_sequence(PrimePowerModulus(3, 2), levels)[0] == 0

    def test_full_index_set_marks_units(self):
        m = PrimePowerModulus(3, 2)
        f = binary_class_sequence(m, {0, 1, 2})
        assert tuple(f.symbols) == tuple(1 if u % 3 else 0 for u in range(27))

    def test_shift_law_membership(self):
        # f(v + k p^r) is determined by H(v) - k v^{p-2} mod p
        m = PrimePowerModulus(3, 2)
        levels = {1}
        f = binary_class_sequence(m, levels)
        for v in range(m.modulus):
            if v % 3 == 0:
                continue
            hv = new_quotient_h(m, v)
            for k in range(3):
                shifted = (hv - k * pow(v, 1, 3)) % 3
                assert f[v + k * 9] == (1 if shifted in levels else 0)


class TestBalancedClassSequence:
    def test_weight(self):
        m = PrimePowerModulus(3, 2)
        ft = balanced_class_sequence(m, {0})
        assert ft.weight == 6 + 9  # p^{r-1}(p-1)|I| + p^r

    def test_one_at_zero(self):
        assert balanced_class_sequence(PrimePowerModulus(3, 2), {0})[0] == 1

    def test_agrees_off_multiples(self):
        m = PrimePowerModulus(3, 2)
        f = binary_class_sequence(m, {1})
        ft = balanced_class_sequence(m, {1})
        for u in range(27):
            if u % 3:
                assert f[u] == ft[u]
            else:
                assert ft[u] == 1


class TestThresholdSequence:
    def test_zero_on_multiples(self):
        e = threshold_sequence(PrimePowerModulus(3, 2))
        for u in range(0, 27, 3):
            assert e[u] == 0

    def test_small_quotients(self):
        # Q_1(2) = 1, 1/3 < 1/2; Q_2(2) = 7, 7/9 >= 1/2
        assert threshold_sequence(PrimePowerModulus(3, 1))[2] == 0
        assert threshold_sequence(PrimePowerModulus(3, 2))[2] == 1

    def test_period_stored(self):
        assert threshold_sequence(PrimePowerModulus(5, 2)).period == 125


class TestMarySequence:
    def test_order_must_divide_phi(self):
        with pytest.raises(ValueError):
            mary_sequence(PrimePowerModulus(3, 2), 4)

    def test_zero_symbols(self):
        m = PrimePowerModulus(3, 1)
        e = mary_sequence(m, 2)
        # Q_1(2) = 1 -> ind(1) = 0; multiples of p -> 0
        assert e[2] == 0
        assert e[0] == 0 and e[3] == 0

    def test_character_multiplicativity(self):
        # symbols come from a group character: ind(ab) = ind(a)+ind(b) mod order,
        # with the index taken by sympy's independent discrete logarithm
        import sympy

        from eulerseq.quotients import euler_quotient

        for p, r, order in [(5, 2, 4), (3, 3, 6), (7, 2, 3)]:
            m = PrimePowerModulus(p, r)
            e = mary_sequence(m, order)
            g = int(sympy.primitive_root(m.modulus))
            for u in range(m.sequence_period):
                q = euler_quotient(m, u)
                if q % p == 0:
                    assert e[u] == 0
                else:
                    assert e[u] == sympy.discrete_log(m.modulus, q, g) % order


class TestOrderIBinarySequence:
    def test_period_and_weight(self):
        f = order_i_binary_sequence(3, 1, {1})
        assert f.period == 9
        # enumerate F^(1)(u) for u in [0,9): weight = #{u : F(u)=1}
        expected = sum(
            1 for u in range(9) if u % 3 and fermat_quotient_order(3, 1, u) == 1
        )
        assert f.weight == expected

    def test_zero_at_zero(self):
        assert order_i_binary_sequence(5, 2, {0})[0] == 0

    def test_i1_matches_r1_class_sequence(self):
        for p in (3, 5):
            for levels in ({0}, {1}):
                a = order_i_binary_sequence(p, 1, levels)
                b = binary_class_sequence(PrimePowerModulus(p, 1), levels)
                assert a.symbols == b.symbols

    def test_walk_matches_fermat_quotient_order(self):
        # the built period against the per-u definition, every symbol
        cases = [(3, 1, {0}), (3, 4, {1}), (3, 5, {2}), (5, 3, {0, 3}),
                 (7, 2, {1, 4, 6}), (11, 2, {10}), (13, 1, {0, 5})]
        for p, i, levels in cases:
            f = order_i_binary_sequence(p, i, levels)
            for u in range(p ** (i + 1)):
                want = u % p != 0 and fermat_quotient_order(p, i, u) in levels
                assert f[u] == want, (p, i, levels, u)

    def test_rejects_bad_p_and_i(self):
        for p, i in [(4, 2), (2, 2), (3, 0), (3, -1)]:
            with pytest.raises(ValueError):
                order_i_binary_sequence(p, i, {0})


class TestAgainstDefinitions:
    """Each kind built by sequences._quotient_blocks against euler_quotient
    and fermat_quotient_order, at every u."""

    @pytest.mark.parametrize("p,r", [(3, 1), (3, 4), (5, 3), (7, 2), (13, 2)])
    def test_every_symbol(self, p, r):
        m = PrimePowerModulus(p, r)
        n, pr = m.sequence_period, m.modulus
        q = [euler_quotient(m, u) for u in range(n)]
        unit = [u % p != 0 for u in range(n)]
        levels = {0, p - 1}
        assert tuple(level_sequence(m, r - 1).symbols) == tuple(x // p ** (r - 1) for x in q)
        for j in range(r - 1):  # a lower level: digit j, period p^{j+2}
            assert tuple(level_sequence(m, j).symbols) == tuple(
                x // p**j % p for x in q[: p ** (j + 2)]
            )
        assert tuple(threshold_sequence(m).symbols) == tuple(int(2 * x >= pr) for x in q)
        assert tuple(binary_class_sequence(m, levels).symbols) == tuple(
            int(e and x // p ** (r - 1) in levels) for x, e in zip(q, unit)
        )
        assert tuple(balanced_class_sequence(m, levels).symbols) == tuple(
            int(not e or x // p ** (r - 1) in levels) for x, e in zip(q, unit)
        )
        assert tuple(order_i_binary_sequence(p, r, levels).symbols) == tuple(
            int(e and fermat_quotient_order(p, r, u) in levels) for u, e in enumerate(unit)
        )


def _walk(m, symbol, on_multiples=0):
    """symbol(Q_r(u)) at every u of a period, by quotient_map's walk."""
    return quotient_map(m, lambda qs: map(symbol, qs), on_multiples)


def _fermat_walk(p, i, levels):
    """The order-i binary sequence along the walk x = g^k, by scatter_cycle.

    x^{p-1} = (g^{p-1})^k, and g^{p-1} has order p^i modulo p^{i+1}, so the
    symbols repeat with period p^i in k.
    """
    top, period = p**i, p ** (i + 1)
    g = primitive_root(p, 2)
    step = pow(g, p - 1, period)
    cycle = [int(pow(step, k, period) // top in levels) for k in range(top)]
    return scatter_cycle([0] * period, g, cycle)


# every (p, r) with p <= 13 and p^{r+1} <= 3^9, the walk's sizes for the property
_WALK_SIZES = [(p, r) for p in (3, 5, 7, 11, 13) for r in range(1, 9) if p ** (r + 1) <= 3**9]


@st.composite
def moduli_and_levels(draw):
    p, r = draw(st.sampled_from(_WALK_SIZES))
    return p, r, frozenset(draw(st.sets(st.integers(0, p - 1), min_size=1)))


class TestBuilderAgainstWalk:
    """Every kind that sequences._quotient_blocks builds, against the walk.

    The walk (quotient_map, scatter_cycle) is the builder's independent
    path. gen-props takes its references from the same builders, so these
    byte-for-byte comparisons are what catches a builder bug.
    """

    @settings(max_examples=40, deadline=None)
    @given(moduli_and_levels())
    @example((3, 1, frozenset({0})))
    @example((257, 1, frozenset({0, 256})))  # digits past 255: the list path
    def test_every_kind_matches_the_walk(self, case):
        p, r, levels = case
        m = PrimePowerModulus(p, r)
        base, pr = p ** (r - 1), p**r
        hit = lambda q: int(q // base in levels)
        assert binary_class_sequence(m, levels).symbols == bytes(_walk(m, hit))
        assert balanced_class_sequence(m, levels).symbols == bytes(_walk(m, hit, 1))
        assert threshold_sequence(m).symbols == bytes(_walk(m, lambda q: int(2 * q >= pr)))
        for on_multiples in (0, p):
            digits = sequences.top_digits(m, on_multiples)
            assert isinstance(digits, bytearray if p < 256 else list)
            assert list(digits) == _walk(m, base.__rfloordiv__, on_multiples)
        for j in range(r):  # level j is the top digit of Q_{j+1}
            sub = PrimePowerModulus(p, j + 1)
            expected = _walk(sub, (p**j).__rfloordiv__)
            assert list(level_sequence(m, j).symbols) == expected
        fermat = order_i_binary_sequence(p, r, levels)
        assert fermat.symbols == bytes(_fermat_walk(p, r, levels))


class TestSequenceFileFormat:
    def test_round_trip(self):
        m = PrimePowerModulus(3, 2)
        seq = binary_class_sequence(m, {0})
        buf = io.StringIO()
        write_sequence(buf, seq, 3, 2, "class")
        buf.seek(0)
        loaded, meta = read_sequence(buf)
        assert loaded == seq
        assert meta == {"p": 3, "r": 2, "kind": "class"}

    def test_round_trip_long_sequence(self):
        m = PrimePowerModulus(5, 2)
        seq = level_sequence(m, 1)
        buf = io.StringIO()
        write_sequence(buf, seq, 5, 2, "level")
        buf.seek(0)
        loaded, _ = read_sequence(buf)
        assert loaded == seq

    def test_bad_header(self):
        with pytest.raises(SequenceParseError):
            read_sequence(io.StringIO("nope 2 3 p=3 r=1 kind=x\n0 1 0\n"))

    def test_bad_symbol_reports_line(self):
        buf = io.StringIO("seq 2 3 p=3 r=1 kind=class\n0 1\nzzz\n")
        with pytest.raises(SequenceParseError) as exc:
            read_sequence(buf)
        assert exc.value.line == 3

    def test_wrong_count(self):
        with pytest.raises(SequenceParseError):
            read_sequence(io.StringIO("seq 2 4 p=3 r=1 kind=class\n0 1 0\n"))


@st.composite
def sequences_with_header(draw):
    """A sequence over an alphabet of 2..1000 symbols, so some lie past 255."""
    alphabet = draw(st.integers(2, 1000))
    symbols = draw(st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=130))
    return PeriodicSequence(alphabet, len(symbols), tuple(symbols))


def reference_text(seq, p, r, kind):
    """The format as written one str() per symbol, 40 symbols a line."""
    lines = [f"seq {seq.alphabet_size} {seq.period} p={p} r={r} kind={kind}"]
    for start in range(0, seq.period, 40):
        lines.append(" ".join(map(str, seq.symbols[start : start + 40])))
    return "\n".join(lines) + "\n"


@st.composite
def digit_bodies(draw):
    """(alphabet, header period, body): single-digit bodies, some not canonical.

    Separators may be CRLF, doubled spaces, blank lines or missing (two
    tokens run together), the final newline may be missing, the header's
    count may be one off, and a token may be a digit at or above the
    alphabet, or 01 or +1.
    """
    alphabet = draw(st.integers(2, 10))
    symbols = draw(st.lists(st.integers(0, alphabet - 1), min_size=1, max_size=90))
    tokens = [str(x) for x in symbols]
    if draw(st.booleans()):
        i = draw(st.integers(0, len(tokens) - 1))
        tokens[i] = draw(st.sampled_from(["01", "+1", str(alphabet), "9"]))
    canonical = [" " if (i + 1) % 40 else "\n" for i in range(len(tokens))]
    canonical[-1] = "\n"
    if draw(st.booleans()):  # perturb some separators
        for i in draw(st.lists(st.integers(0, len(tokens) - 1), max_size=3)):
            canonical[i] = draw(st.sampled_from(["\r\n", "  ", "\n\n", "\n", " ", ""]))
    body = "".join(t + sep for t, sep in zip(tokens, canonical))
    if draw(st.booleans()):
        body = body[:-1]  # no final newline
    period = len(symbols) + draw(st.sampled_from([0, 0, 0, -1, 1]))
    return alphabet, period, body


class TestSequenceCodec:
    """The file codec against the per-symbol str() and int() format."""

    @settings(max_examples=200, deadline=None)
    @given(sequences_with_header())
    @example(PeriodicSequence(1000, 3, (999, 256, 255)))
    def test_round_trip_byte_identical(self, seq):
        buf = io.StringIO()
        write_sequence(buf, seq, 7, 3, "random")
        assert buf.getvalue() == reference_text(seq, 7, 3, "random")
        buf.seek(0)
        assert read_sequence(buf) == (seq, {"p": 7, "r": 3, "kind": "random"})

    @pytest.mark.parametrize("line,symbols", [
        ("01 +1 0", (1, 1, 0)),
        ("0 1 1\n1 01 0", (0, 1, 1, 1, 1, 0)),  # a canonical line, then one not
        ("1_0 0 1", (10, 0, 1)),
    ])
    def test_non_canonical_tokens_parse_as_int(self, line, symbols):
        header = f"seq 11 {len(symbols)} p=3 r=1 kind=class\n"
        seq, _ = read_sequence(io.StringIO(header + line + "\n"))
        assert tuple(seq.symbols) == symbols

    def test_negative_token_fails_range_check(self):
        with pytest.raises(SequenceParseError, match="^line 2: symbol out of alphabet range$"):
            read_sequence(io.StringIO("seq 2 3 p=3 r=1 kind=class\n0 -1 1\n"))

    def test_bad_token_after_table_lines_reports_its_line(self):
        text = "seq 2 9 p=3 r=1 kind=class\n0 1\n1 0\n0 1\n1 zzz 0\n1\n"
        with pytest.raises(SequenceParseError, match="^line 5: bad symbol 'zzz'$") as exc:
            read_sequence(io.StringIO(text))
        assert exc.value.line == 5

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(2, 10),
        st.lists(st.integers(0, 9), min_size=1, max_size=130),
    )
    @example(2, [1] * 40)
    @example(10, list(range(10)) * 8)
    def test_digit_writer_byte_identical(self, alphabet, raw):
        seq = PeriodicSequence(alphabet, len(raw), [x % alphabet for x in raw])
        buf = io.StringIO()
        write_sequence(buf, seq, 3, 2, "class")
        assert buf.getvalue() == reference_text(seq, 3, 2, "class")
        body = buf.getvalue().partition("\n")[2]
        # the writer's body is the one the digit path takes
        assert sequences._parse_digits(body, alphabet, seq.period) == seq

    @settings(max_examples=300, deadline=None)
    @given(digit_bodies())
    @example((2, 3, "0 1 1\n"))
    @example((2, 3, "0 1 1"))
    @example((2, 3, "0 1 1\r\n"))
    @example((2, 2, "0 1 1\n"))
    @example((2, 4, "0 1 1\n"))
    @example((2, 3, "0  1 1\n"))
    @example((2, 3, "0 1\n\n1\n"))
    @example((2, 3, "0 2 1\n"))
    @example((3, 3, "01 +1 1\n"))
    @example((2, 3, "011 1\n"))
    def test_digit_path_agrees_with_line_loop(self, case):
        alphabet, period, body = case
        header = f"seq {alphabet} {period} p=3 r=1 kind=class\n"

        def outcome(parse):
            try:
                return parse()
            except SequenceParseError as exc:
                return str(exc), exc.line

        loop = outcome(lambda: sequences._parse_lines(io.StringIO(body), alphabet, period))
        assert outcome(lambda: read_sequence(io.StringIO(header + body))[0]) == loop
        fast = sequences._parse_digits(body, alphabet, period)
        assert fast is None or fast == loop

    def test_huge_header_period_is_not_allocated(self):
        # nothing is sized from the header: three symbols give the count error
        text = "seq 1000000000000 1000000000000 p=3 r=1 kind=class\n0 1 2\n"
        with pytest.raises(
            SequenceParseError, match="^line 2: expected 1000000000000 symbols, found 3$"
        ):
            read_sequence(io.StringIO(text))
