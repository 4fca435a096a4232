import io

import pytest

from eulerseq.complexity import theorem_precondition_error
from eulerseq.quotients import PrimePowerModulus, fermat_quotient_order, new_quotient_h
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
        with pytest.raises(ValueError):
            PeriodicSequence(2, 2, (0, 2))

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
        assert seq.symbols == tuple(new_quotient_h(m1, u) for u in range(9))

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
        assert f.symbols == tuple(1 if u % 3 else 0 for u in range(27))

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
        # the primitive-root walk against the per-u definition, every symbol
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
