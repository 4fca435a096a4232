"""The stdlib number theory helpers against sympy, the reference."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

import eulerseq
from eulerseq import ntheory
from eulerseq.ntheory import factorint, isprime, n_order, primitive_root

# The least strong pseudoprimes to the first 4, 9 and 12 prime bases; the
# first 13 primes are bases enough below ntheory._MR_BOUND, which is itself
# a strong pseudoprime to all 13.
STRONG_PSEUDOPRIMES = [3215031751, 3825123056546413051, 318665857834031151167461]


class TestIsprime:
    @pytest.mark.parametrize("n", STRONG_PSEUDOPRIMES)
    def test_strong_pseudoprimes_are_composite(self, n):
        assert not isprime(n)

    def test_both_sides_of_the_miller_rabin_bound(self):
        bound = ntheory._MR_BOUND
        assert bound == 3317044064679887385961981
        below, above = sympy.prevprime(bound), sympy.nextprime(bound)
        for n in [below, below - 2, bound - 2, bound, bound + 2, above, above + 2]:
            assert isprime(n) == sympy.isprime(n), n
        assert not isprime(bound) and isprime(below) and isprime(above)

    def test_small_n(self):
        assert [n for n in range(-3, 200) if isprime(n)] == list(sympy.primerange(200))

    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=0, max_value=10**30))
    @example(2**61 - 1)
    @example((2**31 - 1) ** 2)
    def test_matches_sympy(self, n):
        assert isprime(n) == sympy.isprime(n)


class TestFactorint:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=10**14))
    @example(1)
    @example(2**32 + 15)  # a prime just past 2^32
    @example(65521**2)  # the largest trial prime, squared
    @example(65537**2)  # a square of a prime past the trial primes
    @example(65537**3)  # its cube: sympy's case
    @example(65537 * 65539)  # two primes past them: sympy's case
    def test_matches_sympy(self, n):
        assert factorint(n) == sympy.factorint(n)
        assert list(factorint(n)) == sorted(factorint(n))

    @pytest.mark.parametrize("n", [(2**61 - 1) ** 2, (10**18 + 3) ** 3, 10**18 + 2])
    def test_large_prime_powers(self, n):
        assert factorint(n) == sympy.factorint(n)

    def test_refuses_zero(self):
        with pytest.raises(ValueError):
            factorint(0)


class TestNOrder:
    @settings(max_examples=300, deadline=None)
    @given(st.integers(min_value=1, max_value=10**7).map(lambda k: 2 * k + 1))
    @example(9)
    @example(1093**2)  # a Wieferich prime, squared
    def test_order_of_2_matches_sympy(self, n):
        assert n_order(2, n) == sympy.n_order(2, n)

    def test_composite_modulus(self):
        assert n_order(2, 9) == 6  # 2 is a primitive root modulo 9, of order 6

    @pytest.mark.parametrize("n", [1, 2, 10, 49 * 2])
    def test_refuses_non_units(self, n):
        with pytest.raises(ValueError):
            n_order(2, n)

    @pytest.mark.parametrize("p", [2**61 - 1, 10**18 + 3])
    def test_prime_square_of_a_large_prime(self, p):
        assert n_order(2, p * p) == sympy.n_order(2, p * p)


class TestPrimitiveRoot:
    @pytest.mark.parametrize("e", [1, 2, 3])
    @pytest.mark.parametrize("p", list(sympy.primerange(3, 400)) + [1093, 3511, 40487])
    def test_matches_sympy(self, p, e):
        assert primitive_root(p, e) == sympy.primitive_root(p**e)

    def test_root_modulo_p_need_not_serve_p_squared(self):
        assert (primitive_root(40487), primitive_root(40487, 2)) == (5, 10)


# Each command runs in a fresh interpreter, which reports whether sympy got
# imported; the stdlib helpers and the bitmask factor codes keep it out of
# each command below, the k-error middle tier at p = 7, 17 and 23 included.
_IMPORT_PROBE = textwrap.dedent("""
    import contextlib, io, sys
    from eulerseq import cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(sys.argv[1:])
    print(code, "sympy" in sys.modules)
""")


def _run_probe(argv):
    src = str(Path(eulerseq.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, *argv],
        capture_output=True, text=True, timeout=120, env=env,
    )
    assert proc.returncode == 0, proc.stderr
    code, loaded = proc.stdout.split()
    return int(code), loaded == "True"


@pytest.mark.parametrize("argv", [
    "generate --p 3 --r 2 --kind class --I 0",
    "generate --p 7 --r 1 --kind mary --order 3",
    "analyze --p 3 --r 3 --kind class --I 0 --k-max 3",
    "verify --suite q-r-s --p 3 --r 3",
    "verify --suite lc-p --p 3 --r 3",
    "partition --p 5 --r 2 --summary",
    "analyze --p 7 --r 2 --kind class --I 0 --k-max 1",
    "analyze --p 17 --r 2 --kind class --I 0 --k-max 1",
    "analyze --p 23 --r 2 --kind class --I 0 --k-max 1",
])
def test_commands_run_without_sympy(argv):
    assert _run_probe(argv.split()) == (0, False)

