import pytest

from eulerseq import verify


@pytest.fixture
def walk_over(monkeypatch):
    """Make verify's quotient_map run the caller's map over a given Q_r table.

    f gives the symbol of each quotient in range(p^r), as in quotient_map,
    and each u takes the symbol of table[u]; the multiples of p take
    on_multiples and the period the walk's buffer type. So a corrupted
    table reaches a suite through the same map that it applies to the
    walk's cycle.
    """

    def install(table):
        def walk(m, f, on_multiples=0, wide=True):
            symbol = list(f(range(m.modulus)))
            symbols = [symbol[q] for q in table]
            symbols[:: m.p] = [on_multiples] * len(symbols[:: m.p])
            return symbols if wide else bytearray(symbols)

        monkeypatch.setattr(verify, "quotient_map", walk)

    return install
