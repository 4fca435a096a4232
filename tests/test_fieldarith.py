import pytest

from eulerseq.fieldarith import PrimeField


class TestPrimeField:
    def test_rejects_composite(self):
        with pytest.raises(ValueError):
            PrimeField(9)

