"""The sieve kernel satisfies the smallest-prime-factor contract."""

from math import isqrt

import numpy as np
import pytest

from submult import _spfsieve_py
from submult.core import kernel_backend

from oracles import spf_oracle


def test_backend_reported():
    assert kernel_backend() == "python"


@pytest.mark.parametrize("limit", [2, 3, 10, 100, 1000])
def test_pure_python_matches_trial_division(limit):
    spf = _spfsieve_py.spf_sieve(limit)
    assert len(spf) == limit + 1
    for i in range(2, limit + 1):
        assert spf[i] == spf_oracle(i)


def test_spf_invariants():
    limit = 5000
    spf = _spfsieve_py.spf_sieve(limit)
    for i in range(2, limit + 1):
        s = int(spf[i])
        # spf[p] = p exactly for primes; composite i has spf <= sqrt(i)
        assert s == i or s <= isqrt(i)
        assert i % s == 0


def test_spf_is_int32_below_2_to_31():
    assert _spfsieve_py.spf_sieve(1000).dtype == np.int32
    # from 2**31 entries take 8 bytes, not 4; seen in the memory bound
    # rather than by allocating
    jump = _spfsieve_py.sieve_bytes(2**31) - _spfsieve_py.sieve_bytes(2**31 - 1)
    assert 4 * 2**31 <= jump < 4 * 2**31 + 100
