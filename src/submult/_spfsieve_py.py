"""Smallest-prime-factor sieve, the package's only sieve kernel.

spf_sieve(limit) returns an int64 array a of length limit + 1 with
a[i] = smallest prime factor of i for 2 <= i <= limit, a[0] = 0 and
a[1] = 1.  Numpy slice assignment keeps it fast at multi-million limits;
the sieve is well under 1% of a rational grid sweep.
"""

from math import isqrt

import numpy as np

BACKEND = "python"


def spf_sieve(limit: int) -> np.ndarray:
    spf = np.zeros(limit + 1, dtype=np.int64)
    if limit >= 1:
        spf[1] = 1
    for p in range(2, isqrt(limit) + 1):
        if spf[p] == 0:
            seg = spf[p * p :: p]
            seg[seg == 0] = p
    # untouched entries are primes (or p <= sqrt(limit) never composited)
    rest = np.flatnonzero(spf[2:] == 0) + 2
    spf[rest] = rest
    return spf
