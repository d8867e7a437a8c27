"""Smallest-prime-factor sieve, the package's only sieve kernel.

spf_sieve(limit) returns an array a of length limit + 1 with a[i] =
smallest prime factor of i for 2 <= i <= limit, a[0] = 0 and a[1] = 1.
The dtype is int32 when limit < 2**31, which halves the table, and
int64 above; code that multiplies entries casts them to int64 first.
Numpy slice assignment keeps it fast at multi-million limits.

sieve_bytes(limit) bounds the memory spf_sieve takes, so callers can
refuse a limit before allocating anything.
"""

from math import isqrt, log

import numpy as np

BACKEND = "python"


def _dtype(limit: int):
    return np.int32 if limit < 2**31 else np.int64


def sieve_bytes(limit: int) -> int:
    """Upper bound on the bytes spf_sieve(limit) holds at once: the table,
    its boolean mask of unset entries, and the indices of the primes
    above sqrt(limit) (pi(x) < 1.26 x / ln x, Rosser and Schoenfeld), as
    int64 and once more shifted."""
    entries = limit + 1
    primes = int(1.26 * limit / log(limit)) + 1 if limit > 2 else 2
    return entries * np.dtype(_dtype(limit)).itemsize + entries + 16 * primes


def spf_sieve(limit: int) -> np.ndarray:
    spf = np.zeros(limit + 1, dtype=_dtype(limit))
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
