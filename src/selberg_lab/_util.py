"""Small shared numerical helpers."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

INT64_MAX = np.iinfo(np.int64).max
MAX_H_EXPONENT = Fraction(49, 100)  # every H checked against N satisfies H <= N^0.49


def compensated_sum(values) -> float:
    """Error-compensated sum of a float array (exactly rounded)."""
    return math.fsum(np.asarray(values, dtype=np.float64))


def next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    if n <= 1:
        return 1
    return 1 << (int(n - 1).bit_length())


def at_most_power(h: int, n: int, exponent: Fraction) -> bool:
    """Whether h <= n**exponent, exactly: h**q <= n**p for exponent = p/q >= 0."""
    p, q = exponent.numerator, exponent.denominator
    return h**q <= n**p


def floor_power(n: int, exponent: Fraction) -> int:
    """floor(n**exponent) for n >= 1, exponent >= 0: a float estimate corrected
    by exact integer comparisons, so n = 1024, exponent = 3/10 gives 8."""
    h = int(n ** float(exponent))
    while h > 0 and not at_most_power(h, n, exponent):
        h -= 1
    while at_most_power(h + 1, n, exponent):
        h += 1
    return h


def primes_upto(n: int) -> np.ndarray:
    """All primes <= n, by Eratosthenes."""
    if n < 2:
        return np.empty(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p :: p] = False
    return np.nonzero(mask)[0].astype(np.int64)
