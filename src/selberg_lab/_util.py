"""Small shared numerical helpers."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

INT64_MAX = np.iinfo(np.int64).max
MAX_H_EXPONENT = Fraction(49, 100)  # every H checked against N satisfies H <= N^0.49

# A finite double is m * 2**(e - 1075) with e = max(exponent field, 1) and m a
# signed integer below 2**53 in magnitude. Each chunk sums the halves m >> 26
# (below 2**27) and m & (2**26 - 1) per e in float64 bins: for 2**14 elements a
# bin stays below 2**41, so it is an exact integer. The int64 totals over all
# chunks stay exact up to 2**36 elements. Small chunks keep the temporaries in
# cache and the peak memory near 1 MB.
_SUM_CHUNK = 1 << 14
_LOW_BITS = 26
_EXP_BINS = 2048  # exponent fields 0 .. 2047; 2047 is inf or NaN
_MANT_MASK = (1 << 52) - 1


def compensated_sum(values) -> float:
    """The exactly rounded sum of a float array, equal to math.fsum.

    An exponent-bucketed superaccumulator: every double is split into its
    exponent and two integer halves of its signed mantissa, the halves are
    summed per exponent with np.bincount in chunks, and the buckets are folded
    into one Python int that is rounded once. Inputs with inf or NaN, and
    totals that are exactly zero (whose sign depends on the inputs), go to
    math.fsum. Where fsum raises OverflowError on an intermediate sum but the
    exact total fits a double, this returns the correctly rounded total
    (+0.0 for an exact zero).
    """
    a = np.asarray(values, dtype=np.float64)
    hi_bins = np.zeros(_EXP_BINS, dtype=np.int64)
    lo_bins = np.zeros(_EXP_BINS, dtype=np.int64)
    for k in range(0, a.size, _SUM_CHUNK):
        bits = a[k : k + _SUM_CHUNK].view(np.int64)
        exp = bits >> 52
        exp &= 0x7FF
        if exp.max() == _EXP_BINS - 1:
            return math.fsum(a)
        mant = bits & _MANT_MASK
        normal = np.minimum(exp, 1)  # the implicit bit; subnormals keep exponent 1
        np.maximum(exp, 1, out=exp)
        normal <<= 52
        mant |= normal
        sign = bits >> 63  # 0 or -1: (m ^ sign) - sign negates the negatives
        mant ^= sign
        mant -= sign
        hi_bins += np.bincount(exp, weights=mant >> _LOW_BITS, minlength=_EXP_BINS).astype(np.int64)
        mant &= (1 << _LOW_BITS) - 1
        lo_bins += np.bincount(exp, weights=mant, minlength=_EXP_BINS).astype(np.int64)
    total = 0
    for e in np.flatnonzero(hi_bins | lo_bins).tolist():
        total += ((int(hi_bins[e]) << _LOW_BITS) + int(lo_bins[e])) << e
    if total == 0:  # fsum gives the zero its sign; cancelling values give +0.0
        try:
            return math.fsum(a)
        except OverflowError:
            return 0.0
    return total / (1 << 1075)  # int / int rounds correctly, or raises OverflowError


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
