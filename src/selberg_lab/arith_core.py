"""Exact divisor tables, zeta Laurent data, and balanced sequences.

The building blocks everything else consumes: a segmented sieve for the
k-factor divisor function d_k, the Stieltjes constants, the degree-(k-1)
polynomial q in L = log x with Res_{s=1} zeta(s)^k x^{s-1} = q(log x),
and the balanced values f(n) = d_k(n) - q(log n) on the window
]N-H, 2N+H] (d_3 - p_2 for the paper's k = 3).
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from decimal import Decimal

import numpy as np

from ._util import INT64_MAX, primes_upto

_SIEVE_CHUNK = 1 << 19

# Laurent expansion of zeta at s=1: zeta(s) = 1/(s-1) + sum (-1)^j gamma_j (s-1)^j / j!.
# Standard published digits; an Euler-Maclaurin recomputation in the test suite
# confirms every stored digit.
_STIELTJES_DIGITS = (
    "0.5772156649015328606065120900824024310422",
    "-0.0728158454836767248605863758749013191377",
    "-0.0096903631928723184845303860352125293591",
)


@dataclass(frozen=True)
class Window:
    """Real or integer values attached to consecutive integers lo, lo+1, ...

    Index i holds the value at n = lo + i.
    """

    lo: int
    values: np.ndarray

    @property
    def hi(self) -> int:
        return self.lo + len(self.values) - 1

    def covers(self, n0: int, n1: int) -> bool:
        """Whether every n in [n0, n1] is inside the window."""
        return self.lo <= n0 and n1 <= self.hi

    def value(self, n: int):
        if not self.lo <= n <= self.hi:
            raise ValueError(f"n={n} outside window [{self.lo}, {self.hi}]")
        return self.values[n - self.lo]

    def slice(self, n0: int, n1: int) -> np.ndarray:
        """Values on the interval ]n0, n1] (n0 excluded, n1 included)."""
        if not self.covers(n0 + 1, n1):
            raise ValueError(
                f"interval ]{n0}, {n1}] not covered by window [{self.lo}, {self.hi}]"
            )
        return self.values[n0 + 1 - self.lo : n1 + 1 - self.lo]


@dataclass(frozen=True)
class DivisorTable(Window):
    """Exact values of d_k on a contiguous window (int64, overflow-checked)."""

    k: int


@dataclass(frozen=True)
class StieltjesConstants:
    """High-precision gamma_0, gamma_1, ... as Decimals."""

    gamma: tuple[Decimal, ...]

    def __post_init__(self):
        if len(self.gamma) >= 1 and not Decimal("0.577") < self.gamma[0] < Decimal("0.578"):
            raise ValueError("gamma_0 outside its sanity bracket (0.577, 0.578)")
        if len(self.gamma) >= 2 and not Decimal("-0.073") < self.gamma[1] < Decimal("-0.072"):
            raise ValueError("gamma_1 outside its sanity bracket (-0.073, -0.072)")


DEFAULT_STIELTJES = StieltjesConstants(tuple(Decimal(s) for s in _STIELTJES_DIGITS))


def stieltjes_constant(j: int) -> Decimal:
    """Stored Stieltjes constant gamma_j (25+ significant digits)."""
    if not 0 <= j < len(DEFAULT_STIELTJES.gamma):
        raise ValueError(f"gamma_{j} not stored (have j=0..{len(DEFAULT_STIELTJES.gamma)-1})")
    return DEFAULT_STIELTJES.gamma[j]


@dataclass(frozen=True)
class LogPolynomial:
    """Polynomial in L = log x; coeffs[j] multiplies L**j."""

    coeffs: tuple[float, ...]

    def __call__(self, L):
        acc = np.zeros_like(np.asarray(L, dtype=np.float64))
        for c in reversed(self.coeffs):  # Horner in place: no temporary per step
            acc *= L
            acc += c
        if np.ndim(L) == 0:
            return float(acc)
        return acc


def _binomial_factors(k: int, hi: int) -> np.ndarray:
    """d_k(p^e) = C(e+k-1, k-1) for e = 0..max attainable exponent below hi."""
    e_max = hi.bit_length() - 1  # floor(log2 hi); 2^e_max <= hi
    table = [math.comb(e + k - 1, k - 1) for e in range(e_max + 2)]
    if table[e_max] > INT64_MAX:
        raise OverflowError(
            f"d_{k}(2^{e_max}) = {table[e_max]} exceeds the 64-bit table range"
        )
    return np.array([min(t, INT64_MAX) for t in table], dtype=np.int64)


def _sieve_chunk(out: np.ndarray, lo: int, k: int, primes: np.ndarray,
                 binom: np.ndarray, limit: np.ndarray) -> None:
    """Fill `out` with d_k(n) for n = lo, lo+1, ... by strided passes per prime.

    For each p the multiples of p form the view out[start::p]; the exponent
    of p gains 1 at every (p^e/p)-th element of that view for each e >= 2.
    `smooth` collects the part of n made of the sieving primes, so n/smooth
    is 1 or one prime above them.
    """
    size = out.size
    out.fill(1)
    smooth = np.ones(size, dtype=np.int64)
    for p in primes.tolist():
        start = (-lo) % p
        if start >= size:
            continue
        view = out[start::p]
        exp = np.ones(view.size, dtype=np.intp)
        smooth[start::p] *= p
        pe = p * p
        start_e = (-lo) % pe
        while start_e < size:
            exp[(start_e - start) // p :: pe // p] += 1
            smooth[start_e::pe] *= p
            pe *= p
            start_e = (-lo) % pe
        if np.any(view > limit[exp]):
            raise OverflowError("divisor value exceeds the 64-bit range")
        view *= binom[exp]
    big = smooth != np.arange(lo, lo + size, dtype=np.int64)
    if np.any(out[big] > INT64_MAX // k):
        raise OverflowError("divisor value exceeds the 64-bit range")
    np.multiply(out, k, out=out, where=big)


def sieve_dk(lo: int, hi: int, k: int) -> DivisorTable:
    """Exact d_k(n) for n in [lo, hi] by a segmented, strided prime-power sieve.

    Each n picks up the factor C(e+k-1, k-1) for every prime power p^e
    exactly dividing it with p <= sqrt(hi), and the factor k when a prime
    above sqrt(hi) is left over. Overflow of the 64-bit value type raises
    instead of wrapping.
    """
    if lo < 1 or lo > hi:
        raise ValueError(f"invalid range [{lo}, {hi}]")
    if k < 2:
        raise ValueError("divisor order k must be >= 2")
    primes = primes_upto(math.isqrt(hi))
    binom = _binomial_factors(k, hi)
    limit = INT64_MAX // binom  # a value above limit[e] overflows times binom[e]
    values = np.empty(hi - lo + 1, dtype=np.int64)
    for a in range(lo, hi + 1, _SIEVE_CHUNK):
        _sieve_chunk(values[a - lo : a - lo + _SIEVE_CHUNK], a, k, primes, binom, limit)
    return DivisorTable(lo=lo, values=values, k=k)


def _series_coeffs(order: int) -> list[float]:
    """Taylor coefficients of w*zeta(1+w) = 1 + g0*w - g1*w^2 + (g2/2)*w^3 - ..."""
    g = [1.0]
    for n in range(1, order + 1):
        g.append((-1.0) ** (n - 1) * float(DEFAULT_STIELTJES.gamma[n - 1]) / math.factorial(n - 1))
    return g


def _series_power(g: list[float], k: int, order: int) -> list[float]:
    """Coefficients of g(w)^k truncated at w^order, fixed summation order."""
    acc = [1.0] + [0.0] * order
    for _ in range(k):
        nxt = [0.0] * (order + 1)
        for i in range(order + 1):
            s = 0.0
            for j in range(i + 1):
                s += acc[j] * g[i - j]
            nxt[i] = s
        acc = nxt
    return acc


def residue_polynomial(k: int) -> LogPolynomial:
    """The degree-(k-1) polynomial q with Res_{s=1} zeta(s)^k x^{s-1} = q(log x).

    Writing s = 1+w, the residue is the w^(k-1) coefficient of
    (w*zeta(1+w))^k * x^w; expanding x^w = sum L^j w^j / j! gives
    q(L) = sum_j a_{k-1-j} L^j / j! with a_i the series coefficients of
    (w*zeta(1+w))^k, which need gamma_0..gamma_{k-2}.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k - 2 >= len(DEFAULT_STIELTJES.gamma):
        raise ValueError(
            f"residue of zeta^{k} needs gamma_0..gamma_{k-2}; "
            f"only {len(DEFAULT_STIELTJES.gamma)} constants stored"
        )
    a = _series_power(_series_coeffs(k - 1), k, k - 1)
    coeffs = tuple(a[k - 1 - j] / math.factorial(j) for j in range(k))
    return LogPolynomial(coeffs)


def summatory_polynomial(q: LogPolynomial) -> LogPolynomial:
    """P with d/dx [x * P(log x)] = q(log x), i.e. P + P' = q.

    x*P(log x) is then the main term of the summatory function whose
    density is q(log x).
    """
    c = list(q.coeffs)
    p = [0.0] * len(c)
    for m in range(len(c) - 1, -1, -1):
        p[m] = c[m] - (m + 1) * p[m + 1] if m + 1 < len(c) else c[m]
    return LogPolynomial(tuple(p))


@dataclass(frozen=True)
class BalancedSequence(Window):
    """f(n) = d_k(n) - q_k(log n) on the window ]N-H, 2N+H], q_k the residue polynomial.

    lo = N-H+1 and len(values) = N+2H; adding back q_k(log n) must
    reconstruct the integer divisor values.
    """

    N: int
    H: int

    def __post_init__(self):
        if self.lo != self.N - self.H + 1:
            raise ValueError("window must start at N-H+1")
        if len(self.values) != self.N + 2 * self.H:
            raise ValueError("window must cover exactly ]N-H, 2N+H]")

    def truncated(self) -> np.ndarray:
        """The values on ]N, 2N], the base range of all spectral sums."""
        return self.slice(self.N, 2 * self.N)


def balanced_sequence(
    table: DivisorTable, poly: LogPolynomial, N: int, H: int
) -> BalancedSequence:
    """Pointwise d_k(n) - poly(log n) on ]N-H, 2N+H] from a covering table."""
    lo, hi = N - H + 1, 2 * N + H
    if not table.covers(lo, hi):
        raise ValueError(
            f"table [{table.lo}, {table.hi}] does not cover ]{N-H}, {2*N+H}]"
        )
    n = np.arange(lo, hi + 1, dtype=np.float64)
    vals = poly(np.log(n, out=n))
    # the ufunc casts int64 to float64 as astype does, but one buffer at a time
    np.subtract(table.slice(lo - 1, hi), vals, out=vals)
    return BalancedSequence(lo=lo, values=vals, N=N, H=H)


def balanced_window(N: int, H: int, k: int = 3) -> BalancedSequence:
    """Sieve, build the residue polynomial, and subtract, in one step."""
    table = sieve_dk(max(N - H + 1, 1), 2 * N + H, k)
    return balanced_sequence(table, residue_polynomial(k), N, H)


_MAGIC = b"DKT1"
_HEADER = struct.Struct("<4sqqi")  # magic, lo, length, k: 24 bytes


def save_table(table: DivisorTable, path) -> None:
    """Flat little-endian binary layout: 24-byte header then int64 values."""
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(_MAGIC, table.lo, len(table.values), table.k))
        np.ascontiguousarray(table.values, dtype="<i8").tofile(fh)


def load_table(path) -> DivisorTable:
    """Read a save_table file: the header, then the payload in one int64 read."""
    with open(path, "rb") as fh:
        head = fh.read(_HEADER.size)
        if len(head) < _HEADER.size:
            raise ValueError(f"{path}: truncated table file")
        magic, lo, length, k = _HEADER.unpack(head)
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a divisor table file")
        if os.fstat(fh.fileno()).st_size != _HEADER.size + 8 * length:
            raise ValueError(f"{path}: length field does not match file size")
        values = np.fromfile(fh, dtype="<i8").astype(np.int64, copy=False)
    return DivisorTable(lo=lo, values=values, k=k)
