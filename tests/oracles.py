"""Independent brute-force oracles the tests compare against.

Nothing here shares code paths with the package: divisor counts come from
ordered-tuple enumeration over divisor lists or from trial division,
energies and the three-range split from Riemann sums, window sums from
plain Python loops, and the Stieltjes constants from an Euler-Maclaurin
evaluation in mpmath.
"""

from __future__ import annotations

import math

import numpy as np


def divisor_lists(limit: int) -> list[list[int]]:
    """divs[n] = sorted divisors of n, for all n <= limit."""
    divs: list[list[int]] = [[] for _ in range(limit + 1)]
    for a in range(1, limit + 1):
        for m in range(a, limit + 1, a):
            divs[m].append(a)
    return divs


def dk_by_enumeration(limit: int, k: int) -> list[int]:
    """d_k(n) for n = 1..limit by counting ordered k-tuples with product n."""
    divs = divisor_lists(limit)

    def count(n: int, parts: int) -> int:
        if parts == 1:
            return 1
        return sum(count(n // a, parts - 1) for a in divs[n])

    return [count(n, k) for n in range(1, limit + 1)]


def dk_by_factoring(n: int, k: int) -> int:
    """d_k(n) as a Python int: the product of C(e+k-1, k-1) over the prime powers
    p^e exactly dividing n, found by trial division."""
    total, p = 1, 2
    while p * p <= n:
        e = 0
        while n % p == 0:
            n //= p
            e += 1
        total *= math.comb(e + k - 1, k - 1)
        p += 1
    return total * (k if n > 1 else 1)


def d3_single(n: int) -> int:
    """d_3(n) by enumerating (a, b) with a | n, b | n/a."""
    total = 0
    a = 1
    while a * a <= n:
        if n % a == 0:
            for d in {a, n // a}:
                m = n // d
                b = 1
                while b * b <= m:
                    if m % b == 0:
                        total += 1 if b * b == m else 2
                    b += 1
        a += 1
    return total


INT64_MAX = int(np.iinfo(np.int64).max)


def _checked_multiply(out: np.ndarray, idx: np.ndarray, factors) -> None:
    cur = out[idx]
    if np.any(cur > INT64_MAX // factors):
        raise OverflowError("divisor value exceeds the 64-bit range")
    out[idx] = cur * factors


def sieve_chunk_trial_division(lo: int, hi: int, k: int, primes, binom) -> np.ndarray:
    """d_k(n) for n in [lo, hi]: each n is divided by every prime p in `primes`
    as often as p divides it, and picks up binom[e] for the exponent e found;
    a remainder above 1 is one more prime, worth k. `binom[e]` = C(e+k-1, k-1)."""
    size = hi - lo + 1
    rem = np.arange(lo, hi + 1, dtype=np.int64)
    out = np.ones(size, dtype=np.int64)
    for p in primes:
        p = int(p)
        start = (-lo) % p
        if start >= size:
            continue
        idx = np.arange(start, size, p, dtype=np.int64)
        exp = np.ones(idx.size, dtype=np.int64)
        rem[idx] //= p
        pos = np.nonzero(rem[idx] % p == 0)[0]
        while pos.size:
            sel = idx[pos]
            rem[sel] //= p
            exp[pos] += 1
            pos = pos[rem[sel] % p == 0]
        _checked_multiply(out, idx, binom[exp])
    left = np.nonzero(rem > 1)[0]
    if left.size:
        _checked_multiply(out, left, np.int64(k))
    return out


def box_sum_brute(values, lo, x, H):
    return math.fsum(float(values[n - lo]) for n in range(x + 1, x + H + 1))


def cesaro_sum_brute(values, lo, x, H):
    return math.fsum(
        (1.0 - abs(n - x) / H) * float(values[n - lo])
        for n in range(x - H, x + H + 1)
    )


def correlation_brute(f, h, base=None):
    """Double-loop correlation with outer range `base` (half-open indices)."""
    M = len(f)
    b0, b1 = (0, M) if base is None else base
    total = 0.0
    for i in range(b0, b1):
        j = i - h
        if 0 <= j < M:
            total += f[i] * np.conj(f[j])
    return total


def energy_quadrature(f, H: int, weight: str, M: int) -> float:
    """Riemann sum of |f^|^2 w(alpha) on the periodic grid j/M.

    The integrand is a trigonometric polynomial of degree < M, so the
    periodic Riemann sum is exact up to rounding.
    """
    P = np.abs(np.fft.fft(np.asarray(f, dtype=np.float64), M)) ** 2
    alphas = np.fft.fftfreq(M)
    s = np.abs(np.sin(np.pi * alphas))
    num = np.abs(np.sin(np.pi * H * alphas))
    u = np.divide(num, s, out=np.full_like(num, float(H)), where=s != 0.0)
    w = u * u if weight == "box2" else (u * u) * (u * u) / (float(H) * float(H))
    return float(np.sum(P * w)) / M


def band_quadrature(f, c: float, M: int) -> float:
    """Quadrature of |f^|^2 over [-c, c]: trapezoid on the M-point grid
    with linearly interpolated end segments. Needs c < 1/2."""
    P = np.abs(np.fft.fft(np.asarray(f, dtype=np.float64), M)) ** 2
    alphas = np.fft.fftfreq(M)
    order = np.argsort(alphas)
    a, g = alphas[order], P[order]
    inside = np.nonzero((a >= -c) & (a <= c))[0]
    i0, i1 = int(inside[0]), int(inside[-1])
    dx = 1.0 / M
    total = dx * (math.fsum(g[i0 : i1 + 1]) - 0.5 * (g[i0] + g[i1]))
    if a[i0] > -c and i0 > 0:
        gl = g[i0 - 1] + (g[i0] - g[i0 - 1]) * ((-c) - a[i0 - 1]) / dx
        total += (a[i0] + c) * 0.5 * (gl + g[i0])
    if a[i1] < c and i1 + 1 < M:
        gr = g[i1] + (g[i1 + 1] - g[i1]) * (c - a[i1]) / dx
        total += (c - a[i1]) * 0.5 * (g[i1] + gr)
    return float(total)


def three_range_grid(f, N: int, H: int, eps: float, E: float, M: int):
    """(T1, T2, T3) of the three-range split as Riemann sums on the M-point
    periodic grid, each point classified by the kernel value there.

    The classified integrands jump where |u^| crosses a cutoff, so the error
    shrinks only like 1/M; M must be far above N for a few digits.
    """
    if f.N != N:
        raise ValueError("sequence metadata does not match N")
    P = np.abs(np.fft.fft(np.asarray(f.truncated(), dtype=np.float64), M)) ** 2
    alphas = np.fft.fftfreq(M)
    s = np.abs(np.sin(np.pi * alphas))
    num = np.abs(np.sin(np.pi * H * alphas))
    u = np.divide(num, s, out=np.full_like(num, float(H)), where=s != 0.0)
    EH = E * H
    r1 = u <= math.floor(eps * H)
    r3 = u > EH
    r2 = ~r1 & ~r3
    t1 = eps * eps * H * H * math.fsum(P[r1]) / M
    t2 = EH * EH * math.fsum(P[r2]) / M
    t3 = math.fsum(P[r3] * u[r3] ** 4) / (EH * EH * M)
    return t1, t2, t3


def stieltjes_euler_maclaurin(j: int, m: int = 1000, terms: int = 12):
    """gamma_j via Euler-Maclaurin in mpmath (independent of stored digits).

    gamma_j = sum_{n<=m} f(n) - (log m)^(j+1)/(j+1) - f(m)/2
              - sum_r B_{2r}/(2r)! f^(2r-1)(m),   f(x) = (log x)^j / x.
    """
    import mpmath as mp

    mp.mp.dps = 60
    logm = mp.log(m)
    total = mp.mpf(0)
    for n in range(1, m + 1):
        total += mp.log(n) ** j / n
    total -= logm ** (j + 1) / (j + 1)
    total -= logm**j / (2 * m)
    # f^(d)(x) = sum_i a[i] (log x)^i / x^(d+1); a evolves by
    # a'[i] = (i+1) a[i+1] - (d+1) a[i]
    a = [mp.mpf(0)] * (j + 1)
    a[j] = mp.mpf(1)
    d = 0
    derivs = {}
    for d in range(1, 2 * terms):
        a = [
            (i + 1) * (a[i + 1] if i + 1 <= j else mp.mpf(0)) - d * a[i]
            for i in range(j + 1)
        ]
        derivs[d] = sum(a[i] * logm**i for i in range(j + 1)) / mp.mpf(m) ** (d + 1)
    for r in range(1, terms + 1):
        total -= mp.bernoulli(2 * r) / mp.factorial(2 * r) * derivs[2 * r - 1]
    return total
