"""Correlations, kernel identities, and Fourier-side checks.

Everything here works with exponential sums truncated to the base range
]N, 2N]. The two weighted energies

    int |f^|^2 |u^|^2 da          (sharp window squared)
    int |f^|^2 |u^|^4 / H^2 da    (Fejer-type weight)

are evaluated exactly through correlation sums: the weights are
trigonometric polynomials whose Fourier coefficients are the box and
triangle autocorrelations, so no quadrature enters; the range-classified
split of the sharp-window energy pairs the correlation with interval indicators.
Quadrature survives only as an independent cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import MAX_H_EXPONENT, at_most_power, compensated_sum, next_pow2
from .arith_core import BalancedSequence
# selberg_integral is unused here; the benchmark's tracer test reads this binding
from .selberg import IntegralReport, selberg_integral  # noqa: F401

WEIGHTS = ("box2", "fejer2")
KERNEL_SAMPLES = (1 << 16) + 1  # fixed kernel grid of the three-range majorization check


@dataclass(frozen=True)
class CorrelationTable:
    """C(h) for h in [-hmax, hmax]; values[h + hmax] holds shift h.

    base_lo/base_hi record the half-open index range of the outer sum
    within the source array (None when the whole array was used, as for
    the weight correlations).
    """

    hmax: int
    values: np.ndarray
    base_lo: int | None = None
    base_hi: int | None = None

    def value(self, h: int):
        if abs(h) > self.hmax:
            raise ValueError(f"shift {h} outside [-{self.hmax}, {self.hmax}]")
        return self.values[h + self.hmax]

    def window(self, hmax: int) -> np.ndarray:
        """The values for shifts in [-hmax, hmax], a view of the table."""
        if not 0 <= hmax <= self.hmax:
            raise ValueError(f"shift range {hmax} outside [0, {self.hmax}]")
        return self.values[self.hmax - hmax : self.hmax + hmax + 1]


def dirichlet_kernel_abs(alpha, H: int):
    """|sum_{h<=H} e(h*alpha)| = |sin(pi*H*alpha) / sin(pi*alpha)|, = H at alpha = 0."""
    if H < 1:
        raise ValueError("H must be >= 1")
    a = np.asarray(alpha, dtype=np.float64)
    s = np.abs(np.sin(np.pi * a))
    num = np.abs(np.sin(np.pi * H * a))
    out = np.divide(num, s, out=np.full_like(num, float(H)), where=s != 0.0)
    if a.ndim == 0:
        return float(out)
    return out


def correlation(
    f: np.ndarray,
    hmax: int,
    method: str = "fft",
    base: tuple[int, int] | None = None,
) -> CorrelationTable:
    """Shifted autocorrelation C(h) = sum f(n) f(n-h) of a real sequence.

    The outer index n runs over `base` (a half-open index range, default
    the whole array); the inner index n-h is clipped to the array. With
    the default base both indices live in the same range, the convention
    of the exact energy identities. With a proper sub-range the table is
    one-sided: C(-h) need not equal C(h).

    The fft method pads to the next power of two L at or above twice the
    length, so no circular wraparound can reach |h| <= hmax; it must agree
    with the direct double loop. Without a base it is irfft(|rfft(f, L)|^2, L);
    with one, a single rfft pair, irfft(rfft(f_o, L) * conj(rfft(f, L)), L),
    where f_o is f zeroed outside the base.
    """
    f = np.asarray(f)
    if not np.isrealobj(f):
        raise ValueError("correlation takes a real sequence")
    M = len(f)
    if not 0 <= hmax < M:
        raise ValueError(f"hmax={hmax} out of range for length {M}")
    b0, b1 = (0, M) if base is None else base
    if not 0 <= b0 < b1 <= M:
        raise ValueError(f"invalid base range [{b0}, {b1}) for length {M}")
    if method == "direct":
        vals = np.zeros(2 * hmax + 1)
        for h in range(-hmax, hmax + 1):
            i0 = max(b0, h)
            i1 = min(b1, M + h)
            if i0 < i1:
                vals[hmax + h] = np.dot(f[i0:i1], f[i0 - h : i1 - h])
    elif method == "fft":
        L = next_pow2(2 * M)
        if base is None:
            ac = np.fft.irfft(np.abs(np.fft.rfft(f, L)) ** 2, L)
        else:
            fo = np.concatenate(
                [np.zeros(b0, dtype=f.dtype), f[b0:b1], np.zeros(M - b1, dtype=f.dtype)]
            )
            ac = np.fft.irfft(np.fft.rfft(fo, L) * np.conj(np.fft.rfft(f, L)), L)
        vals = np.concatenate([ac[L - hmax : L], ac[: hmax + 1]])
    else:
        raise ValueError("method must be 'direct' or 'fft'")
    lo, hi = (None, None) if base is None else (b0, b1)
    return CorrelationTable(hmax=hmax, values=vals, base_lo=lo, base_hi=hi)


def box_autocorrelation(H: int) -> CorrelationTable:
    """Correlation of the indicator of [1, H]; equals max(H-|h|, 0)."""
    if H < 1:
        raise ValueError("H must be >= 1")
    ones = np.ones(H)
    vals = np.convolve(ones, ones)  # even weight: convolution = correlation
    return CorrelationTable(hmax=H - 1, values=vals)


def triangle_autocorrelation(H: int) -> CorrelationTable:
    """Correlation of the Cesaro weight max(1-|a|/H, 0); support |h| <= 2H-2."""
    if H < 1:
        raise ValueError("H must be >= 1")
    w = 1.0 - np.abs(np.arange(-(H - 1), H, dtype=np.float64)) / H
    vals = np.convolve(w, w)
    return CorrelationTable(hmax=2 * H - 2, values=vals)


def spectral_energy(f: np.ndarray, H: int, weight: str = "box2") -> float:
    """Weighted energy of f^ via the exact correlation route.

    box2 gives int |f^|^2 |u^|^2, fejer2 gives int |f^|^2 |u^|^4 / H^2;
    both reduce to sum_h W(h) C_f(-h) with W the box (resp. triangle)
    autocorrelation, exact up to rounding.
    """
    if weight == "box2":
        wtable = box_autocorrelation(H)
    elif weight == "fejer2":
        wtable = triangle_autocorrelation(H)
    else:
        raise ValueError(f"weight must be one of {WEIGHTS}")
    f = np.asarray(f)
    hm = min(wtable.hmax, len(f) - 1)
    cf = correlation(f, hm, method="fft")
    w = wtable.values[wtable.hmax - hm : wtable.hmax + hm + 1]
    prod = w * cf.values[::-1]
    return compensated_sum(prod)


def _interval_kernel(intervals, n: int) -> np.ndarray:
    """Fourier coefficients 0..n-1 of the indicator of the union of [a, b] and [-b, -a].

    kernel(0) = 2 * sum(b - a), kernel(d) = sum (sin(2*pi*d*b) - sin(2*pi*d*a)) / (pi*d).
    """
    d = np.arange(1, n, dtype=np.float64)
    acc = np.zeros(n - 1)
    for a, b in intervals:
        acc += np.sin(2.0 * np.pi * b * d)
        acc -= np.sin(2.0 * np.pi * a * d)
    return np.concatenate(([2.0 * sum(b - a for a, b in intervals)], acc / (np.pi * d)))


def _pair(kernel: np.ndarray, coeffs: np.ndarray) -> float:
    """sum over |d| < len(coeffs) of kernel(d) * coeffs(d); both are even in d, given for d >= 0."""
    return compensated_sum(np.concatenate(([kernel[0] * coeffs[0]], 2.0 * kernel[1:] * coeffs[1:])))


def _band(ac: np.ndarray, c: float) -> float:
    """int_{-c}^{c} |f^|^2 from ac, the real autocorrelation of f at every lag d >= 0."""
    return _pair(_interval_kernel([(0.0, c)], len(ac)), ac)


def band_energy(f: np.ndarray, c: float) -> float:
    """int_{-c}^{c} |f^(alpha)|^2 d(alpha), exactly, from the correlation table.

    The one-interval case of _interval_kernel: kernel(0) = 2c and
    kernel(d) = sin(2*pi*c*d) / (pi*d), paired with the correlation at
    every lag in O(range) time.
    """
    if not 0.0 <= c <= 0.5:
        raise ValueError("band half-width c must lie in [0, 1/2]")
    f = np.asarray(f)
    if c == 0.0:
        return 0.0
    table = correlation(f, len(f) - 1)
    return _band(table.values[table.hmax :], c)


def _bisect(pred, inside: np.ndarray, outside: np.ndarray):
    """Shrink each bracket of nonnegative floats to adjacent floats, keeping pred
    true at inside and false at outside.

    Midpoints are arithmetic. A midpoint below 2^-32 of the bracket's larger
    starting end is replaced by the midpoint of the two ends' bit patterns
    (nonnegative floats order as their int64 views), so a bracket that
    closes in on 0 takes at most 64 more steps instead of one per binade.
    """
    floor = np.ldexp(np.maximum(inside, outside), -32)
    while True:
        mid = 0.5 * (inside + outside)
        deep = mid < floor
        if deep.any():
            a, b = inside.view(np.int64), outside.view(np.int64)
            mid = np.where(deep, (a + (b - a) // 2).view(np.float64), mid)
        moving = (mid != inside) & (mid != outside)
        if not moving.any():
            return inside, outside
        p = pred(mid)
        inside = np.where(moving & p, mid, inside)
        outside = np.where(moving & ~p, mid, outside)


def kernel_intervals(H: int, c: float) -> np.ndarray:
    """The alpha-intervals [a, b] of [0, 1/2] on which |u^(alpha)| > c, as rows.

    One row per kernel lobe [k/H, (k+1)/H] whose peak exceeds c, so rows are
    sorted and disjoint. log|u^| is concave on a lobe: the main lobe peaks at
    alpha = 0, every other peak is bisected on the sign of the derivative,
    then each side on |u^| > c to adjacent floats, so |u^| > c at each
    endpoint and <= c at the float just outside. Needs c above the rounding
    of |u^| at the lobe edges; empty for c >= H.
    """
    if c <= 0.0:
        raise ValueError("threshold c must be positive")
    if c >= H:
        return np.empty((0, 2))
    above = lambda a: dirichlet_kernel_abs(a, H) > c
    lo = np.arange(0, (H + 1) // 2) / H
    hi = np.minimum(np.arange(1, (H + 1) // 2 + 1) / H, 0.5)

    def rising(a):  # d/da log|u^| > 0, i.e. H cot(pi H a) > cot(pi a)
        x, y = np.pi * H * a, np.pi * a
        return (H * np.cos(x) * np.sin(y) - np.cos(y) * np.sin(x)) * np.sin(x) > 0.0

    peak = np.concatenate(([0.0], _bisect(rising, lo[1:], hi[1:])[0]))
    keep = above(peak)
    lo, hi, peak = lo[keep], hi[keep], peak[keep]
    left = _bisect(above, peak, lo)[0]
    right = np.where(above(hi), hi, _bisect(above, peak, hi)[0])
    return np.column_stack([left, right])


def _in_intervals(alphas: np.ndarray, iv: np.ndarray) -> np.ndarray:
    """Membership in the union of the rows [a, b]; index -1 hits the sentinel."""
    i = np.searchsorted(iv[:, 0], alphas, side="right") - 1
    return alphas <= np.append(iv[:, 1], -1.0)[i]


def kernel_localization_check(H: int, eps: float, grid_m: int) -> int:
    """Count points of the inclusive grid of grid_m points over [-1/2, 1/2]
    with |u^(alpha)| > [eps*H] but |alpha| >= 1/(2*[eps*H]).

    Large kernel values can only occur near alpha = 0, so the count must
    be zero for every admissible (H, eps).
    """
    if not 0.0 < eps < 1.0:
        raise ValueError("eps must lie in (0, 1)")
    m = math.floor(eps * H)
    if m < 1:
        raise ValueError("[eps*H] must be >= 1")
    if grid_m < 2:
        raise ValueError("grid must have at least 2 points")
    alphas = np.linspace(-0.5, 0.5, grid_m)
    bad = (dirichlet_kernel_abs(alphas, H) > m) & (np.abs(alphas) >= 1.0 / (2.0 * m))
    return int(np.count_nonzero(bad))


@dataclass(frozen=True)
class CorrelationRouteReport:
    """Direct integrals against their correlation-sum counterparts."""

    N: int
    H: int
    j_direct: float
    j_corr: float
    jt_direct: float
    jt_corr: float
    diff_j: float
    diff_jt: float
    norm_diff_j: float
    norm_diff_jt: float


def _require_modest_h(N: int, H: int, label: str) -> None:
    if not at_most_power(H, N, MAX_H_EXPONENT):
        raise ValueError(f"{label}: H={H} exceeds N^0.49 at N={N}")


def _full_lags(ac: CorrelationTable, N: int, label: str) -> np.ndarray:
    """Lags 0..N-1 of ac, which must be autocorrelation(f) of an f with f.N = N."""
    if ac.hmax != N - 1 or ac.base_lo is not None:
        raise ValueError(f"{label}: ac is not the autocorrelation of f on ]N, 2N] at every lag")
    return ac.values[ac.hmax :]


def autocorrelation(f: BalancedSequence) -> CorrelationTable:
    """The correlation of f on ]N, 2N] with itself, at every lag 0..N-1.

    gallagher_check and three_range_split read it; one table serves every H.
    """
    return correlation(f.truncated(), f.N - 1)


def route_correlation(f: BalancedSequence) -> CorrelationTable:
    """The correlation of f with its outer index on ]N, 2N], for shifts up to 2H - 2.

    correlation_route_check pairs it with the weights of H; the reach
    2*f.H - 2 covers the triangle weight of every H up to f.H. ]N, 2N] is
    the index range [H, N + H) of f.values.
    """
    return correlation(f.values, 2 * f.H - 2, base=(f.H, f.N + f.H))


def correlation_route_check(direct: IntegralReport, cf: CorrelationTable) -> CorrelationRouteReport:
    """Both integrals, both routes; discrepancies are reported per H^3.

    direct is the direct route, integral_pair(f, N, H) without a
    polynomial, and gives N and H; cf is route_correlation(f) of an f with
    f.H >= H (its values do not depend on the reach). The correlation C_f
    has its outer index restricted to ]N, 2N] and the inner one clipped to
    the available window, so the two routes differ by range-edge products;
    that discrepancy is the H^3-order boundary term being tracked.
    """
    N, H = direct.N, direct.H
    _require_modest_h(N, H, "correlation_route_check")
    if cf.base_lo is None or cf.base_hi - cf.base_lo != N:
        raise ValueError("correlation_route_check: cf is not based on ]N, 2N]")
    j_direct, jt_direct = direct.J, direct.J_tilde
    cu = box_autocorrelation(H)
    j_corr = compensated_sum(cu.values * cf.window(cu.hmax))
    cw = triangle_autocorrelation(H)
    jt_corr = compensated_sum(cw.values * cf.window(cw.hmax))
    h3 = float(H) ** 3
    return CorrelationRouteReport(
        N=N,
        H=H,
        j_direct=j_direct,
        j_corr=j_corr,
        jt_direct=jt_direct,
        jt_corr=jt_corr,
        diff_j=abs(j_direct - j_corr),
        diff_jt=abs(jt_direct - jt_corr),
        norm_diff_j=abs(j_direct - j_corr) / h3,
        norm_diff_jt=abs(jt_direct - jt_corr) / h3,
    )


@dataclass(frozen=True)
class GallagherReport:
    """Low-frequency energy against the modified integral plus h^3."""

    N: int
    h: int
    band: float
    j_tilde: float
    lhs: float
    rhs: float
    ratio: float


def gallagher_check(direct: IntegralReport, ac: CorrelationTable) -> GallagherReport:
    """Compare h^2 * int_{|a|<=1/(2h)} |f^|^2 with J~(N,h) + h^3.

    N, h and J~ come from direct, integral_pair(f, N, h) without a
    polynomial, and the band energy from ac, autocorrelation(f).
    """
    N, h = direct.N, direct.H
    if h < 10:
        raise ValueError("h must be >= 10 (large-h regime)")
    _require_modest_h(N, h, "gallagher_check")
    band = _band(_full_lags(ac, N, "gallagher_check"), 1.0 / (2.0 * h))
    jt = direct.J_tilde
    lhs = h * h * band
    rhs = jt + float(h) ** 3
    return GallagherReport(
        N=N, h=h, band=band, j_tilde=jt, lhs=lhs, rhs=rhs, ratio=lhs / rhs
    )


@dataclass(frozen=True)
class ThreeRangeReport:
    """The classified splitting of the sharp-window energy."""

    N: int
    H: int
    eps: float
    E: float
    grid_m: int  # kernel points the pointwise majorization was checked on
    t1: float
    t2: float
    t3: float
    h_cubed: float
    majorant: float
    j_direct: float
    slack: float
    majorization_violations: int


def three_range_split(
    direct: IntegralReport, ac: CorrelationTable, eps: float, E: float
) -> ThreeRangeReport:
    """Split int |f^|^2 |u^|^2 by kernel size and majorize each range.

    alpha is classified by |u^|: at most [eps*H], between [eps*H] and E*H,
    or above E*H; the pieces are bounded pointwise by eps^2 H^2 |f^|^2,
    E^2 H^2 |f^|^2 and |f^|^2 |u^|^4 / (E^2 H^2), and the slack
    (T1+T2+T3+H^3) / J is reported. The upper ranges are unions of
    kernel_intervals, so each piece pairs the full correlation of f with
    interval kernels, exactly: T1 and T2 by Parseval minus interval
    energies, T3 through the kernel convolved with the coefficients of
    |u^|^4 (the box autocorrelation convolved with itself). N, H and J
    come from direct, integral_pair(f, N, H) without a polynomial, and ac
    is autocorrelation(f).
    """
    N, H = direct.N, direct.H
    if not 0.0 < eps < E <= 1.0:
        raise ValueError("need 0 < eps < E <= 1")
    m = math.floor(eps * H)
    if m < 1:
        raise ValueError("[eps*H] must be >= 1")
    EH = E * H
    iv2, iv3 = kernel_intervals(H, m), kernel_intervals(H, EH)
    ac = _full_lags(ac, N, "three_range_split")
    L, q = len(ac), 2 * H - 2
    k2, k3 = _interval_kernel(iv2, L), _interval_kernel(iv3, L + q)
    box = box_autocorrelation(H).values
    k3w = np.convolve(np.concatenate([k3[q:0:-1], k3]), np.convolve(box, box), "valid")
    e2, e3 = _pair(k2, ac), _pair(k3[:L], ac)
    t1 = eps * eps * H * H * (float(ac[0]) - e2)
    t2 = EH * EH * (e2 - e3)
    t3 = _pair(k3w, ac) / (EH * EH)
    # per-point majorization, in rounding-monotone form, on a fixed grid over
    # [0, 1/2] and on each interval endpoint with the float just outside it
    ends = np.concatenate([iv2, iv3])
    alphas = np.concatenate([np.linspace(0.0, 0.5, KERNEL_SAMPLES), ends.ravel(),
                             np.clip(np.nextafter(ends, [-1.0, 1.0]), 0.0, 0.5).ravel()])
    u = dirichlet_kernel_abs(alphas, H)
    in3 = _in_intervals(alphas, iv3)
    in2 = _in_intervals(alphas, iv2) & ~in3
    u1, u2, u3 = u[~in2 & ~in3], u[in2], u[in3]
    violations = int(
        np.count_nonzero(u1 * u1 > float(m) * float(m))
        + np.count_nonzero(u2 * u2 > EH * EH)
        + np.count_nonzero(u3 * EH > u3 * u3)
    )
    j_direct = direct.J
    h3 = float(H) ** 3
    majorant = t1 + t2 + t3 + h3
    slack = majorant / j_direct if j_direct > 0 else math.inf
    return ThreeRangeReport(
        N=N, H=H, eps=eps, E=E, grid_m=len(alphas), t1=t1, t2=t2, t3=t3,
        h_cubed=h3, majorant=majorant, j_direct=j_direct, slack=slack,
        majorization_violations=violations,
    )
