"""Short-interval sums and the Selberg / modified Selberg integrals.

J(N,H) sums, over x in ]N, 2N], the squared deviation of the sharp short
sum over ]x, x+H] from the mean value H*q(log x); the modified integral
replaces the sharp window by the triangular Cesaro weight 1 - |n-x|/H.
Both integrals admit an O(1)-per-x sliding evaluation (the triangle is a
box convolved with a box) and an O(NH) brute evaluation kept as an oracle.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._util import compensated_sum
from .arith_core import LogPolynomial, Window

MEAN_MODES = ("residue", "window-poly")
METHODS = ("sliding", "brute")
BRUTE_CHUNK_ELEMENTS = 1 << 20  # window elements one brute triangle product copies
BOX_BLOCK = 1 << 16  # window sums one in-place prefix difference writes


@dataclass(frozen=True)
class IntegralReport:
    """One (N, H) cell: integral values and their normalized ratios."""

    N: int
    H: int
    J: float | None
    J_tilde: float | None
    ratio_J: float | None
    ratio_J_tilde: float | None
    lower_ratio: float | None
    method: str
    mean_mode: str

    def csv_row(self) -> str:
        def fmt(v):
            if v is None:
                return ""
            if isinstance(v, float):
                return f"{v:.17g}"
            return str(v)

        return ",".join(fmt(v) for v in astuple(self))


CSV_HEADER = ",".join(f.name for f in fields(IntegralReport))


def _report(N, H, J, J_tilde, method, mean_mode) -> IntegralReport:
    for v, name in ((J, "J"), (J_tilde, "J_tilde")):
        if v is not None and not (v >= 0 and math.isfinite(v)):
            raise ArithmeticError(f"{name} must be finite and nonnegative, got {v}")
    return IntegralReport(
        N=N,
        H=H,
        J=J,
        J_tilde=J_tilde,
        ratio_J=None if J is None else J / (N * H),
        ratio_J_tilde=None if J_tilde is None else J_tilde / (N * H),
        lower_ratio=None if J is None else J / (N * H * math.log(N) ** 4),
        method=method,
        mean_mode=mean_mode,
    )


def short_sum(f: Window, x: int, H: int) -> float:
    """Sharp short sum of f over ]x, x+H]."""
    if H < 1:
        raise ValueError("H must be >= 1")
    return float(np.sum(f.slice(x, x + H)))


def cesaro_sum(f: Window, x: int, H: int) -> float:
    """Triangle-weighted sum sum_{|n-x|<=H} (1 - |n-x|/H) f(n)."""
    if H < 1:
        raise ValueError("H must be >= 1")
    vals = f.slice(x - H - 1, x + H)
    w = 1.0 - np.abs(np.arange(-H, H + 1, dtype=np.float64)) / H
    return float(np.dot(w, vals))


def mean_value(x: int, H: int, poly: LogPolynomial) -> float:
    """Short-interval mean value H * poly(log x)."""
    if x < 1 or H < 1:
        raise ValueError("x and H must be >= 1")
    return H * poly(math.log(x))


def _deviation_inputs(f: Window, x_first: int, x_last: int, H: int, poly, mean_mode: str,
                      method: str, n_first: int):
    """Check one deviation call, which reads f on [n_first, x_last + H].

    Returns the summed values g and the subtracted mean at each x. In
    "window-poly" mode g is f alone and the mean is 0; in "residue" mode g
    is f + poly(log n) and the mean is H * poly(log x).
    """
    if H < 1:
        raise ValueError("H must be >= 1")
    if x_last < x_first:
        raise ValueError("empty x range")
    if method not in METHODS:
        raise ValueError(f"method must be one of {METHODS}")
    if mean_mode not in MEAN_MODES:
        raise ValueError(f"mean_mode must be one of {MEAN_MODES}")
    if not f.covers(n_first, x_last + H):
        raise ValueError(f"window [{f.lo}, {f.hi}] does not cover [{n_first}, {x_last + H}]")
    if mean_mode == "window-poly" or poly is None:
        return np.asarray(f.values, dtype=np.float64), 0.0
    # one log per n from min(x_first, f.lo) to f.hi serves both g and the mean
    # (np.log is elementwise, so a slice has the bits of a separate call);
    # x_first is f.lo - 1 when a box deviation starts at the window's edge
    lo = min(x_first, f.lo)
    logs = np.arange(lo, f.hi + 1, dtype=np.float64)
    np.log(logs, out=logs)
    g = poly(logs[f.lo - lo :])
    g += f.values
    mean = poly(logs[x_first - lo : x_last + 1 - lo])
    mean *= H
    return g, mean


def _box_sums(g: np.ndarray, i0: int, count: int, H: int) -> np.ndarray:
    """The sums of g over the index windows [i, i+H) for i = i0 .. i0+count-1.

    The prefix sum always starts at g[0], so no window's rounding depends on i0.
    Sum i reads prefix entries i0 + i and i0 + H + i and is written at index i,
    over entries no later sum reads. numpy computes an overlapping ufunc as if
    its inputs were copied first; the blocks bound what such a copy costs.
    """
    prefix = np.empty(len(g) + 1)
    prefix[0] = 0.0
    np.cumsum(g, out=prefix[1:])
    for k in range(0, count, BOX_BLOCK):
        e = min(k + BOX_BLOCK, count)
        np.subtract(prefix[i0 + H + k : i0 + H + e], prefix[i0 + k : i0 + e], out=prefix[k:e])
    return prefix[:count]


def box_deviations(
    f: Window,
    x_first: int,
    x_last: int,
    H: int,
    poly: LogPolynomial | None = None,
    mean_mode: str = "residue",
    method: str = "sliding",
) -> np.ndarray:
    """Deviation profile D(x) = sum_{x<n<=x+H} (f+poly(log.))(n) - mean(x).

    mean(x) is H*poly(log x) in "residue" mode; in "window-poly" mode the
    subtracted mean is the windowed polynomial sum itself, so D reduces to
    the sharp short sum of f alone.
    """
    g, mean = _deviation_inputs(f, x_first, x_last, H, poly, mean_mode, method, x_first + 1)
    count, i0 = x_last - x_first + 1, x_first + 1 - f.lo
    if method == "sliding":
        sums = _box_sums(g, i0, count, H)
    else:
        # row k of the view is the window ]x, x+H] of x = x_first + k; a basic
        # slice of it copies nothing
        sums = sliding_window_view(g, H)[i0 : i0 + count].sum(axis=1)
    sums -= mean
    return sums


def triangle_deviations(
    f: Window,
    x_first: int,
    x_last: int,
    H: int,
    poly: LogPolynomial | None = None,
    mean_mode: str = "residue",
    method: str = "sliding",
) -> np.ndarray:
    """Deviation profile with the Cesaro weight in place of the sharp window.

    The sliding method stacks two running box sums: with S(y) the sharp sum
    over ]y, y+H], the triangle sum at x is (1/H) * sum_{b=1..H} S(x-b).
    """
    g, mean = _deviation_inputs(f, x_first, x_last, H, poly, mean_mode, method, x_first - H)
    count = x_last - x_first + 1
    if method == "sliding":
        # S(y) for y in [x_first - H, x_last - 1], then the sum of S(y) for
        # y in [x - H, x - 1]; rebinding g frees a residue g before the second prefix
        g = _box_sums(g, x_first - H + 1 - f.lo, count + H - 1, H)
        sums = _box_sums(g, 0, count, H)
        sums /= H
    else:
        # row k of the view is the window [x-H, x+H] of x = x_first + k; the
        # product runs one chunk of rows at a time, so any copy numpy makes of
        # its operand stays O(chunk * H) elements
        w = 1.0 - np.abs(np.arange(-H, H + 1, dtype=np.float64)) / H
        i0 = x_first - H - f.lo
        rows = sliding_window_view(g, 2 * H + 1)[i0 : i0 + count]
        step = max(1, BRUTE_CHUNK_ELEMENTS // (2 * H + 1))
        sums = np.empty(count)
        for k in range(0, count, step):
            sums[k : k + step] = rows[k : k + step] @ w
    sums -= mean
    return sums


def _guard_pair(f: Window, N: int, H: int):
    if N < 1 or H < 1:
        raise ValueError("N and H must be >= 1")
    if H > N // 4:
        raise ValueError(f"H={H} too large for N={N} (need H <= N/4)")
    if not f.covers(N - H + 1, 2 * N + H):
        raise ValueError(f"window does not cover ]{N-H}, {2*N+H}]")


def selberg_integral(
    f: Window,
    N: int,
    H: int,
    poly: LogPolynomial | None = None,
    method: str = "sliding",
    mean_mode: str = "residue",
) -> IntegralReport:
    """J(N,H): mean square of the sharp short-sum deviation over x in ]N, 2N]."""
    _guard_pair(f, N, H)
    dev = box_deviations(f, N + 1, 2 * N, H, poly, mean_mode, method)
    J = compensated_sum(np.square(dev, out=dev))
    return _report(N, H, J, None, method, mean_mode)


def modified_selberg_integral(
    f: Window,
    N: int,
    H: int,
    poly: LogPolynomial | None = None,
    method: str = "sliding",
    mean_mode: str = "residue",
) -> IntegralReport:
    """J~(N,H): mean square of the Cesaro-weighted deviation over x in ]N, 2N]."""
    _guard_pair(f, N, H)
    dev = triangle_deviations(f, N + 1, 2 * N, H, poly, mean_mode, method)
    Jt = compensated_sum(np.square(dev, out=dev))
    return _report(N, H, None, Jt, method, mean_mode)


def integral_pair(
    f: Window,
    N: int,
    H: int,
    poly: LogPolynomial | None = None,
    method: str = "sliding",
    mean_mode: str = "residue",
) -> IntegralReport:
    """Both integrals for one (N, H) cell, merged into a single report."""
    a = selberg_integral(f, N, H, poly, method, mean_mode)
    b = modified_selberg_integral(f, N, H, poly, method, mean_mode)
    return _report(N, H, a.J, b.J_tilde, method, mean_mode)
