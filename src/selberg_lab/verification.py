"""Self-contained verification matrix behind the `verify` command.

Hard checks compare two independent routes to the same quantity (closed
form vs direct sum, FFT vs double loop, correlation route vs quadrature,
rational algebra vs floats) and fail the run on mismatch. Soft checks
track the empirical ratios the theory only bounds up to N^eps factors;
they are reported, never failed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import groupby
from operator import itemgetter

import numpy as np

from . import arith_core, asymptotics, spectral
from .selberg import integral_pair

_RNG_SEED = 20260811


@dataclass
class VerificationRecord:
    """One check's outcome; every field is a plain Python value, so asdict of
    a record is its JSON line."""

    check: str
    params: dict
    lhs: float | None = None
    rhs: float | None = None
    ratio: float | None = None
    violations: int | None = None
    slack: float | None = None
    hard: bool = True
    ok: bool = True
    note: str = ""


DEFAULT_N = 10_000
DEFAULT_H = (10, 20)
CORRELATION_CHECK_LENGTH = 512  # the FFT-vs-direct check's sequence; hmax stays below it


@dataclass
class VerifyConfig:
    """The (N, H) cells in run order, and the knobs of the N-independent checks."""

    cells: tuple[tuple[int, int], ...] = tuple((DEFAULT_N, H) for H in DEFAULT_H)
    hmax: int = 64
    grid_m: int = 1 << 16
    k: int = 3


def _rel(a: float, b: float) -> float:
    scale = max(abs(a), abs(b), 1e-300)
    return abs(a - b) / scale


def _check_kernel_localization(cfg: VerifyConfig, out: list) -> None:
    for H, eps in ((100, 0.1), (1000, 0.01)):
        v = spectral.kernel_localization_check(H, eps, cfg.grid_m)
        out.append(
            VerificationRecord(
                check="kernel_localization",
                params={"H": H, "eps": eps, "grid_m": cfg.grid_m},
                violations=v,
                ok=(v == 0),
            )
        )


def _check_box_correlation_formula(cfg: VerifyConfig, out: list) -> None:
    H = 12
    table = spectral.box_autocorrelation(H)
    bad = 0
    for h in range(-table.hmax, table.hmax + 1):
        direct = sum(
            1 for a in range(1, H + 1) for b in range(1, H + 1) if a - b == h
        )
        if table.value(h) != direct:
            bad += 1
    out.append(
        VerificationRecord(
            check="box_correlation_formula",
            params={"H": H},
            violations=bad,
            ok=(bad == 0),
        )
    )


def _check_triangle_correlation(cfg: VerifyConfig, out: list) -> None:
    H = 9
    table = spectral.triangle_autocorrelation(H)
    peak = (2 * H * H + 1) / (3 * H)
    bad = 0 if _rel(table.value(0), peak) < 1e-12 else 1
    bad += sum(
        1
        for h in range(1, table.hmax + 1)
        if _rel(table.value(h), table.value(-h)) > 1e-12
    )
    out.append(
        VerificationRecord(
            check="triangle_correlation",
            params={"H": H},
            lhs=float(table.value(0)),
            rhs=peak,
            violations=bad,
            ok=(bad == 0),
        )
    )


def _check_dirichlet_kernel(cfg: VerifyConfig, out: list) -> None:
    H = 64
    rng = np.random.default_rng(_RNG_SEED)
    alphas = np.concatenate(([0.0, 0.5, 1.0 / (2 * H)], rng.uniform(-0.5, 0.5, 32)))
    worst = 0.0
    for a in alphas:
        direct = abs(np.sum(np.exp(2j * np.pi * np.arange(1, H + 1) * a)))
        # scale by H: the kernel's zeros would otherwise compare two
        # different rounding residues at infinite relative error
        worst = max(worst, abs(spectral.dirichlet_kernel_abs(a, H) - direct) / H)
    out.append(
        VerificationRecord(
            check="dirichlet_kernel_closed_form",
            params={"H": H, "points": len(alphas)},
            ratio=float(worst),
            ok=bool(worst < 1e-9),
        )
    )


def _check_correlation_methods(cfg: VerifyConfig, out: list) -> None:
    rng = np.random.default_rng(_RNG_SEED + 1)
    f = rng.standard_normal(CORRELATION_CHECK_LENGTH)
    worst = 0.0
    for base in (None, (64, 448)):
        a = spectral.correlation(f, cfg.hmax, method="fft", base=base)
        b = spectral.correlation(f, cfg.hmax, method="direct", base=base)
        worst = max(worst, float(np.max(np.abs(a.values - b.values))) / max(np.max(np.abs(b.values)), 1e-300))
    out.append(
        VerificationRecord(
            check="correlation_fft_vs_direct",
            params={"length": CORRELATION_CHECK_LENGTH, "hmax": cfg.hmax},
            ratio=float(worst),
            ok=bool(worst < 1e-9),
        )
    )


def _check_parseval(cfg: VerifyConfig, out: list) -> None:
    rng = np.random.default_rng(_RNG_SEED + 2)
    f = rng.standard_normal(512)
    lhs = spectral.band_energy(f, 0.5)
    rhs = float(np.sum(f * f))
    r = _rel(lhs, rhs)
    out.append(
        VerificationRecord(
            check="parseval",
            params={"length": 512},
            lhs=lhs,
            rhs=rhs,
            ratio=r,
            ok=(r < 1e-9),
        )
    )


def _check_energy_quadrature(cfg: VerifyConfig, out: list) -> None:
    rng = np.random.default_rng(_RNG_SEED + 3)
    f = rng.standard_normal(256)
    H = 8
    M = max(cfg.grid_m, 1 << 16)
    # |f^|^2 and |u^|^2 on the M-point grid, shared by both weights
    P = np.abs(np.fft.fft(f, M)) ** 2
    u = spectral.dirichlet_kernel_abs(np.fft.fftfreq(M), H)
    u2 = u * u
    worst = 0.0
    for weight, w in (("box2", u2), ("fejer2", u2 * u2 / (H * H))):
        exact = spectral.spectral_energy(f, H, weight)
        quad = float(np.sum(P * w)) / M
        worst = max(worst, _rel(exact, quad))
    out.append(
        VerificationRecord(
            check="energy_correlation_vs_quadrature",
            params={"length": 256, "H": H, "grid_m": M},
            ratio=worst,
            ok=(worst < 1e-6),
        )
    )


def _check_exponent_algebra(cfg: VerifyConfig, out: list) -> None:
    ok = asymptotics.exponent_map(0) == Fraction(6, 5)
    bad = 0
    for i in range(10):
        if not asymptotics.balance_check(Fraction(i, 10)):
            bad += 1
    rng = np.random.default_rng(_RNG_SEED + 4)
    for _ in range(100):
        A = Fraction(int(rng.integers(0, 100)), 100)
        H = int(rng.integers(2, 10**6))
        try:
            asymptotics.optimal_eps_E(A, H)
        except AssertionError:
            bad += 1
    out.append(
        VerificationRecord(
            check="exponent_algebra",
            params={"A_grid": "0..9/10", "random_pairs": 100},
            violations=bad,
            ok=ok and bad == 0,
        )
    )


def _check_integral_methods(N: int, H: int, f, poly, out: list) -> None:
    a = integral_pair(f, N, H, poly, method="sliding")
    b = integral_pair(f, N, H, poly, method="brute")
    worst = max(_rel(a.J, b.J), _rel(a.J_tilde, b.J_tilde))
    out.append(
        VerificationRecord(
            check="integral_sliding_vs_brute",
            params={"N": N, "H": H},
            lhs=a.J,
            rhs=b.J,
            ratio=worst,
            ok=(worst < 1e-9),
        )
    )


def _check_window(cfg: VerifyConfig, N: int, h_list: list[int], poly, out: list) -> None:
    """The N-dependent checks, on one window ]N - max H, 2N + max H]."""
    f = arith_core.balanced_window(N, max(h_list), cfg.k)
    _check_integral_methods(N, min(h_list), f, poly, out)

    # shared by the checks below, each computed once: the direct J and J~
    # of every H (no polynomial, as the correlations see f), one based
    # correlation covering every H's triangle weight, and the
    # autocorrelation of f on ]N, 2N] at every lag
    direct = {H: integral_pair(f, N, H) for H in h_list}
    cf = spectral.route_correlation(f)
    ac = spectral.autocorrelation(f)

    for H in h_list:
        r = spectral.correlation_route_check(direct[H], cf)
        out.append(
            VerificationRecord(
                check="correlation_route",
                params={"N": N, "H": H},
                lhs=r.j_direct,
                rhs=r.j_corr,
                ratio=r.norm_diff_j,
                slack=r.norm_diff_jt,
                hard=False,
                note="normalized discrepancies |J_direct - J_corr| / H^3",
            )
        )
    for h in h_list:
        if h >= 10:
            g = spectral.gallagher_check(direct[h], ac)
            out.append(
                VerificationRecord(
                    check="gallagher",
                    params={"N": N, "h": h},
                    lhs=g.lhs,
                    rhs=g.rhs,
                    ratio=g.ratio,
                    hard=False,
                )
            )
    H = min(h_list)
    # the balancing cutoffs exist from H = 2; the split needs [eps*H] >= 1
    p = asymptotics.optimal_eps_E(0, H) if H >= 2 else None
    if p is not None and math.floor(p.eps * H) >= 1:
        t = spectral.three_range_split(direct[H], ac, p.eps, p.E)
        out.append(
            VerificationRecord(
                check="three_range_split",
                params={"N": N, "H": H, "eps": p.eps, "E": p.E},
                lhs=t.j_direct,
                rhs=t.majorant,
                ratio=t.slack,
                violations=t.majorization_violations,
                slack=t.slack,
                hard=True,  # the per-point majorization is hard; the slack is reported
                ok=(t.majorization_violations == 0),
                note="hard part: zero pointwise majorization violations",
            )
        )


def run_verification(cfg: VerifyConfig | None = None) -> tuple[list[VerificationRecord], int]:
    """Run the whole matrix; returns (records, number of hard failures).

    The N-independent checks run once, then the N-dependent block once per
    run of consecutive cells with the same N, for that run's H in order.
    """
    cfg = cfg or VerifyConfig()
    poly = arith_core.residue_polynomial(cfg.k)  # an unsupported k fails before any check
    records: list[VerificationRecord] = []
    _check_kernel_localization(cfg, records)
    _check_box_correlation_formula(cfg, records)
    _check_triangle_correlation(cfg, records)
    _check_dirichlet_kernel(cfg, records)
    _check_correlation_methods(cfg, records)
    _check_parseval(cfg, records)
    _check_energy_quadrature(cfg, records)
    _check_exponent_algebra(cfg, records)
    for N, cells in groupby(cfg.cells, key=itemgetter(0)):
        _check_window(cfg, N, [H for _, H in cells], poly, records)
    failures = sum(1 for r in records if r.hard and not r.ok)
    return records, failures
