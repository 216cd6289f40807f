"""Exponent calculus and empirical power-law tracking.

The algebra here is exact: given the modified integral obeys
J~ <= N H^(1+A) on a dyadic H range, the sharp integral obeys
J <= N H^(1 + (1+3A)/(5-A)), with the tuning parameters
eps = H^(-2(1-A)/(5-A)) and E = H^(-(1-A)^2 / (2(5-A))) balancing the
three ranges of the kernel splitting. All identities are verified in
rational arithmetic; floats appear only when a concrete H is raised to
these exponents, and in the least-squares fit of measured integrals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np


def _as_fraction(A) -> Fraction:
    if isinstance(A, float):
        raise TypeError("exponent A must be exact (int, Fraction, or string)")
    return Fraction(A)


def exponent_map(A) -> Fraction:
    """The sharp-integral exponent 1 + (1+3A)/(5-A) produced by hypothesis A."""
    A = _as_fraction(A)
    if not 0 <= A < 1:
        raise ValueError("A must lie in [0, 1)")
    return 1 + (1 + 3 * A) / (5 - A)


def eps_exponent(A) -> Fraction:
    """Exponent of H in the small-kernel cutoff eps."""
    A = _as_fraction(A)
    return Fraction(-2) * (1 - A) / (5 - A)


def E_exponent(A) -> Fraction:
    """Exponent of H in the large-kernel cutoff E."""
    A = _as_fraction(A)
    return -((1 - A) ** 2) / (2 * (5 - A))


def balance_check(A) -> bool:
    """Exact-rational check that the three majorization terms balance.

    With e_eps and e_E the two cutoff exponents, the terms eps^2,
    E^2 H^(A-1) / eps^(1-A) and H^(A-1) / E^2 are powers of H with
    exponents 2*e_eps, 2*e_E + (A-1) - (1-A)*e_eps and (A-1) - 2*e_E;
    they must coincide.
    """
    A = _as_fraction(A)
    if not 0 <= A < 1:
        raise ValueError("A must lie in [0, 1)")
    ee = eps_exponent(A)
    eE = E_exponent(A)
    first = 2 * ee
    second = 2 * eE + (A - 1) - (1 - A) * ee
    third = (A - 1) - 2 * eE
    return first == second == third


@dataclass(frozen=True)
class ExponentParams:
    """Concrete cutoffs for one (A, H); the balance is re-verified in floats."""

    A: Fraction
    eps_exponent: Fraction
    E_exponent: Fraction
    H: int
    eps: float
    E: float


def optimal_eps_E(A, H: int) -> ExponentParams:
    """Evaluate the balancing cutoffs at a concrete H and sanity-check them."""
    A = _as_fraction(A)
    if not 0 <= A < 1:
        raise ValueError("A must lie in [0, 1)")
    if H < 2:
        raise ValueError("H must be >= 2")
    ee, eE = eps_exponent(A), E_exponent(A)
    eps = float(H) ** float(ee)
    E = float(H) ** float(eE)
    if not 0.0 < eps < E:
        raise AssertionError("cutoffs out of order; exponent algebra is broken")
    a = float(A)
    terms = (
        eps * eps,
        E * E * float(H) ** (a - 1.0) / eps ** (1.0 - a),
        float(H) ** (a - 1.0) / (E * E),
    )
    ref = terms[0]
    for t in terms[1:]:
        if abs(t - ref) > 1e-12 * abs(ref):
            raise AssertionError(f"majorization terms do not balance: {terms}")
    return ExponentParams(A=A, eps_exponent=ee, E_exponent=eE, H=H, eps=eps, E=E)


@dataclass(frozen=True)
class FitReport:
    """OLS fit of log(J~/N) against log H; the hypothesis exponent is slope-1."""

    samples: tuple[tuple[int, int, float], ...]
    slope: float
    A_hat: float
    residual: float
    H_range: tuple[int, int]
    delta: float
    empirical_only: bool = field(default=True)


def fit_exponent(samples, delta: float = 0.1, eta: float = 0.1) -> FitReport:
    """Estimate A from measured (N, H, J~) triples.

    Every sample must sit in the admissible band N^delta <= H <= N^(1/2-delta)
    and satisfy the growth regime H >= N^eta; a finite grid can only ever
    suggest the hypothesis, so the report is flagged empirical.
    """
    samples = tuple((int(N), int(H), float(Jt)) for N, H, Jt in samples)
    if len(samples) < 2:
        raise ValueError("need at least 2 samples")
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    if not 0.0 < eta < 0.5:
        raise ValueError("eta must lie in (0, 1/2)")
    for N, H, Jt in samples:
        if not N**delta <= H <= N ** (0.5 - delta):
            raise ValueError(
                f"sample (N={N}, H={H}) outside the band "
                f"[N^{delta}, N^{0.5 - delta}] = [{N**delta:.3g}, {N**(0.5-delta):.3g}]"
            )
        if H < N**eta:
            raise ValueError(f"sample (N={N}, H={H}) below the regime floor N^{eta}")
        if Jt <= 0:
            raise ValueError("J~ samples must be positive for a log fit")
    logH = np.array([math.log(H) for _, H, _ in samples])
    logy = np.array([math.log(Jt / N) for N, _, Jt in samples])
    if np.ptp(logH) == 0.0:
        raise ValueError("degenerate design: all H equal")
    slope, intercept = np.polyfit(logH, logy, 1)
    resid = logy - (slope * logH + intercept)
    hs = [H for _, H, _ in samples]
    return FitReport(
        samples=samples,
        slope=float(slope),
        A_hat=float(slope) - 1.0,
        residual=float(np.sqrt(np.mean(resid**2))),
        H_range=(min(hs), max(hs)),
        delta=delta,
    )
