#!/usr/bin/env python3
"""The exponent calculus: from a modified-integral hypothesis to a sharp
integral bound, plus the empirical fits at desk scale.

If J~ <= N*H^(1+A) on a dyadic range then J <= N*H^(1 + (1+3A)/(5-A)):
at A = 0 the exponent is 6/5. The balancing cutoffs are exact rational
powers of H; this script verifies the algebra, then runs the measurement
pipeline and fits the observed exponent (reported, never asserted; the
conjecture is open and desk scales are noisy).
"""

from fractions import Fraction

from selberg_lab import (
    balance_check,
    balanced_window,
    exponent_map,
    fit_exponent,
    integral_pair,
    optimal_eps_E,
    residue_polynomial,
)

RULE = "-" * 72


def main():
    print("exponent map A -> 1 + (1+3A)/(5-A):")
    for num in (0, 1, 2, 5, 9):
        A = Fraction(num, 10)
        print(f"  A = {str(A):>4}: exponent = {exponent_map(A)}  "
              f"(balance identities: {balance_check(A)})")
    print("  A = 0 gives the 6/5 exponent for the sharp integral")
    print(RULE)

    print("balancing cutoffs at A = 0:")
    for H in (32, 100, 1000, 100000):
        p = optimal_eps_E(0, H)
        print(f"  H = {H:>6}: eps = H^({p.eps_exponent}) = {p.eps:.6f}, "
              f"E = H^({p.E_exponent}) = {p.E:.6f}, eps/E = {p.eps/p.E:.4f}")
    print(RULE)

    print("measured integrals and fitted exponent (N = 2^16):")
    q3 = residue_polynomial(3)
    N = 1 << 16
    samples = []
    f = balanced_window(N, 64)
    for H in (16, 24, 32, 48, 64):
        rep = integral_pair(f, N, H, q3)
        samples.append((N, H, rep.J_tilde))
        print(f"  H = {H:3d}: J~/(N*H) = {rep.ratio_J_tilde:10.2f}   "
              f"J/(N*H*log^4 N) = {rep.lower_ratio:.3f}")
    fit = fit_exponent(samples, delta=0.1)
    print(f"  OLS of log(J~/N) on log H: slope = {fit.slope:.3f}, "
          f"A_hat = {fit.A_hat:.3f}, residual = {fit.residual:.3g}")
    print("  (empirical only: a finite grid can never certify the hypothesis)")


if __name__ == "__main__":
    main()
