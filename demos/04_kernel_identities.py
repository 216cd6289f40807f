#!/usr/bin/env python3
"""Fourier-side machinery: correlations, kernels, and the range splitting.

Shows the exact pieces the upper-bound argument is made of: the box and
triangle autocorrelations, the localization of large Dirichlet-kernel
values near alpha = 0, the correlation-route evaluation of the weighted
energies (exact, no quadrature), the modified Gallagher comparison, and
the three-range majorization with its measured slack.
"""

import numpy as np

from selberg_lab import (
    autocorrelation,
    balanced_window,
    box_autocorrelation,
    correlation_route_check,
    dirichlet_kernel_abs,
    gallagher_check,
    integral_pair,
    kernel_localization_check,
    optimal_eps_E,
    route_correlation,
    spectral_energy,
    three_range_split,
    triangle_autocorrelation,
)

RULE = "-" * 72


def main():
    H = 8
    cu = box_autocorrelation(H)
    cw = triangle_autocorrelation(H)
    print(f"box correlation C_u(h) = max(H - |h|, 0) at H = {H}:")
    print(" ", [int(cu.value(h)) for h in range(-(H - 1), H)])
    print(f"triangle correlation peak C_w(0) = (2H^2+1)/(3H) = {cw.value(0):.6f}")
    print(RULE)

    print("large kernel values only occur near alpha = 0:")
    for Hk, eps in ((100, 0.1), (1000, 0.01)):
        v = kernel_localization_check(Hk, eps, 10**6)
        m = int(eps * Hk)
        print(f"  H = {Hk:5d}, [eps*H] = {m:3d}: {v} violations on a 10^6 grid")
    print(f"  |u^(1/(2H))| = {dirichlet_kernel_abs(1/(2*100), 100):.3f} "
          f"~ 2H/pi = {2*100/np.pi:.3f} at H = 100")
    print(RULE)

    print("weighted energies via correlations (exact) on balanced d_3:")
    N = 10**4
    f = balanced_window(N, 40)
    t = f.truncated()
    print(f"  int |f^|^2 |u^|^2        = {spectral_energy(t, 32, 'box2'):.6g}")
    print(f"  int |f^|^2 |u^|^4 / H^2  = {spectral_energy(t, 32, 'fejer2'):.6g}")
    r = correlation_route_check(integral_pair(f, N, 32), route_correlation(f))
    print(f"  J  direct vs correlation : {r.j_direct:.6g} vs {r.j_corr:.6g}"
          f"  (|diff|/H^3 = {r.norm_diff_j:.2f})")
    print(f"  J~ direct vs correlation : {r.jt_direct:.6g} vs {r.jt_corr:.6g}"
          f"  (|diff|/H^3 = {r.norm_diff_jt:.2f})")
    print(RULE)

    print("modified Gallagher comparison h^2 * band energy vs J~ + h^3:")
    ac = autocorrelation(f)  # one autocorrelation serves every band
    for h in (10, 20, 40):
        g = gallagher_check(integral_pair(f, N, h), ac)
        print(f"  h = {h:3d}: lhs = {g.lhs:.4g}, rhs = {g.rhs:.4g}, ratio = {g.ratio:.3f}")
    print(RULE)

    print("three-range splitting at the balancing cutoffs (A = 0):")
    N, H = 4000, 25
    f = balanced_window(N, H)
    p = optimal_eps_E(0, H)
    r = three_range_split(integral_pair(f, N, H), autocorrelation(f), p.eps, p.E)
    print(f"  eps = {p.eps:.4f}, E = {p.E:.4f}, majorization checked at {r.grid_m} kernel points")
    print(f"  T1 = {r.t1:.4g}, T2 = {r.t2:.4g}, T3 = {r.t3:.4g}, H^3 = {r.h_cubed:.4g}")
    print(f"  J direct = {r.j_direct:.4g}")
    print(f"  majorant / J = {r.slack:.3f} with {r.majorization_violations} "
          "pointwise violations")


if __name__ == "__main__":
    main()
