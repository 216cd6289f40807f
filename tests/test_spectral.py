import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import gallagher, route_check, three_range
from selberg_lab import spectral
from selberg_lab.arith_core import BalancedSequence, balanced_window
from selberg_lab.asymptotics import optimal_eps_E
from selberg_lab.selberg import integral_pair
from selberg_lab.spectral import (
    autocorrelation,
    band_energy,
    box_autocorrelation,
    correlation,
    correlation_route_check,
    dirichlet_kernel_abs,
    gallagher_check,
    kernel_intervals,
    kernel_localization_check,
    route_correlation,
    spectral_energy,
    three_range_split,
    triangle_autocorrelation,
)


def _zero_balanced(N, H):
    return BalancedSequence(lo=N - H + 1, values=np.zeros(N + 2 * H), N=N, H=H)


def _indicator(N, H, n0):
    vals = np.zeros(N + 2 * H)
    vals[n0 - (N - H + 1)] = 1.0
    return BalancedSequence(lo=N - H + 1, values=vals, N=N, H=H)


# ------------------------------------------------------------ correlation


def test_correlation_zero_shift_is_energy():
    rng = np.random.default_rng(0)
    f = rng.standard_normal(128)
    t = correlation(f, 10)
    assert t.value(0) == pytest.approx(float(np.sum(f * f)), rel=1e-12)


def test_correlation_fft_matches_direct():
    rng = np.random.default_rng(1)
    for trial in range(50):
        n = int(rng.integers(40, 512))
        f = rng.standard_normal(n)
        hmax = min(64, n - 1)
        a = correlation(f, hmax, method="fft")
        b = correlation(f, hmax, method="direct")
        scale = float(np.max(np.abs(b.values)))
        assert np.max(np.abs(a.values - b.values)) <= 1e-9 * scale


def test_correlation_complex_and_base():
    rng = np.random.default_rng(2)
    f = rng.standard_normal(200)
    with pytest.raises(ValueError):  # the lab's sequences are real
        correlation(f + 1j * rng.standard_normal(200), 30)
    for base in (None, (40, 160)):
        a = correlation(f, 30, method="fft", base=base)
        b = correlation(f, 30, method="direct", base=base)
        assert np.max(np.abs(a.values - b.values)) < 1e-9 * np.max(np.abs(b.values))
        for h in (-7, 0, 13):
            brute = oracles.correlation_brute(f, h, base)
            assert b.value(h) == pytest.approx(brute, rel=1e-12)


@settings(max_examples=80, deadline=None)
@given(data=st.data(), M=st.integers(1, 300), seed=st.integers(0, 2**32 - 1))
def test_correlation_fft_matches_direct_on_random_inputs(data, M, seed):
    f = np.random.default_rng(seed).standard_normal(M)
    hmax = data.draw(st.integers(0, M - 1), label="hmax")
    base = None
    if data.draw(st.booleans(), label="with base"):
        b0 = data.draw(st.integers(0, M - 1), label="b0")
        base = (b0, data.draw(st.integers(b0 + 1, M), label="b1"))
    a = correlation(f, hmax, method="fft", base=base)
    b = correlation(f, hmax, method="direct", base=base)
    assert a.values.dtype == b.values.dtype == np.float64
    # every |C(h)| is at most the energy of f
    assert np.max(np.abs(a.values - b.values)) <= 1e-12 * float(np.sum(f * f))


def test_correlation_symmetry_holds_for_full_base_only():
    rng = np.random.default_rng(3)
    f = rng.standard_normal(100)
    full = correlation(f, 20)
    assert np.allclose(full.values, full.values[::-1])
    part = correlation(f, 20, base=(10, 90))
    assert not np.allclose(part.values, part.values[::-1])


def test_correlation_bounds():
    with pytest.raises(ValueError):
        correlation(np.ones(10), 10)
    with pytest.raises(ValueError):
        correlation(np.ones(10), 3, base=(5, 20))
    t = correlation(np.ones(10), 3)
    with pytest.raises(ValueError):
        t.value(4)


def test_box_autocorrelation_closed_form():
    for H in (1, 2, 7, 100):
        t = box_autocorrelation(H)
        assert t.hmax == H - 1
        for h in range(-t.hmax, t.hmax + 1):
            assert t.value(h) == max(H - abs(h), 0)


def test_triangle_autocorrelation_values():
    H = 9
    t = triangle_autocorrelation(H)
    assert t.hmax == 2 * H - 2
    assert t.value(0) == pytest.approx((2 * H * H + 1) / (3 * H), rel=1e-12)
    for h in range(1, t.hmax + 1):
        assert t.value(h) == pytest.approx(t.value(-h), rel=1e-12)
    assert t.value(2 * H - 2) == pytest.approx(1.0 / (H * H), rel=1e-12)
    # direct double sum as an oracle; support ends at |h| = 2H - 2
    w = lambda a: max(1.0 - abs(a) / H, 0.0)
    for h in (0, 1, H, 2 * H - 2):
        direct = math.fsum(w(a) * w(a - h) for a in range(-H, H + 1))
        assert t.value(h) == pytest.approx(direct, rel=1e-12)
    for h in (2 * H - 1, 2 * H, 3 * H):
        assert math.fsum(w(a) * w(a - h) for a in range(-2 * H, 2 * H + 1)) == 0.0


# ---------------------------------------------------------------- kernel


def test_kernel_values():
    H = 10
    assert dirichlet_kernel_abs(0.0, H) == H
    assert dirichlet_kernel_abs(0.5, H) == pytest.approx(0.0, abs=1e-12)
    expected = 1.0 / math.sin(math.pi / (2 * H))
    assert dirichlet_kernel_abs(1.0 / (2 * H), H) == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(2 * H / math.pi, rel=0.05)


def test_kernel_against_exponential_sum():
    H = 23
    rng = np.random.default_rng(5)
    for a in rng.uniform(-0.5, 0.5, 40):
        direct = abs(np.sum(np.exp(2j * np.pi * np.arange(1, H + 1) * a)))
        assert abs(dirichlet_kernel_abs(a, H) - direct) < 1e-9 * H


def test_kernel_profile_invariants():
    values = dirichlet_kernel_abs(np.linspace(-0.5, 0.5, 4097), 64)  # odd grid includes alpha = 0
    assert values[2048] == 64.0
    assert float(np.max(values)) <= 64.0 * (1 + 1e-12)


def test_kernel_localization_zero_violations():
    assert kernel_localization_check(100, 0.1, 10**5) == 0
    assert kernel_localization_check(1000, 0.01, 10**5) == 0


def test_kernel_localization_guards():
    with pytest.raises(ValueError):
        kernel_localization_check(5, 0.1, 1000)  # [eps H] = 0
    with pytest.raises(ValueError):
        kernel_localization_check(100, 1.5, 1000)
    with pytest.raises(ValueError):
        kernel_localization_check(100, 0.1, 1)  # grid of one point


# ---------------------------------------------------------- band energy


def test_band_energy_parseval():
    rng = np.random.default_rng(6)
    for trial in range(10):
        f = rng.standard_normal(int(rng.integers(16, 400)))
        assert band_energy(f, 0.5) == pytest.approx(float(np.sum(f * f)), rel=1e-9)


def test_band_energy_zero_width():
    assert band_energy(np.ones(32), 0.0) == 0.0


def test_band_energy_against_quadrature():
    rng = np.random.default_rng(7)
    f = rng.standard_normal(256)
    exact = band_energy(f, 0.05)
    quad = oracles.band_quadrature(f, 0.05, 1 << 20)
    assert exact == pytest.approx(quad, rel=1e-6)


def test_band_energy_domain():
    with pytest.raises(ValueError):
        band_energy(np.ones(8), 0.6)


# ------------------------------------------------------ weighted energies


def test_energy_zero_function():
    z = np.zeros(64)
    assert spectral_energy(z, 8, "box2") == 0.0
    assert spectral_energy(z, 8, "fejer2") == 0.0


def test_energy_single_point_box():
    f = np.zeros(64)
    f[30] = 1.0
    # only C_u(0) = H survives the point correlation
    assert spectral_energy(f, 8, "box2") == pytest.approx(8.0, rel=1e-12)


def test_energy_matches_quadrature():
    rng = np.random.default_rng(8)
    f = rng.standard_normal(200)
    for weight in ("box2", "fejer2"):
        exact = spectral_energy(f, 8, weight)
        quad = oracles.energy_quadrature(f, 8, weight, 1 << 16)
        assert exact == pytest.approx(quad, rel=1e-6)


def test_energy_weight_names():
    with pytest.raises(ValueError):
        spectral_energy(np.ones(16), 4, "hann")


def test_energy_window_longer_than_sequence():
    # C_f vanishes beyond the sequence length, so clipping hmax is exact:
    # sum over |h| <= 3 of (10 - |h|)(4 - |h|) = 140
    assert spectral_energy(np.ones(4), 10, "box2") == pytest.approx(140.0, rel=1e-12)


def test_band_energy_single_element():
    assert band_energy(np.array([3.0]), 0.1) == pytest.approx(1.8, rel=1e-12)


def test_correlation_fft_at_every_lag():
    # the FFT pads to twice the length, so even lag M - 1 takes no wraparound
    rng = np.random.default_rng(9)
    M = 50
    f = rng.standard_normal(M)
    a = correlation(f, M - 1)
    b = correlation(f, M - 1, method="direct")
    assert a.values.dtype == b.values.dtype
    assert np.allclose(a.values, b.values, rtol=1e-12, atol=1e-12)


def test_box_energy_equals_clipped_window_sum():
    # sum_h C_u(h) C_f(h) rearranges exactly into squared window sums with
    # the windows clipped to the range; this identity is what makes the
    # correlation route exact
    rng = np.random.default_rng(10)
    f = rng.standard_normal(120)
    H = 9
    energy = spectral_energy(f, H, "box2")
    direct = math.fsum(
        math.fsum(f[y + a] for a in range(1, H + 1) if 0 <= y + a < len(f)) ** 2
        for y in range(-H, len(f))
    )
    assert energy == pytest.approx(direct, rel=1e-12)


# -------------------------------------------------- correlation route


def test_correlation_route_zero_sequence():
    r = route_check(_zero_balanced(400, 12), 400, 12)
    assert (r.j_direct, r.j_corr, r.jt_direct, r.jt_corr) == (0, 0, 0, 0)


def test_correlation_route_single_point():
    N, H = 400, 12
    r = route_check(_indicator(N, H, N + 3 * H), N, H)
    assert r.j_direct == H
    assert r.j_corr == pytest.approx(H, rel=1e-12)
    assert r.diff_j <= H * H


def test_correlation_route_balanced_reported(balanced_1e4):
    r = route_check(balanced_1e4, 10**4, 20)
    assert math.isfinite(r.norm_diff_j) and math.isfinite(r.norm_diff_jt)
    assert r.j_direct > 0 and r.j_corr > 0


def test_correlation_route_guard():
    f = _zero_balanced(100, 25)
    with pytest.raises(ValueError):
        route_check(f, 100, 25)  # 25 > 100^0.49


# ------------------------------------------------------------- gallagher


def test_gallagher_zero_sequence():
    r = gallagher(_zero_balanced(2000, 20), 2000, 20)
    assert r.lhs == 0.0
    assert r.rhs == 20.0**3
    assert r.ratio == 0.0


def test_gallagher_balanced(balanced_1e4):
    r = gallagher(balanced_1e4, 10**4, 20)
    assert 0 < r.ratio < 100
    assert r.rhs == r.j_tilde + 20.0**3


def test_gallagher_guards():
    f = _zero_balanced(2000, 20)
    with pytest.raises(ValueError):
        gallagher(f, 2000, 5)  # below the large-h regime
    with pytest.raises(ValueError):
        gallagher(_zero_balanced(100, 25), 100, 25)


# ------------------------------------------------------ three-range split


def test_three_range_zero_sequence():
    f = _zero_balanced(512, 16)
    r = three_range(f, 512, 16, 0.25, 0.5)
    assert (r.t1, r.t2, r.t3) == (0.0, 0.0, 0.0)
    assert math.isinf(r.slack)


def test_three_range_rejects_bad_cutoffs():
    f = _zero_balanced(512, 16)
    with pytest.raises(ValueError):
        three_range(f, 512, 16, 0.5, 0.5)
    with pytest.raises(ValueError):
        three_range(f, 512, 16, 0.5, 0.25)


def test_three_range_signature_rejects_bad_eps_E():
    f = _zero_balanced(512, 16)
    for eps, E in ((0.0, 0.5), (-0.1, 0.5), (0.25, 1.5), (0.05, 0.5)):  # last: [eps*H] = 0
        with pytest.raises(ValueError):
            three_range(f, 512, 16, eps, E)
    direct, ac = integral_pair(f, 512, 16), autocorrelation(f)
    with pytest.raises(TypeError):  # the quadrature grid is gone
        three_range_split(direct, ac, 0.25, 0.5, grid_m=1 << 16)


def test_three_range_majorization_and_partition():
    N, H = 1024, 16
    f = balanced_window(N, H)
    p = optimal_eps_E(0, H)
    r = three_range(f, N, H, p.eps, p.E)
    assert r.majorization_violations == 0
    # the three majorants dominate the classified energy pointwise, so on
    # any grid the oracle's pieces dominate the Riemann sum of the energy
    M = 1 << 18
    grid = oracles.three_range_grid(f, N, H, p.eps, p.E, M)
    quad = oracles.energy_quadrature(f.truncated(), H, "box2", M)
    assert sum(grid) >= quad * (1 - 1e-12)
    assert r.t1 + r.t2 + r.t3 >= spectral_energy(f.truncated(), H, "box2") * (1 - 1e-12)
    assert r.slack == (r.t1 + r.t2 + r.t3 + r.h_cubed) / r.j_direct


@pytest.mark.parametrize(
    "cutoffs, slack_rel",
    [
        (None, 1e-6),  # balancing cutoffs: main lobes only at this H
        ((0.1, 0.2), 1e-5),  # low cutoffs: 8 and 2 intervals, side lobes included
    ],
)
def test_three_range_agrees_with_grid_oracle(cutoffs, slack_rel):
    # the grid converges like 1/M (its integrands jump at the cutoffs), so
    # the exact split is the reference and the tolerance is the grid's
    N, H = 1024, 16
    f = balanced_window(N, H)
    p = optimal_eps_E(0, H)
    eps, E = cutoffs or (p.eps, p.E)
    r = three_range(f, N, H, eps, E)
    assert r.majorization_violations == 0
    grid = oracles.three_range_grid(f, N, H, eps, E, 1 << 22)
    for exact, quad in zip((r.t1, r.t2, r.t3), grid):
        assert exact == pytest.approx(quad, rel=1e-4)
    assert r.slack == pytest.approx((sum(grid) + r.h_cubed) / r.j_direct, rel=slack_rel)


@settings(max_examples=60, deadline=None)
@given(H=st.integers(2, 300), q=st.floats(1e-9, 1.0, exclude_max=True))
def test_kernel_intervals_threshold_property(H, q):
    c = q * H
    iv = kernel_intervals(H, c)
    a, b = iv[:, 0], iv[:, 1]
    assert a[0] == 0.0 and np.all(a <= b) and np.all(b[:-1] < a[1:]) and b[-1] <= 0.5
    # each endpoint has |u^| > c and the float just outside it |u^| <= c
    assert np.all(dirichlet_kernel_abs(iv, H) > c)
    outside = np.nextafter(iv, [-1.0, 1.0])[(iv > 0.0) & (iv < 0.5)]
    assert np.all(dirichlet_kernel_abs(outside, H) <= c)
    alphas = np.linspace(0.0, 0.5, 1 << 14)
    i = np.searchsorted(a, alphas, side="right") - 1
    inside = (i >= 0) & (alphas <= b[np.maximum(i, 0)])
    assert np.array_equal(inside, dirichlet_kernel_abs(alphas, H) > c)


def _counting_bisect(steps):
    """spectral._bisect, appending to `steps` the predicate calls of each bisection."""
    bisect = spectral._bisect

    def counted(pred, inside, outside):
        calls = 0

        def counted_pred(a):
            nonlocal calls
            calls += 1
            return pred(a)

        try:
            return bisect(counted_pred, inside, outside)
        finally:
            steps.append(calls)

    return counted


@settings(max_examples=60, deadline=None)
@given(H=st.integers(1, 300), q=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
@example(H=11, q=1.0 - 2.0**-52)  # c = H - ulp: |u^| rounds to c from 1e-10 down past 2^-32/H
def test_kernel_intervals_bisections_stay_short(H, q):
    # a bracket shrinks to adjacent floats in under 100 steps; halving toward
    # 0 one binade per step, as the main lobe's peak on [0, 1/H] or its right
    # edge at such a c would, walks the subnormals
    steps = []
    with patch.object(spectral, "_bisect", _counting_bisect(steps)):
        kernel_intervals(H, q * H)
    assert max(steps, default=0) <= 128


def test_kernel_intervals_edges():
    assert kernel_intervals(1, 0.5).tolist() == [[0.0, 0.5]]  # |u^| = 1 throughout
    assert kernel_intervals(9, 0.99)[-1, 1] == 0.5  # odd H: half lobe ends at 1/2
    assert kernel_intervals(16, 16.0).shape == (0, 2)
    with pytest.raises(ValueError):
        kernel_intervals(16, 0.0)


# ------------------------------------------------ values shared by callers


def test_shared_values_are_checked(balanced_1e4):
    # N and H come from the direct report; every correlation that can still
    # disagree with it is rejected
    f, N = balanced_1e4, 10**4
    direct = integral_pair(f, N, 20)
    short = correlation(f.truncated(), N - 2)  # misses the last lag
    based = correlation(f.values, N - 1, base=(40, N + 40))  # every lag, but based
    for bad in (short, based):
        with pytest.raises(ValueError):
            gallagher_check(direct, bad)
        with pytest.raises(ValueError):
            three_range_split(direct, bad, 0.25, 0.5)
    other_n = balanced_window(N + 1, 40)
    for bad in (
        correlation(f.values, 38),  # no base
        route_correlation(other_n),  # based on ]N + 1, 2N + 2]
        correlation(f.values, 37, base=(40, N + 40)),  # too few shifts for H = 20
    ):
        with pytest.raises(ValueError):
            correlation_route_check(direct, bad)


def test_route_correlation_slices_are_per_h_tables(balanced_1e4):
    # one table at the window's H serves every smaller H with the same floats
    f, N = balanced_1e4, 10**4
    big = route_correlation(f)
    assert big.hmax == 2 * 40 - 2
    for h in (0, 9, 18, 38):
        assert np.array_equal(big.window(h), correlation(f.values, h, base=(40, N + 40)).values)
