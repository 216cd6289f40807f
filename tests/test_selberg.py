import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from selberg_lab.arith_core import (
    BalancedSequence,
    LogPolynomial,
    Window,
    balanced_sequence,
    balanced_window,
    residue_polynomial,
    sieve_dk,
    stieltjes_constant,
)
from selberg_lab.selberg import (
    CSV_HEADER,
    box_deviations,
    cesaro_sum,
    integral_pair,
    mean_value,
    modified_selberg_integral,
    selberg_integral,
    short_sum,
    triangle_deviations,
)

G0 = float(stieltjes_constant(0))
G1 = float(stieltjes_constant(1))


def _window(lo, values):
    return Window(lo=lo, values=np.asarray(values, dtype=np.float64))


def _indicator(N, H, n0):
    vals = np.zeros(N + 2 * H)
    vals[n0 - (N - H + 1)] = 1.0
    return BalancedSequence(lo=N - H + 1, values=vals, N=N, H=H)


# ------------------------------------------------------------ short sums


def test_short_sum_constant_is_H():
    f = _window(1, np.ones(100))
    assert short_sum(f, 10, 25) == 25.0


def test_short_sum_indicator():
    vals = np.zeros(100)
    vals[49] = 1.0  # n = 50
    f = _window(1, vals)
    assert short_sum(f, 45, 10) == 1.0
    assert short_sum(f, 50, 10) == 0.0  # window starts above n0


def test_short_sum_matches_divisor_table():
    f = _window(1, sieve_dk(1, 200, 3).values.astype(float))
    direct = float(np.sum(sieve_dk(101, 110, 3).values))
    assert short_sum(f, 100, 10) == direct


def test_short_sum_window_errors():
    f = _window(10, np.ones(20))
    with pytest.raises(ValueError):
        short_sum(f, 5, 10)
    with pytest.raises(ValueError):
        short_sum(f, 25, 10)


def test_cesaro_sum_constant_is_exactly_H():
    f = _window(1, np.ones(200))
    for H in (1, 2, 7, 31):
        assert cesaro_sum(f, 100, H) == pytest.approx(H, rel=1e-15)


def test_cesaro_sum_edge_weight_vanishes():
    vals = np.zeros(100)
    vals[59] = 1.0  # n = 60
    f = _window(1, vals)
    assert cesaro_sum(f, 53, 7) == 0.0  # |n - x| = H
    assert cesaro_sum(f, 60, 7) == 1.0


def test_cesaro_sum_random_against_brute():
    rng = np.random.default_rng(3)
    vals = rng.integers(-5, 6, size=60).astype(float)
    f = _window(5, vals)
    for x in (20, 30, 41):
        brute = oracles.cesaro_sum_brute(vals, 5, x, 7)
        assert cesaro_sum(f, x, 7) == pytest.approx(brute, rel=1e-12)


def test_cesaro_H1_degenerates_to_point():
    rng = np.random.default_rng(4)
    vals = rng.standard_normal(30)
    f = _window(1, vals)
    assert cesaro_sum(f, 15, 1) == vals[14]


# ------------------------------------------------------------ mean value


def test_mean_value_basics():
    one = LogPolynomial((1.0,))
    assert mean_value(17, 9, one) == 9.0
    assert mean_value(17, 9, LogPolynomial((0.0,))) == 0.0


def test_mean_value_k3_at_e_squared():
    q3 = residue_polynomial(3)
    x = math.exp(2)
    expected = 10 * (2 + 6 * G0 + 3 * G0 * G0 - 3 * G1)
    assert 10 * q3(math.log(x)) == pytest.approx(expected, rel=1e-12)
    assert mean_value(int(x), 10, q3) == pytest.approx(
        10 * q3(math.log(int(x))), rel=1e-15
    )


def test_mean_value_domain():
    with pytest.raises(ValueError):
        mean_value(0, 5, LogPolynomial((0.0,)))


# ------------------------------------------------------------- integrals


def test_zero_sequence_gives_zero_integrals():
    f = BalancedSequence(lo=91, values=np.zeros(120), N=100, H=10)
    assert selberg_integral(f, 100, 10).J == 0.0
    assert modified_selberg_integral(f, 100, 10).J_tilde == 0.0


def test_single_point_selberg_is_H():
    N, H = 200, 12
    f = _indicator(N, H, N + H + 40)
    for method in ("sliding", "brute"):
        assert selberg_integral(f, N, H, method=method).J == H


def test_single_point_modified_interior_value():
    N, H = 200, 12
    f = _indicator(N, H, N + H + 40)
    expected = (2 * H * H + 1) / (3 * H)
    rep = modified_selberg_integral(f, N, H)
    assert rep.J_tilde == pytest.approx(expected, rel=1e-12)


def test_sliding_equals_brute_on_grid():
    q3 = residue_polynomial(3)
    for N in (250, 1000):
        f = balanced_window(N, 30)
        for H in (5, 10, 30):
            if H > N // 4:
                continue
            a = integral_pair(f, N, H, q3, method="sliding")
            b = integral_pair(f, N, H, q3, method="brute")
            assert a.J == pytest.approx(b.J, rel=1e-9)
            assert a.J_tilde == pytest.approx(b.J_tilde, rel=1e-9)


def test_sliding_equals_brute_random_sequences():
    rng = np.random.default_rng(11)
    for trial in range(20):
        N = int(rng.choice([250, 1000]))
        H = int(rng.choice([5, 10, 30]))
        vals = rng.integers(-9, 10, size=N + 2 * H).astype(float)
        f = BalancedSequence(lo=N - H + 1, values=vals, N=N, H=H)
        a = integral_pair(f, N, H, method="sliding")
        b = integral_pair(f, N, H, method="brute")
        assert a.J == pytest.approx(b.J, rel=1e-9)
        assert a.J_tilde == pytest.approx(b.J_tilde, rel=1e-9)


def test_shift_consistency_exact():
    rng = np.random.default_rng(12)
    vals = rng.integers(-9, 10, size=140).astype(float)
    T = 1000
    a = box_deviations(_window(1, vals), 10, 90, 7)
    b = box_deviations(_window(1 + T, vals), 10 + T, 90 + T, 7)
    assert np.array_equal(a, b)
    at = triangle_deviations(_window(1, vals), 20, 90, 7)
    bt = triangle_deviations(_window(1 + T, vals), 20 + T, 90 + T, 7)
    assert np.array_equal(at, bt)


def test_trivial_bound_with_slack():
    rng = np.random.default_rng(13)
    N, H = 500, 20
    vals = rng.integers(-7, 8, size=N + 2 * H).astype(float)
    f = BalancedSequence(lo=N - H + 1, values=vals, N=N, H=H)
    J = selberg_integral(f, N, H).J
    assert J <= 16 * N * H * H * float(np.max(np.abs(vals))) ** 2


def test_H_equal_one():
    rng = np.random.default_rng(14)
    N = 100
    vals = rng.standard_normal(N + 2)
    f = BalancedSequence(lo=N, values=vals, N=N, H=1)
    a = modified_selberg_integral(f, N, 1, method="sliding")
    b = modified_selberg_integral(f, N, 1, method="brute")
    assert a.J_tilde == pytest.approx(b.J_tilde, rel=1e-12)
    # H = 1 triangle weight is the single point f(x)
    xs = np.arange(N + 1, 2 * N + 1)
    expected = math.fsum(float(vals[x - N] ** 2) for x in xs)
    assert a.J_tilde == pytest.approx(expected, rel=1e-12)


def test_window_poly_mode_cancels_polynomial():
    N, H = 400, 16
    f = balanced_window(N, H)
    q3 = residue_polynomial(3)
    with_poly = selberg_integral(f, N, H, q3, mean_mode="window-poly")
    plain = selberg_integral(f, N, H, None)
    assert with_poly.J == plain.J
    assert with_poly.mean_mode == "window-poly"


def test_mean_mode_discrepancy_is_small_but_reported():
    N, H = 1000, 12
    f = balanced_window(N, H)
    q3 = residue_polynomial(3)
    res = integral_pair(f, N, H, q3, mean_mode="residue")
    win = integral_pair(f, N, H, q3, mean_mode="window-poly")
    # the two conventions differ by drift terms only
    assert res.J == pytest.approx(win.J, rel=0.01)
    assert res.J != win.J


def test_report_fields():
    N, H = 256, 8
    f = balanced_window(N, H)
    rep = integral_pair(f, N, H, residue_polynomial(3))
    assert rep.J >= 0 and rep.J_tilde >= 0
    assert rep.ratio_J == rep.J / (N * H)
    assert rep.ratio_J_tilde == rep.J_tilde / (N * H)
    assert rep.lower_ratio == rep.J / (N * H * math.log(N) ** 4)
    assert rep.method == "sliding" and rep.mean_mode == "residue"
    row = rep.csv_row()
    assert len(row.split(",")) == len(CSV_HEADER.split(","))
    assert row.startswith("256,8,")


def test_integral_preconditions():
    N, H = 100, 10
    f = balanced_window(N, H)
    with pytest.raises(ValueError):
        selberg_integral(f, N, 30)  # H > N/4
    with pytest.raises(ValueError):
        selberg_integral(f, N, 12)  # window too small for H=12
    with pytest.raises(ValueError):
        selberg_integral(f, N, H, method="fancy")
    with pytest.raises(ValueError):
        selberg_integral(f, N, H, mean_mode="other")


# ------------------------------------------------------- the brute oracle


@st.composite
def _cells(draw):
    N = draw(st.integers(64, 4000))
    return N, draw(st.integers(1, N // 4))


@settings(max_examples=40, deadline=None)
@given(cell=_cells(), mean_mode=st.sampled_from(["residue", "window-poly"]))
def test_brute_equals_sliding_property(cell, mean_mode):
    N, H = cell
    f = balanced_window(N, H)
    q3 = residue_polynomial(3)
    a = integral_pair(f, N, H, q3, method="sliding", mean_mode=mean_mode)
    b = integral_pair(f, N, H, q3, method="brute", mean_mode=mean_mode)
    assert b.J == pytest.approx(a.J, rel=1e-9)
    assert b.J_tilde == pytest.approx(a.J_tilde, rel=1e-9)


@settings(max_examples=40, deadline=None)
@given(cell=_cells(), data=st.data())
def test_brute_deviations_equal_pointwise_sums(cell, data):
    # the brute profiles are direct window sums: the box one equals short_sum
    # bit for bit, the triangle one cesaro_sum up to the order of the products
    N, H = cell
    f = balanced_window(N, H)
    box = box_deviations(f, N + 1, 2 * N, H, method="brute")
    tri = triangle_deviations(f, N + 1, 2 * N, H, method="brute")
    xs = data.draw(st.lists(st.integers(N + 1, 2 * N), min_size=1, max_size=8))
    for x in xs + [N + 1, 2 * N]:
        assert box[x - N - 1] == short_sum(f, x, H)
        scale = max(float(np.sum(np.abs(f.slice(x - H - 1, x + H)))), 1.0)
        assert abs(tri[x - N - 1] - cesaro_sum(f, x, H)) <= 1e-12 * scale


def test_brute_triangle_memory_is_bounded():
    # an N x (2H+1) copy of the windows would take about 400 MB here
    N, H = 10**5, 250
    f = balanced_window(N, H)
    tracemalloc.start()
    try:
        triangle_deviations(f, N + 1, 2 * N, H, method="brute")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


# ------------------------------------------------- the lean residue path


def _first_deviations(f, x_first, x_last, H, poly, mean_mode, kind):
    """The sliding deviations as first written: a separate np.log for the
    means and a prefix sum built by np.concatenate."""
    g, mean = np.asarray(f.values, dtype=np.float64), 0.0
    if mean_mode == "residue":
        n = np.arange(f.lo, f.hi + 1, dtype=np.float64)
        xs = np.arange(x_first, x_last + 1, dtype=np.float64)
        g, mean = g + poly(np.log(n)), H * poly(np.log(xs))

    def box_sums(v, i0, count):
        prefix = np.concatenate(([0.0], np.cumsum(v)))
        return prefix[i0 + H : i0 + H + count] - prefix[i0 : i0 + count]

    count = x_last - x_first + 1
    if kind == "box":
        return box_sums(g, x_first + 1 - f.lo, count) - mean
    box = box_sums(g, x_first - H + 1 - f.lo, count + H - 1)
    return box_sums(box, 0, count) / H - mean


def _assert_first_bits(N, H, mean_modes):
    """Both profiles over the integral range and over each one's widest range
    (the box one starts at f.lo - 1, outside the window) carry the bits of
    _first_deviations, signed zeros included, and leave f.values untouched:
    in window-poly mode the summed array is f.values itself."""
    f = balanced_window(N, H)
    f_bits = f.values.view(np.int64).copy()
    q3 = residue_polynomial(3)
    for mean_mode in mean_modes:
        for kind, dev, ranges in (
            ("box", box_deviations, [(N + 1, 2 * N), (f.lo - 1, f.hi - H)]),
            ("triangle", triangle_deviations, [(N + 1, 2 * N), (f.lo + H, f.hi - H)]),
        ):
            for x_first, x_last in ranges:
                got = dev(f, x_first, x_last, H, q3, mean_mode)
                want = _first_deviations(f, x_first, x_last, H, q3, mean_mode, kind)
                assert np.array_equal(got.view(np.int64), want.view(np.int64))
                assert np.array_equal(f.values.view(np.int64), f_bits)


@settings(max_examples=30, deadline=None)
@given(cell=_cells(), mean_mode=st.sampled_from(["residue", "window-poly"]))
def test_deviations_keep_the_bits_of_the_first_formulas(cell, mean_mode):
    _assert_first_bits(*cell, [mean_mode])


@pytest.mark.parametrize("N", [2**16 + 5, 2**17 + 3])
@pytest.mark.parametrize("H", [1, 7, 250])
def test_deviations_keep_the_bits_across_box_blocks(N, H):
    # each range has more than 2^16 sums, so the in-place prefix differences
    # run over more than one block
    _assert_first_bits(N, H, ["residue", "window-poly"])


def _peak_in_window_arrays(N, H, fn, *args, **kwargs):
    """The traced peak of fn(*args, **kwargs) in float arrays of N + 2H."""
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / (8 * (N + 2 * H))


def test_sliding_cell_holds_three_window_arrays():
    # the balanced sequence needs its logs and the polynomial's output; a
    # sliding integral needs f plus the summed values, the means and a prefix
    N, H = 2**17, 64
    table = sieve_dk(N - H + 1, 2 * N + H, 3)
    q3 = residue_polynomial(3)
    assert _peak_in_window_arrays(N, H, balanced_sequence, table, q3, N, H) <= 2.25
    f = balanced_sequence(table, q3, N, H)
    for mean_mode, bound in (("residue", 3.25), ("window-poly", 2.25)):
        assert _peak_in_window_arrays(N, H, integral_pair, f, N, H, q3, mean_mode=mean_mode) <= bound
