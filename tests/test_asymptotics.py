from fractions import Fraction

import numpy as np
import pytest

from selberg_lab.asymptotics import (
    E_exponent,
    balance_check,
    eps_exponent,
    exponent_map,
    fit_exponent,
    optimal_eps_E,
)


def test_exponent_map_key_values():
    assert exponent_map(0) == Fraction(6, 5)
    assert exponent_map(Fraction(1, 2)) == Fraction(14, 9)


def test_exponent_map_rejects_outside():
    with pytest.raises(ValueError):
        exponent_map(1)
    with pytest.raises(ValueError):
        exponent_map(Fraction(-1, 10))
    with pytest.raises(TypeError):
        exponent_map(0.3)


def test_exponent_map_monotone_and_below_trivial():
    prev = None
    for i in range(100):
        v = exponent_map(Fraction(i, 100))
        if prev is not None:
            assert v > prev
        prev = v
    assert prev < 2  # the trivial bound exponent is the A -> 1 limit


def test_balance_check_grid():
    for i in range(10):
        assert balance_check(Fraction(i, 10))


def test_balance_exponents_at_reference_points():
    assert 2 * eps_exponent(0) == Fraction(-4, 5)
    assert 2 * eps_exponent(Fraction(1, 2)) == Fraction(-4, 9)
    assert eps_exponent(0) == Fraction(-2, 5)
    assert E_exponent(0) == Fraction(-1, 10)


def test_optimal_eps_E_examples():
    p = optimal_eps_E(0, 10**5)
    assert p.eps == pytest.approx(1e-2, rel=1e-12)
    assert p.E == pytest.approx(10**-0.5, rel=1e-12)
    assert optimal_eps_E(0, 32).eps == pytest.approx(0.25, rel=1e-12)


def test_optimal_eps_E_order_and_balance():
    rng = np.random.default_rng(17)
    for _ in range(100):
        A = Fraction(int(rng.integers(0, 100)), 100)
        H = int(rng.integers(2, 10**6))
        p = optimal_eps_E(A, H)  # raises if the three terms disagree
        assert 0 < p.eps < p.E < 1


def test_eps_over_E_decreases():
    ratios = [optimal_eps_E(0, H).eps / optimal_eps_E(0, H).E for H in (100, 1000, 10000)]
    assert ratios[0] > ratios[1] > ratios[2]


def test_optimal_eps_E_guards():
    with pytest.raises(ValueError):
        optimal_eps_E(0, 1)


def test_fit_exact_power_law():
    samples = [(10**6, H, 10**6 * H**1.4) for H in (50, 100, 200, 400)]
    rep = fit_exponent(samples, delta=0.02)
    assert rep.A_hat == pytest.approx(0.4, abs=1e-12)
    assert rep.residual < 1e-12
    assert rep.H_range == (50, 400)
    assert rep.empirical_only


def test_fit_two_point_line():
    rep = fit_exponent([(10**6, 100, 1e8), (10**6, 400, 4e8)], delta=0.05)
    assert rep.slope == pytest.approx(1.0, abs=1e-12)
    assert rep.A_hat == pytest.approx(0.0, abs=1e-12)


def test_fit_regime_floor():
    # H = 5 sits inside a wide delta band at N = 10^6 but below N^0.2
    with pytest.raises(ValueError):
        fit_exponent([(10**6, 5, 1e6), (10**6, 50, 1e7)], delta=0.1, eta=0.2)
    rep = fit_exponent([(10**6, 50, 1e7), (10**6, 100, 2e7)], delta=0.1, eta=0.2)
    assert rep.delta == 0.1


def test_fit_guards():
    with pytest.raises(ValueError):
        fit_exponent([(10**6, 100, 1e8)])
    with pytest.raises(ValueError):
        fit_exponent([(10**6, 100, 1e8), (10**6, 100, 2e8)], delta=0.05)  # same H
    with pytest.raises(ValueError):
        fit_exponent([(10**6, 100, 1e8), (10**6, 400, 4e8)], delta=0.1)  # 400 > N^0.4
    with pytest.raises(ValueError):
        fit_exponent([(10**6, 100, 0.0), (10**6, 200, 1e8)], delta=0.05)
    with pytest.raises(ValueError):
        fit_exponent([(10**6, 100, 1e8), (10**6, 200, 2e8)], delta=0.7)
