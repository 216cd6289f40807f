import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import oracles
from selberg_lab import arith_core
from selberg_lab._util import primes_upto
from selberg_lab.arith_core import (
    DEFAULT_STIELTJES,
    BalancedSequence,
    DivisorTable,
    LogPolynomial,
    StieltjesConstants,
    Window,
    balanced_sequence,
    balanced_window,
    load_table,
    residue_polynomial,
    save_table,
    sieve_dk,
    stieltjes_constant,
    summatory_polynomial,
)

G0 = float(stieltjes_constant(0))
G1 = float(stieltjes_constant(1))


# ---------------------------------------------------------------- sieve


def test_sieve_first_values():
    assert sieve_dk(1, 6, 3).values.tolist() == [1, 3, 3, 6, 3, 9]


def test_sieve_spot_values():
    t = sieve_dk(1, 130, 3)
    assert t.value(1) == 1
    assert t.value(101) == 3  # permutations of (1, 1, p)
    assert t.value(8) == 10  # C(5, 2)


def test_sieve_matches_enumeration_small():
    limit = 3000
    for k in (2, 3):
        table = sieve_dk(1, limit, k)
        assert table.values.tolist() == oracles.dk_by_enumeration(limit, k)


def test_sieve_window_against_full():
    full = sieve_dk(1, 20000, 3)
    window = sieve_dk(17321, 19999, 3)
    assert np.array_equal(window.values, full.values[17320:19999])


def test_sieve_chunking_boundaries(monkeypatch):
    monkeypatch.setattr(arith_core, "_SIEVE_CHUNK", 997)
    chunked = sieve_dk(1, 5000, 3)
    monkeypatch.undo()
    assert np.array_equal(chunked.values, sieve_dk(1, 5000, 3).values)


def test_sieve_multiplicativity(table_1e6):
    rng = np.random.default_rng(42)
    done = 0
    while done < 500:
        m = int(rng.integers(2, 1000))
        n = int(rng.integers(2, 1000))
        if math.gcd(m, n) != 1:
            continue
        assert table_1e6.value(m * n) == table_1e6.value(m) * table_1e6.value(n)
        done += 1


@settings(max_examples=60, deadline=None)
@given(m=st.integers(1, 10**4), n=st.integers(1, 10**4))
def test_sieve_multiplicative_on_coprime_pairs(m, n):
    # each value from its own one-entry window, so the segment offsets vary too
    assume(math.gcd(m, n) == 1)
    d3 = lambda x: int(sieve_dk(x, x, 3).values[0])
    assert d3(m * n) == d3(m) * d3(n)


def test_sieve_entries_at_least_one(table_1e6):
    assert int(table_1e6.values.min()) >= 1
    assert table_1e6.value(1) == 1


def test_sieve_invalid_ranges():
    with pytest.raises(ValueError):
        sieve_dk(10, 5, 3)
    with pytest.raises(ValueError):
        sieve_dk(0, 5, 3)
    with pytest.raises(ValueError):
        sieve_dk(1, 5, 1)


def test_sieve_overflow_signals():
    # d_64(2^30) = C(93, 63) > 2^63: must raise, never wrap
    with pytest.raises(OverflowError):
        sieve_dk(2**30 - 4, 2**30 + 4, 64)


def test_sieve_overflow_at_a_prime_power_factor():
    # n = 2^9 * 3^7 < 2^21, and d_55(2^20) = C(74, 20) fits, so the factor table
    # passes; d_55(2^9) * d_55(3^7) = C(63, 9) * C(61, 7) > 2^63 overflows at
    # the factor of 3^7 (found by a Python-int search)
    n = 2**9 * 3**7
    assert math.comb(74, 20) <= arith_core.INT64_MAX
    assert math.comb(63, 9) <= arith_core.INT64_MAX < math.comb(63, 9) * math.comb(61, 7)
    below = sieve_dk(n - 4, n - 1, 55).values
    assert below.tolist() == [oracles.dk_by_factoring(m, 55) for m in range(n - 4, n)]
    with pytest.raises(OverflowError):
        sieve_dk(n - 4, n + 4, 55)


def test_sieve_overflow_at_the_large_prime_factor(monkeypatch):
    # a Python-int search found no n < 2^45 that overflows at the last step
    # (times k for the prime above sqrt(hi)) while the factor table fits, so
    # the range is lowered:
    # n = 210 * 211 with 211 > sqrt(n) has d_3(n) = 3^4 * 3 = 243
    n = 210 * 211
    monkeypatch.setattr(arith_core, "INT64_MAX", 243)
    assert sieve_dk(n, n, 3).values.tolist() == [243]
    monkeypatch.setattr(arith_core, "INT64_MAX", 242)
    with pytest.raises(OverflowError):
        sieve_dk(n, n, 3)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([2, 3, 5, 7, 11]),
    e=st.integers(1, 12),
    offset=st.integers(-1, 1),
    chunk=st.integers(1, 200),
    before=st.integers(0, 3),
    span=st.integers(0, 3000),
    k=st.sampled_from([2, 3, 4, 7]),
)
def test_strided_sieve_equals_trial_division(p, e, offset, chunk, before, span, k):
    # a chunk edge falls on, or next to, the prime power p^e
    edge = p**e + offset
    assume(edge - before * chunk >= 1)
    lo = edge - before * chunk
    hi = lo + span
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(arith_core, "_SIEVE_CHUNK", chunk)
        strided = sieve_dk(lo, hi, k).values
    primes = primes_upto(math.isqrt(hi))
    binom = arith_core._binomial_factors(k, hi)
    assert strided.tolist() == oracles.sieve_chunk_trial_division(lo, hi, k, primes, binom).tolist()


@pytest.fixture(scope="module")
def table_1e6():
    return sieve_dk(1, 10**6, 3)


# ------------------------------------------------------- Stieltjes data


def test_stieltjes_brackets():
    assert Decimal("0.577") < stieltjes_constant(0) < Decimal("0.578")
    assert Decimal("-0.073") < stieltjes_constant(1) < Decimal("-0.072")
    assert stieltjes_constant(1) < 0 < stieltjes_constant(0)


def test_stieltjes_out_of_range():
    with pytest.raises(ValueError):
        stieltjes_constant(3)
    with pytest.raises(ValueError):
        stieltjes_constant(-1)


def test_stieltjes_against_euler_maclaurin():
    import mpmath as mp

    for j in range(3):
        oracle = oracles.stieltjes_euler_maclaurin(j)
        stored = mp.mpf(str(stieltjes_constant(j)))
        assert abs(oracle - stored) < mp.mpf(10) ** (-30)


def test_stieltjes_bracket_guard():
    with pytest.raises(ValueError):
        StieltjesConstants((Decimal("0.6"),))


# -------------------------------------------------- residue polynomial


def test_residue_polynomial_small_orders():
    assert residue_polynomial(1).coeffs == (1.0,)
    q2 = residue_polynomial(2)
    assert len(q2.coeffs) - 1 == 1
    np.testing.assert_allclose(q2.coeffs, (2 * G0, 1.0), rtol=1e-12)
    q3 = residue_polynomial(3)
    assert len(q3.coeffs) - 1 == 2
    np.testing.assert_allclose(q3.coeffs, (3 * G0 * G0 - 3 * G1, 3 * G0, 0.5), rtol=1e-12)
    assert q3.coeffs[2] == 0.5  # 1/(k-1)! exactly


def test_residue_polynomial_needs_constants():
    with pytest.raises(ValueError):
        residue_polynomial(5)  # would need gamma_3
    with pytest.raises(ValueError):
        residue_polynomial(0)


def test_summatory_polynomial_inverts_derivative():
    q = residue_polynomial(3)
    p = summatory_polynomial(q)
    # check P + P' = q coefficientwise
    for m in range(len(q.coeffs)):
        dp = (m + 1) * p.coeffs[m + 1] if m + 1 < len(p.coeffs) else 0.0
        assert math.isclose(p.coeffs[m] + dp, q.coeffs[m], rel_tol=1e-15, abs_tol=1e-15)


def test_summatory_k2_matches_classical_form():
    # X log X + (2 gamma_0 - 1) X is the classical two-divisor main term
    p = summatory_polynomial(residue_polynomial(2))
    np.testing.assert_allclose(p.coeffs, (2 * G0 - 1.0, 1.0), rtol=1e-12)
    X = 10**6
    total = int(np.sum(sieve_dk(1, X, 2).values))
    main = X * math.log(X) + (2 * G0 - 1.0) * X
    # true error is O(sqrt(X)); allow a factor for the constant
    assert abs(total - main) < 20 * math.sqrt(X)


def test_residue_polynomial_k4_against_summatory():
    # k = 4 exercises the gamma_2 coefficient of the series power
    q4 = residue_polynomial(4)
    assert len(q4.coeffs) - 1 == 3
    assert q4.coeffs[3] == pytest.approx(1.0 / 6.0, rel=1e-15)
    assert q4.coeffs[2] == pytest.approx(2 * G0, rel=1e-12)
    P = summatory_polynomial(q4)
    X = 10**6
    total = int(np.sum(sieve_dk(1, X, 4).values))
    main = X * P(math.log(X)) - P(0.0)
    assert abs(total - main) < 0.005 * main


def test_log_polynomial_eval():
    q = LogPolynomial((1.0, 2.0, 0.5))
    assert q(0.0) == 1.0
    assert math.isclose(q(2.0), 1 + 4 + 2.0)
    np.testing.assert_allclose(q(np.array([0.0, 1.0])), [1.0, 3.5])


def test_log_polynomial_in_place_horner_keeps_the_bits():
    q = residue_polynomial(3)

    def expression(L):
        acc = np.zeros_like(np.asarray(L, dtype=np.float64))
        for c in reversed(q.coeffs):
            acc = acc * L + c
        return acc

    for L in (np.log(np.arange(1, 30001, dtype=np.float64)), np.arange(-50, 50),
              np.linspace(-3.0, 40.0, 999)[::2]):
        assert np.array_equal(q(L), expression(L))
    for x in (0.0, 1.0, math.log(10**6), -2.5):
        assert type(q(x)) is float
        assert q(x) == float(expression(x))


# ----------------------------------------------------- balanced window


def test_balanced_zero_poly_is_divisor_table():
    table = sieve_dk(1, 400, 3)
    f = balanced_sequence(table, LogPolynomial((0.0,)), 120, 30)
    assert np.array_equal(f.values, table.values[90:270].astype(float))


def test_balanced_value_at_one():
    f = balanced_window(10, 10)
    expected = 1.0 - (3 * G0 * G0 - 3 * G1)
    assert math.isclose(f.value(1), expected, rel_tol=1e-12)


def test_balanced_reconstructs_integers(balanced_1e4):
    f = balanced_1e4
    q = residue_polynomial(3)
    n = np.arange(f.lo, f.hi + 1, dtype=np.float64)
    back = f.values + q(np.log(n))
    assert np.max(np.abs(back - np.round(back))) < 1e-10


def test_balanced_window_metadata(balanced_1e4):
    f = balanced_1e4
    assert f.lo == 10**4 - 40 + 1
    assert len(f.values) == 10**4 + 2 * 40
    assert f.truncated().shape == (10**4,)


def test_balanced_requires_coverage():
    table = sieve_dk(1, 100, 3)
    with pytest.raises(ValueError):
        balanced_sequence(table, residue_polynomial(3), 100, 10)


def test_balanced_invariant_checks():
    with pytest.raises(ValueError):
        BalancedSequence(lo=5, values=np.zeros(10), N=10, H=2)
    with pytest.raises(ValueError):
        BalancedSequence(lo=9, values=np.zeros(3), N=10, H=2)


def test_balanced_tiny_window_runs():
    f = balanced_window(10, 2)
    assert len(f.values) == 14
    assert f.lo == 9


def test_window_accessors():
    w = Window(lo=5, values=np.arange(4.0))
    assert w.hi == 8
    assert w.value(6) == 1.0
    assert w.slice(5, 8).tolist() == [1.0, 2.0, 3.0]
    with pytest.raises(ValueError):
        w.value(4)
    with pytest.raises(ValueError):
        w.slice(3, 8)
    with pytest.raises(ValueError):
        w.slice(5, 9)


def test_balanced_mean_small_against_divisor_mean(balanced_1e6):
    f = balanced_1e6
    N = f.N
    trunc = f.truncated()
    q = residue_polynomial(3)
    n = np.arange(N + 1, 2 * N + 1, dtype=np.float64)
    d3_mean = float(np.mean(trunc + q(np.log(n))))
    # the balanced mean decays only like a power of log; 2% is a guard
    assert abs(float(np.mean(trunc))) < 0.02 * d3_mean


# ---------------------------------------------------------- binary cache


def test_table_roundtrip(tmp_path):
    table = sieve_dk(50, 250, 3)
    path = tmp_path / "t.bin"
    save_table(table, path)
    back = load_table(path)
    assert back.lo == table.lo and back.k == table.k
    assert np.array_equal(back.values, table.values)
    assert path.stat().st_size == 24 + 8 * len(table.values)


def test_table_of_a_view_roundtrips(tmp_path):
    # a table cut from a larger one saves exactly the bytes of a table sieved alone
    whole = sieve_dk(40, 300, 3)
    part = DivisorTable(lo=50, values=whole.slice(49, 250), k=3)
    assert part.values.base is not None
    save_table(part, tmp_path / "part.bin")
    save_table(sieve_dk(50, 250, 3), tmp_path / "alone.bin")
    assert (tmp_path / "part.bin").read_bytes() == (tmp_path / "alone.bin").read_bytes()
    back = load_table(tmp_path / "part.bin")
    assert (back.lo, back.k) == (50, 3)
    assert np.array_equal(back.values, part.values)


def test_table_rejects_corruption(tmp_path):
    table = sieve_dk(1, 50, 2)
    path = tmp_path / "t.bin"
    save_table(table, path)
    raw = bytearray(path.read_bytes())
    raw[:4] = b"XXXX"
    bad = tmp_path / "bad.bin"
    bad.write_bytes(bytes(raw))
    with pytest.raises(ValueError):
        load_table(bad)
    # a short header, one value short, a value cut in half, one value more
    blob = path.read_bytes()
    for cut in (blob[:10], blob[:-8], blob[:-1], blob + bytes(8)):
        short = tmp_path / "short.bin"
        short.write_bytes(cut)
        with pytest.raises(ValueError):
            load_table(short)

