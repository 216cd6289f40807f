import math
import struct
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from selberg_lab._util import _SUM_CHUNK, compensated_sum

DBL_MAX = sys.float_info.max
TINY = 5e-324  # the smallest subnormal


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _assert_matches_fsum(a: np.ndarray) -> None:
    """compensated_sum(a) equals math.fsum(a) bit for bit, raising what fsum raises.

    The one allowed difference: where fsum overflows on an intermediate sum but
    the exact total rounds to a finite double, the accumulator returns it.
    """
    try:
        expected = math.fsum(a)
    except OverflowError:
        try:
            exact = float(sum(map(Fraction, a.tolist()), Fraction(0)))
        except OverflowError:
            with pytest.raises(OverflowError):
                compensated_sum(a)
            return
        assert _bits(compensated_sum(a)) == _bits(exact)
        return
    except ValueError:
        with pytest.raises(ValueError):
            compensated_sum(a)
        return
    assert _bits(compensated_sum(a)) == _bits(expected)


finite = st.floats(allow_nan=False, allow_infinity=False)
# m * 2**e with |m| < 1 and e over the whole double range, subnormals included
spread = st.builds(
    math.ldexp,
    st.floats(-1.0, 1.0, exclude_min=True, exclude_max=True),
    st.integers(-1074, 1024),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(finite, spread), max_size=60))
def test_matches_fsum_on_mixed_signs_and_exponents(values):
    _assert_matches_fsum(np.array(values, dtype=np.float64))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(-(2**52), 2**52), min_size=1, max_size=40), st.integers(1, 4))
def test_matches_fsum_on_subnormals(units, scale):
    _assert_matches_fsum(np.array([u * TINY * scale for u in units]))


@settings(max_examples=100, deadline=None)
@given(
    big=st.lists(st.floats(1e299, DBL_MAX), min_size=1, max_size=20),
    small=st.lists(finite.filter(lambda x: abs(x) < 1e10), max_size=20),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_fsum_on_cancelling_large_pairs(big, small, seed):
    # each +x has a -x somewhere else, so the total is the small values alone
    a = np.array(big + [-x for x in big] + small)
    _assert_matches_fsum(np.random.default_rng(seed).permutation(a))


@settings(max_examples=25, deadline=None)
@given(
    base=st.lists(st.one_of(finite, spread), min_size=1, max_size=16),
    length=st.sampled_from([_SUM_CHUNK - 1, _SUM_CHUNK, _SUM_CHUNK + 1, 2 * _SUM_CHUNK + 7]),
    seed=st.integers(0, 2**32 - 1),
)
def test_matches_fsum_across_chunk_boundaries(base, length, seed):
    rng = np.random.default_rng(seed)
    a = np.resize(np.array(base), length) * rng.choice([-1.0, 1.0], length)
    _assert_matches_fsum(a)


@pytest.mark.parametrize("value", [np.nextafter(2.0, 0.0), -np.nextafter(2.0, 0.0),
                                   1.0 + (2**26 - 1) * 2.0**-52, DBL_MAX / 4])
def test_full_mantissas_fill_every_chunk_exactly(value):
    # the largest halves a bucket can receive, in every slot of three chunks
    _assert_matches_fsum(np.full(3 * _SUM_CHUNK + 5, value))


@pytest.mark.parametrize("values, expected", [
    ([], 0.0),
    ([-0.0, -0.0], math.fsum([-0.0, -0.0])),
    ([-0.0], math.fsum([-0.0])),
    ([1.0, -1.0, -0.0], 0.0),
    ([1.0, math.inf, -5.0], math.inf),
    ([-math.inf, 2.0], -math.inf),
])
def test_fixed_cases(values, expected):
    assert _bits(compensated_sum(np.array(values, dtype=np.float64))) == _bits(expected)


def test_nan_propagates():
    assert math.isnan(compensated_sum(np.array([1.0, math.nan, 2.0])))


def test_opposite_infinities_raise_like_fsum():
    a = np.array([1.0, math.inf, -math.inf])
    with pytest.raises(ValueError):
        math.fsum(a)
    with pytest.raises(ValueError):
        compensated_sum(a)


def test_overflowing_total_raises_like_fsum():
    a = np.array([DBL_MAX, DBL_MAX / 2, 1.0])
    with pytest.raises(OverflowError):
        math.fsum(a)
    with pytest.raises(OverflowError):
        compensated_sum(a)


def test_intermediate_overflow_with_finite_total_is_rounded():
    # fsum gives up on DBL_MAX + DBL_MAX; the exact total is DBL_MAX
    a = np.array([DBL_MAX, DBL_MAX, -DBL_MAX])
    with pytest.raises(OverflowError):
        math.fsum(a)
    assert compensated_sum(a) == DBL_MAX
    assert _bits(compensated_sum(np.array([DBL_MAX, DBL_MAX, -DBL_MAX, -DBL_MAX]))) == _bits(0.0)


def test_strided_inputs():
    rng = np.random.default_rng(7)
    z = rng.standard_normal(3 * _SUM_CHUNK) + 1j * rng.standard_normal(3 * _SUM_CHUNK)
    for a in (np.real(z), np.imag(z), np.real(z)[::-3]):
        assert not a.flags.c_contiguous
        assert _bits(compensated_sum(a)) == _bits(math.fsum(a))


def test_accepts_sequences_and_integer_arrays():
    assert compensated_sum([0.1] * 10) == math.fsum([0.1] * 10)
    assert compensated_sum(np.arange(1000)) == 499500.0


def test_memory_stays_chunk_sized():
    # whole-array temporaries for 10^6 doubles would take 8 MB each
    a = np.random.default_rng(3).standard_normal(10**6) ** 2
    tracemalloc.start()
    try:
        compensated_sum(a)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20
