"""Brute-force oracle tests: exact minima, sparse witnesses, digit classes."""

import heapq
import random

import pytest
from hypothesis import assume, given, strategies as st

from tmwitness import oracle
from tmwitness.digitcore import TheoremViolationError, thue_morse
from tmwitness.genbase import GenBaseQuery
from tmwitness.oracle import (
    f_and_zero_min,
    f_exact,
    g_min,
    min_weight_witness,
    zero_min,
)

# first twenty values of the least odd-weight multiplier
F_TABLE = [1, 1, 7, 1, 5, 7, 1, 1, 9, 5, 1, 7, 1, 1, 19, 1, 17, 9, 1, 5]


def test_f_exact_examples():
    assert f_exact(3) == 7
    assert f_exact(10) == 5
    assert f_exact(19) == 1


def test_f_exact_first_twenty():
    assert [f_exact(k) for k in range(1, 21)] == F_TABLE


def test_f_exact_rejects_zero():
    with pytest.raises(ValueError):
        f_exact(0)


def test_f_exact_even_reduction():
    for k in range(1, 1 << 15):
        assert f_exact(k) == f_exact(2 * k)


def test_f_exact_result_is_a_hit_and_minimal():
    rng = random.Random(3)
    for _ in range(300):
        k = rng.randrange(1, 1 << 20)
        n = f_exact(k)
        assert thue_morse(k * n) == 1
        assert all(thue_morse(k * m) == 0 for m in range(1, n))


def test_zero_min_examples():
    assert zero_min(1) == 3
    assert zero_min(3) == 1
    # 5 = 101 already has even weight, so the very first multiple qualifies
    assert zero_min(5) == 1
    assert zero_min(2) == 3
    assert zero_min(6) == 1
    assert zero_min(7) == 9


def test_zero_min_extreme_within_range():
    # the all-ones word of width 15 needs n = k + 2, the worst seen below 2^16
    assert zero_min(32767) == 32769


@given(st.integers(min_value=1, max_value=1 << 300))
def test_zero_min_ceiling_is_an_even_weight_multiplier(k):
    # k * (2^w + 1) is two copies of k that do not overlap, w = k.bit_length()
    ceiling = (1 << k.bit_length()) + 1
    assert thue_morse(k * ceiling) == 0
    assert ceiling <= 2 * k + 1


def test_zero_min_reaches_its_ceiling():
    # 2^w - 1 with w odd needs n = 2^w + 1, so the ceiling cannot be lowered
    for width in (1, 3, 5, 7, 9, 11, 13):
        k = (1 << width) - 1
        assert zero_min(k) == (1 << width) + 1


def test_zero_min_past_ceiling_raises(monkeypatch):
    # zero_min(1) is 3, so a ceiling of 2 is exhausted
    monkeypatch.setattr("tmwitness.oracle._zero_ceiling", lambda k: 2)
    with pytest.raises(TheoremViolationError, match="k=1"):
        zero_min(1)


def test_pair_walk_matches_both_walks_below_2_to_16():
    # even k included: the pair walks k itself, as f_exact and zero_min do
    for k in range(1, 1 << 16):
        assert f_and_zero_min(k) == (f_exact(k), zero_min(k))


def test_pair_walk_matches_both_walks_on_long_walks():
    # f(2^r + 1) = 2^r + 1 and f(4^r - 1) = 4^r + 3: the walks run to about k
    for r in range(1, 13):
        for k in ((1 << r) + 1, (1 << 2 * r) - 1):
            assert f_and_zero_min(k) == (f_exact(k), zero_min(k))


def _first(k, parity, cap=1 << 16):
    # the least n <= cap with s2(k*n) of the given parity, or None
    return next((n for n in range(1, cap + 1) if (k * n).bit_count() & 1 == parity), None)


@given(st.integers(min_value=1, max_value=(1 << 64) - 1))
def test_pair_walk_matches_both_walks_below_2_to_64(k):
    # words such as 2^64 - 1 need walks of about k steps, so they are left out
    f, zero = _first(k, 1), _first(k, 0)
    assume(f is not None and zero is not None)
    assert f_and_zero_min(k) == (f_exact(k), zero_min(k)) == (f, zero)


@pytest.mark.parametrize(
    "ceiling, k, message",
    [("_zero_ceiling", 1, "no even-weight multiple of k=1"), ("_f_ceiling", 3, "k=3")],
)
def test_pair_walk_past_ceiling_raises(monkeypatch, ceiling, k, message):
    # zero_min(1) is 3 and f(3) is 7, so a ceiling of 2 is exhausted in either arm
    monkeypatch.setattr(f"tmwitness.oracle.{ceiling}", lambda k: 2)
    with pytest.raises(TheoremViolationError, match=message):
        f_and_zero_min(k)


def test_min_weight_witness_frozen():
    assert min_weight_witness(51, 2, 32) is None
    assert min_weight_witness(3, 3, 8) == 7
    assert min_weight_witness(1, 1, 8) == 1


def test_min_weight_witness_cap_validation():
    with pytest.raises(ValueError):
        min_weight_witness(3, 0, 8)
    with pytest.raises(ValueError):
        min_weight_witness(3, 4, 8)
    with pytest.raises(ValueError):
        min_weight_witness(0, 2, 8)
    with pytest.raises(ValueError):
        min_weight_witness(3, 2, 0)


def test_min_weight_witness_is_least_of_its_class():
    rng = random.Random(9)
    for _ in range(150):
        k = rng.randrange(1, 5000)
        cap = rng.choice((1, 2, 3))
        got = min_weight_witness(k, cap, 12)
        eligible = [
            n for n in range(1, 1 << 12)
            if n.bit_count() <= cap and thue_morse(k * n) == 1
        ]
        assert got == (eligible[0] if eligible else None)


def test_min_weight_witness_exists_below_k_plus_4():
    # a weight-<=3 witness no larger than k + 4 exists for every k here
    for k in range(1, 1 << 12):
        got = min_weight_witness(k, 3, 13)
        assert got is not None
        assert got <= k + 4


def _sparse_values(weight, bit_limit):
    # ascending within the class: top bit outermost, recursing strictly below it
    if weight == 1:
        for position in range(bit_limit):
            yield 1 << position
        return
    for top in range(weight - 1, bit_limit):
        high = 1 << top
        for rest in _sparse_values(weight - 1, top):
            yield high | rest


def _reference_min_weight_witness(k, weight_cap, n_bit_limit):
    """The former search: every value of each weight class, classes merged in ascending order."""
    streams = [_sparse_values(weight, n_bit_limit) for weight in range(1, weight_cap + 1)]
    for n in heapq.merge(*streams):
        if thue_morse(k * n):
            return n
    return None


@given(
    st.integers(min_value=1, max_value=(1 << 14) - 1),
    st.sampled_from((1, 2, 3)),
    st.integers(min_value=1, max_value=40),
)
def test_min_weight_witness_matches_reference(k, cap, bit_limit):
    assert min_weight_witness(k, cap, bit_limit) == _reference_min_weight_witness(k, cap, bit_limit)


def test_min_weight_witness_matches_reference_on_small_grid():
    for k in range(1, 1 << 12):
        for cap in (1, 2, 3):
            for bit_limit in (1, 2, 3, 5, 8, 13, 24):
                want = _reference_min_weight_witness(k, cap, bit_limit)
                assert min_weight_witness(k, cap, bit_limit) == want, (k, cap, bit_limit)


def test_min_weight_witness_stops_at_the_width(monkeypatch):
    # no weight-2 hit exists for 3 * 2^r + 3, so only the bound ends the search:
    # n = 1 and 2^d + 1 for d < w are w products, whatever the bit limit
    k = 3 * 2**4000 + 3
    calls = []

    def counted(n):
        calls.append(n)
        if len(calls) > k.bit_length() + 2:
            raise AssertionError("searched past the proven bound")
        return thue_morse(n)

    monkeypatch.setattr(oracle, "thue_morse", counted)
    assert min_weight_witness(k, 2, 10**9) is None
    assert len(calls) == k.bit_length()


def test_min_weight_witness_cap_three_on_the_family():
    # the least weight-3 witness of 3 * 2^r + 3, found below 2^(2w) by both searches
    for exponent in (4, 20, 60):
        k = 3 * 2**exponent + 3
        want = _reference_min_weight_witness(k, 3, 2 * k.bit_length())
        assert want is not None and want.bit_count() == 3
        assert min_weight_witness(k, 3, 10**9) == want


def test_g_min_frozen():
    assert g_min(GenBaseQuery(2, 2, 1, 3)) == 7
    assert g_min(GenBaseQuery(10, 2, 1, 7)) == 1
    assert g_min(GenBaseQuery(2, 1, 0, 1)) == 1


def test_g_min_matches_f_exact_sample():
    for k in range(1, 513):
        assert g_min(GenBaseQuery(2, 2, 1, k)) == f_exact(k)


def test_g_min_negative_class_normalized():
    assert g_min(GenBaseQuery(2, 2, -1, 3)) == g_min(GenBaseQuery(2, 2, 1, 3))


def test_f_exact_violation_when_bound_forced_too_low(monkeypatch):
    monkeypatch.setattr("tmwitness.oracle._f_ceiling", lambda k: 2)
    with pytest.raises(TheoremViolationError):
        f_exact(3)
