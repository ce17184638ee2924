"""Brute-force oracle tests: exact minima, sparse witnesses, digit classes."""

import heapq
import random

import pytest
from hypothesis import assume, given, strategies as st

from tmwitness import oracle
from tmwitness.digitcore import TheoremViolationError, thue_morse
from tmwitness.genbase import GenBaseQuery
from tmwitness.oracle import (
    f_and_zero_mins,
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


def _every_n(k, parity, cap):
    """The least n <= cap, even n included, with s2(k*n) of the given parity, or None."""
    return next((n for n in range(1, cap + 1) if (k * n).bit_count() & 1 == parity), None)


def test_walks_match_an_every_n_walk_below_2_to_12():
    # the walks skip even n; this reference tries every n up to the ceilings
    for k in range(1, 1 << 12):
        assert f_exact(k) == _every_n(k, 1, k + 4)
        assert zero_min(k) == _every_n(k, 0, 2 * k + 1)


def _batch_matches_per_k(ks):
    assert f_and_zero_mins(ks) == ([f_exact(k) for k in ks], [zero_min(k) for k in ks])


def test_pair_walk_matches_both_walks_below_2_to_16():
    # the scan's batches, 1024 consecutive odd k, and the even k in batches
    # alike, whose answers are those of their odd cores
    for start in range(1, 1 << 16, 2048):
        _batch_matches_per_k(range(start, start + 2048, 2))
        _batch_matches_per_k(range(start + 1, min(start + 2049, 1 << 16), 2))


def test_pair_walk_matches_both_walks_on_long_walks():
    # f(2^r + 1) = 2^r + 1, f(4^r - 1) = 4^r + 3 and zero_min(2^r - 1) = 2^r + 1
    # for odd r: the last k open in a batch, so each ends in the per-k walk
    family = sorted({(1 << r) + 1 for r in range(1, 21)} | {(1 << r) - 1 for r in range(1, 21)})
    assert (1 << 20) - 1 in family  # 4^10 - 1, the largest 4^r - 1 here; 4^11 - 1 and 4^12 - 1 are below
    for k in family:
        _batch_matches_per_k(range(max(1, k - 2046), k + 1, 2))
        _batch_matches_per_k([k])
    _batch_matches_per_k(family)


@pytest.mark.parametrize("r", [11, 12])
@pytest.mark.parametrize("alone", [True, False])
def test_pair_walk_reaches_the_ceiling_of_4_to_the_r_minus_1(r, alone):
    # f(4^r - 1) = 4^r + 3, the ceiling k + 4 itself, and 4^r - 1 has even
    # weight: the longest walks, alone and as the last k open in a 1024-k
    # batch, stated rather than walked a second time by f_exact
    k = (1 << 2 * r) - 1
    batch = [k] if alone else range(k - 2046, k + 1, 2)
    fs, zeros = f_and_zero_mins(batch)
    assert (fs[-1], zeros[-1]) == (k + 4, 1)
    assert (fs[:-1], zeros[:-1]) == ([f_exact(j) for j in batch[:-1]], [zero_min(j) for j in batch[:-1]])


@pytest.mark.parametrize("parity", [0, 1])
@pytest.mark.parametrize("extra", [0, 1])
def test_batch_with_the_few_open_left_and_one_more(monkeypatch, parity, extra):
    # k of even weight leave their f open after n = 1, and k of odd weight their
    # zero_min: _FEW_OPEN of them go straight to the per-k walk, one more takes a pass
    ks = [k for k in range(3, 400, 2) if k.bit_count() & 1 != parity][: oracle._FEW_OPEN + extra]
    walked = []
    walk = oracle._walk

    def counted(k, wanted, limit, start=1):
        walked.append(start)
        return walk(k, wanted, limit, start)

    monkeypatch.setattr(oracle, "_walk", counted)
    fs, zeros = f_and_zero_mins(ks)
    monkeypatch.setattr(oracle, "_walk", walk)
    assert (fs, zeros) == ([f_exact(k) for k in ks], [zero_min(k) for k in ks])
    if extra:
        assert len(walked) < len(ks) and all(start > 3 for start in walked)  # a pass ran first
    else:
        assert walked == [3] * len(ks)


# batches in any order that repeat some k and hold even k, whose answers are their halves'
_batches = st.lists(st.integers(min_value=1, max_value=(1 << 64) - 1), max_size=40).flatmap(
    lambda ks: st.permutations(ks + ks[: len(ks) // 2] + [2 * k for k in ks[:5]])
)


@given(_batches)
def test_pair_walk_matches_both_walks_below_2_to_64(ks):
    # words whose walks run to about k are left out, as _every_n caps them
    answers = [(_every_n(k, 1, 1 << 16), _every_n(k, 0, 1 << 16)) for k in ks]
    assume(None not in {n for pair in answers for n in pair})
    fs, zeros = f_and_zero_mins(ks)
    assert list(zip(fs, zeros)) == answers
    assert (fs, zeros) == ([f_exact(k) for k in ks], [zero_min(k) for k in ks])


def test_batch_rejects_a_k_below_one():
    assert f_and_zero_mins([]) == ([], [])
    with pytest.raises(ValueError):
        f_and_zero_mins([3, 0])


@pytest.mark.parametrize(
    "ceiling, k, message",
    [("_zero_ceiling", 1, "no even-weight multiple of k=1"), ("_f_ceiling", 3, "k=3")],
)
def test_pair_walk_past_ceiling_raises(monkeypatch, ceiling, k, message):
    # zero_min(1) is 3 and f(3) is 7, so a ceiling of 2 is exhausted in either arm
    monkeypatch.setattr(f"tmwitness.oracle.{ceiling}", lambda k: 2)
    with pytest.raises(TheoremViolationError, match=message):
        f_and_zero_mins([k])


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
