"""Unit tests for digit sums, words, slices, runs, the subtraction identity, and bit planes."""

import random
from functools import reduce
from itertools import islice
from operator import xor

import pytest
from hypothesis import given, strategies as st

from tmwitness.digitcore import (
    RunDecomposition,
    _first_block,
    _parity_blocks,
    lower_slice,
    run_decompose,
    shifted_difference_digit_sum,
    sum_digits,
    thue_morse,
    to_word,
    upper_slice,
)


def test_sum_digits_examples():
    assert sum_digits(10, 0) == 0
    assert sum_digits(2, 119759) == 12
    assert sum_digits(10, 63) == 9
    assert sum_digits(10, 119759) == 32
    assert sum_digits(7, 0) == 0


def test_sum_digits_rejects_bad_base():
    with pytest.raises(ValueError):
        sum_digits(1, 5)
    with pytest.raises(ValueError):
        sum_digits(0, 5)
    with pytest.raises(ValueError):
        sum_digits(10, -1)


def test_sum_digits_binary_agrees_with_division_loop():
    # the base-2 branch takes the popcount shortcut; force both paths to meet
    rng = random.Random(11)
    for _ in range(2000):
        n = rng.randrange(0, 1 << rng.randrange(1, 140))
        slow = 0
        m = n
        while m:
            slow += m & 1
            m >>= 1
        assert sum_digits(2, n) == slow


def test_thue_morse_small_values():
    assert thue_morse(0) == 0
    assert thue_morse(1) == 1
    assert thue_morse(3) == 0
    assert [thue_morse(n) for n in range(8)] == [0, 1, 1, 0, 1, 0, 0, 1]


def test_thue_morse_recurrences_exhaustive():
    for n in range(1 << 16):
        assert thue_morse(2 * n) == thue_morse(n)
        assert thue_morse(2 * n + 1) == 1 - thue_morse(n)


def test_to_word():
    assert to_word(1) == "1"
    assert to_word(51) == "110011"
    assert len(to_word(119759)) == 17
    assert to_word(119759) == "111" "0" "1" "00" "1111" "00" "1111"
    with pytest.raises(ValueError):
        to_word(0)


def test_slices_on_worked_example():
    assert lower_slice(119759, 8) == "11001111"
    assert upper_slice(119759, 12) == "111010011110"
    assert upper_slice(51, 6) == "110011"
    assert upper_slice(119759, 12) + lower_slice(119759, 5) == to_word(119759)


@pytest.mark.parametrize("bad_j", [0, -1, 7, 100])
def test_slice_width_out_of_range(bad_j):
    with pytest.raises(ValueError):
        lower_slice(51, bad_j)
    with pytest.raises(ValueError):
        upper_slice(51, bad_j)


def test_slice_concatenation_covers_word():
    for k in (51, 119759, 2**40 + 7):
        width = len(to_word(k))
        for j in range(1, width):
            assert upper_slice(k, j) + lower_slice(k, width - j) == to_word(k)


def test_run_decompose_examples():
    d = run_decompose(51)
    assert d.runs == (2, 2, 2)
    assert (d.lead_ones, d.lead_zeros, d.gap_zeros, d.tail_ones) == (2, 2, 2, 2)
    assert run_decompose(7).runs == (3,)
    assert run_decompose(119759).runs == (3, 1, 1, 2, 4, 2, 4)


def test_run_decompose_rejects_even_and_zero():
    with pytest.raises(ValueError):
        run_decompose(6)
    with pytest.raises(ValueError):
        run_decompose(0)


def test_run_accessors_absent_runs_signal():
    allones = run_decompose(7)
    assert allones.lead_ones == 3
    assert allones.tail_ones == 3
    for accessor in ("lead_zeros", "gap_zeros", "mid_ones", "above_gap_bit"):
        with pytest.raises(ValueError):
            getattr(allones, accessor)


def test_above_gap_bit_positions():
    # 51 = 110011: probing above the gap lands on the word's top bit
    assert run_decompose(51).above_gap_bit == 1
    # 119759 tail is 1111 under 00; position 7 sits inside the mid ones-run
    assert run_decompose(119759).above_gap_bit == 1
    # 41 = 101001: position gap_zeros + tail_ones + 1 = 4 holds a 0
    assert run_decompose(41).above_gap_bit == 0


def test_above_gap_bit_matches_direct_indexing():
    for k in range(3, 1 << 14, 2):
        d = run_decompose(k)
        try:
            position = d.gap_zeros + d.tail_ones + 1
        except ValueError:
            continue
        if position >= d.length:
            with pytest.raises(ValueError):
                d.above_gap_bit
        else:
            assert d.above_gap_bit == (k >> position) & 1


def test_run_round_trip():
    for k in range(1, 1 << 16, 2):
        assert run_decompose(k).word() == to_word(k)
    # spot-check a value wider than the machine word
    big = (1 << 150) + (0b1011 << 70) + 1
    assert run_decompose(big).word() == to_word(big)


def test_run_decomposition_length():
    assert run_decompose(119759).length == 17
    assert RunDecomposition((5,)).length == 5


def test_shifted_difference_examples():
    assert shifted_difference_digit_sum(1, 3, 1) == 3
    # a=k, j=2r+1, b=k at k=5, r=2: s(5*32 - 5) = s(155) = 5
    assert shifted_difference_digit_sum(5, 5, 5) == 5
    assert sum_digits(2, 155) == 5
    assert shifted_difference_digit_sum(3, 4, 5) == 4
    assert sum_digits(2, 43) == 4


def test_shifted_difference_preconditions():
    with pytest.raises(ValueError):
        shifted_difference_digit_sum(0, 3, 1)
    with pytest.raises(ValueError):
        shifted_difference_digit_sum(1, 3, 0)
    with pytest.raises(ValueError):
        shifted_difference_digit_sum(1, 3, 8)
    with pytest.raises(ValueError):
        shifted_difference_digit_sum(1, 0, 1)


def test_shifted_difference_full_grid():
    for a in range(1, 65):
        for j in range(1, 13):
            for b in range(1, 1 << j):
                want = sum_digits(2, a * (1 << j) - b)
                assert shifted_difference_digit_sum(a, j, b) == want


@given(st.integers(min_value=1, max_value=1 << 128), st.integers(min_value=1, max_value=1 << 128))
def test_concatenation_identity(x, y):
    # gluing words multiplies the left part up past the right one
    wx, wy = to_word(x), to_word(y)
    glued = int(wx + wy, 2)
    assert sum_digits(2, glued) == sum_digits(2, x) + sum_digits(2, y)


@given(st.integers(min_value=0, max_value=1 << 64), st.integers(min_value=0, max_value=1 << 64))
def test_carry_identity(a, b):
    carries = 0
    carry = 0
    for i in range(66):
        total = ((a >> i) & 1) + ((b >> i) & 1) + carry
        carry = total >> 1
        carries += carry
    assert sum_digits(2, a) + sum_digits(2, b) - sum_digits(2, a + b) == carries


def test_slice_parity_identity():
    # weight of the low part has the same parity as weight of the high part
    # plus the whole word's parity
    for k in range(1, 1 << 12):
        width = len(to_word(k))
        for j in range(1, width):
            low = lower_slice(k, width - j).count("1")
            high = upper_slice(k, j).count("1")
            assert low % 2 == (high + thue_morse(k)) % 2


def _reference_multiples(bits, lanes_log):
    """Bit planes of k*i for the lanes i < 2^lanes_log: the reference for _first_block.

    Each lane's product is written out in binary, and plane j gathers bit j
    of every product, lane i at bit i.
    """
    k = int(bits[::-1], 2)
    width = len(bits) + lanes_log
    rows = [format(k * lane, f"0{width}b") for lane in range(1 << lanes_log)]
    return [int("".join(column)[::-1], 2) for column in zip(*rows)][::-1]


def _assert_first_block_is_the_reference(bits, lanes_log):
    planes = _reference_multiples(bits, lanes_log)
    expected = (reduce(xor, planes, 0), planes[lanes_log:])
    assert _first_block(bits, lanes_log) == expected, lanes_log


@pytest.mark.parametrize("k_bits", [1, 2, 62, 300, 4096])
def test_first_block_builds_the_reference_planes(k_bits):
    # w + lanes_log planes hold every lane's product exactly
    k = int(("1101" * k_bits)[: k_bits - 1] + "1", 2)  # odd, of k_bits bits
    bits = format(k, "b")[::-1]
    for lanes_log in range(13):
        _assert_first_block_is_the_reference(bits, lanes_log)


@given(st.integers(min_value=1, max_value=1 << 300), st.integers(min_value=0, max_value=10))
def test_first_block_builds_the_reference_planes_random(k, lanes_log):
    _assert_first_block_is_the_reference(format(k, "b")[::-1], lanes_log)


@given(
    st.integers(min_value=1, max_value=1 << 130) | st.integers(min_value=1, max_value=64).map(lambda w: (1 << w) - 1),
    st.integers(min_value=0, max_value=8),
    st.sampled_from([0, 1]) | st.integers(min_value=2, max_value=1 << 70),
    st.sampled_from([0, 1]),
)
def test_parity_blocks_give_each_lane_of_the_wanted_parity(k, lanes_log, block, parity):
    # lane i of block q is set when t(k*n) == parity for n = q*2^L + i, one product at a time,
    # over two blocks in a row; all-ones k and large q give addends whose runs of ones pass the top plane
    words = islice(_parity_blocks(k, lanes_log, block, parity), 2)
    for q, word in enumerate(words, block):
        base = q << lanes_log
        assert [word >> lane & 1 for lane in range(1 << lanes_log)] == [
            thue_morse(k * (base + lane)) == parity for lane in range(1 << lanes_log)
        ]
        assert word >> (1 << lanes_log) == 0
