"""Digit-sum and binary-word primitives shared by every other module.

Provides the odd-core reduction, digit sums in any base, the weight-parity
indicator t(n), canonical MSB-first binary words with slicing, run-length
decompositions of odd integers, the subtraction identity for digit sums
of shifted differences, the bit planes that give t(k*n) for a block of
consecutive n at once, and the exact frequency of t(k*n) = 1 they count.

All functions are pure and exact at any magnitude: base-2 digit sums ride the
interpreter's hardware-backed bit counting, which promotes past the machine
word transparently.
"""

import itertools
from collections import namedtuple
from collections.abc import Iterator

__all__ = [
    "TheoremViolationError",
    "RunDecomposition",
    "reduce_to_odd",
    "sum_digits",
    "thue_morse",
    "to_word",
    "lower_slice",
    "upper_slice",
    "run_decompose",
    "shifted_difference_digit_sum",
    "FrequencyRecord",
    "frequency",
]


class TheoremViolationError(RuntimeError):
    """A bounded search exhausted a range that a proven bound says cannot be empty.

    This never fires on correct code; it exists so that a contradiction halts
    the run loudly instead of producing silently wrong records.
    """


def reduce_to_odd(k: int) -> tuple[int, int]:
    """Split k >= 1 into (odd core, power-of-two shift).

    Doubling k never changes the least odd-weight multiplier, so every
    question about k reduces to its odd core.
    """
    if k < 1:
        raise ValueError("k must be positive")
    shift = (k & -k).bit_length() - 1
    return k >> shift, shift


def sum_digits(base: int, n: int) -> int:
    """Sum of the digits of n written in the given base.

    sum_digits(b, 0) is 0 for every valid base.
    """
    if base < 2:
        raise ValueError(f"base must be at least 2, got {base}")
    if n < 0:
        raise ValueError("digit sums are defined for nonnegative integers only")
    if base == 2:
        return n.bit_count()
    total = 0
    while n:
        n, digit = divmod(n, base)
        total += digit
    return total


def thue_morse(n: int) -> int:
    """Parity of the binary weight of n: 1 when n has an odd number of set bits."""
    if n < 0:
        raise ValueError("defined for nonnegative integers only")
    return n.bit_count() & 1


def to_word(k: int) -> str:
    """Canonical binary word of k >= 1, most significant bit first.

    The word always starts with '1'; width 0 has no canonical word, so k = 0
    is rejected.
    """
    if k < 1:
        raise ValueError("canonical binary words exist for k >= 1 only")
    return format(k, "b")


def lower_slice(k: int, j: int) -> str:
    """The j least significant bits of k as a word (may start with '0')."""
    word = to_word(k)
    if not 1 <= j <= len(word):
        raise ValueError(f"slice width {j} out of range for a {len(word)}-bit word")
    return word[len(word) - j:]


def upper_slice(k: int, j: int) -> str:
    """The j most significant bits of k as a word."""
    word = to_word(k)
    if not 1 <= j <= len(word):
        raise ValueError(f"slice width {j} out of range for a {len(word)}-bit word")
    return word[:j]


class RunDecomposition(namedtuple("RunDecomposition", "runs")):
    """Maximal runs of equal bits of an odd integer's word, leading run first.

    runs is a tuple of widths. The word of an odd integer starts and ends
    with a ones-run, so the run widths alternate ones, zeros, ones, ...
    across an odd number of entries. Accessors name the runs by position;
    asking for a run the word does not have raises ValueError rather than
    returning a default.
    """

    __slots__ = ()

    @property
    def length(self) -> int:
        return sum(self.runs)

    def word(self) -> str:
        """Reassembled word; round-trips with run_decompose."""
        pieces = []
        bit = "1"
        for width in self.runs:
            pieces.append(bit * width)
            bit = "0" if bit == "1" else "1"
        return "".join(pieces)

    @property
    def lead_ones(self) -> int:
        return self.runs[0]

    @property
    def lead_zeros(self) -> int:
        """Width of the zeros-run directly below the leading ones."""
        if len(self.runs) < 2:
            raise ValueError("no zeros-run exists below the leading ones")
        return self.runs[1]

    @property
    def tail_ones(self) -> int:
        return self.runs[-1]

    @property
    def gap_zeros(self) -> int:
        """Width of the zeros-run directly above the trailing ones."""
        if len(self.runs) < 2:
            raise ValueError("no zeros-run exists above the trailing ones")
        return self.runs[-2]

    @property
    def mid_ones(self) -> int:
        """Width of the ones-run directly above the gap zeros."""
        if len(self.runs) < 3:
            raise ValueError("no ones-run exists above the gap zeros")
        return self.runs[-3]

    @property
    def above_gap_bit(self) -> int:
        """Bit value at position gap_zeros + tail_ones + 1, counted from bit 0."""
        position = self.gap_zeros + self.tail_ones + 1
        if position >= self.length:
            raise ValueError("probed position lies above the most significant bit")
        remaining = position
        value = 1
        for width in reversed(self.runs):
            if remaining < width:
                return value
            remaining -= width
            value ^= 1
        raise AssertionError("position was checked against the total width")


def run_decompose(k: int) -> RunDecomposition:
    """Run widths of the binary word of an odd k >= 1, leading run first."""
    if k < 1:
        raise ValueError("k must be positive")
    if k % 2 == 0:
        raise ValueError("run decompositions are for odd integers; reduce first")
    runs = tuple(len(list(group)) for _, group in itertools.groupby(to_word(k)))
    return RunDecomposition(runs)


def shifted_difference_digit_sum(a: int, j: int, b: int) -> int:
    """Binary digit sum of a*2^j - b without forming the difference.

    Valid for a >= 1 and 1 <= b < 2^j. Equals
    sum_digits(2, a - 1) + j - sum_digits(2, b - 1), which the tests check
    against the direct computation.
    """
    if a < 1:
        raise ValueError("the shifted term must be positive")
    if j < 1 or not 1 <= b < (1 << j):
        raise ValueError(f"subtrahend must lie in [1, 2^{j})")
    return (a - 1).bit_count() + j - (b - 1).bit_count()


def _first_block(bits: str, lanes_log: int) -> tuple[int, list[int]]:
    """The first block of k's bit planes: bits of k*i for the lanes i < 2^lanes_log.

    bits holds k's w binary digits, least significant first. Each doubling
    adds k*2^level to the lower half of the lanes, plane by plane with a
    ripple carry, and splices the sum above it in place. The addend has no
    bits below level, so plane level is final once doubled: it is folded into
    the XOR of the planes below it, all that later blocks read of them.
    Products stay below 2^(level+1+w), so the w + lanes_log planes hold every
    lane's product and no carry is dropped. Returns the XOR of all the
    planes, t(k*i) in lane i, and the w planes from lanes_log up.
    """
    width = len(bits) + lanes_log
    planes = [0] * width
    parity = 0
    for level in range(lanes_log):
        size = 1 << level
        full = (1 << size) - 1
        carry = 0
        for index, bit in zip(range(level, width), bits + "0"):
            plane = planes[index]
            if bit == "1":
                planes[index] = plane | (plane ^ carry ^ full) << size
                carry |= plane
            else:
                planes[index] = plane | (plane ^ carry) << size
                carry &= plane
        parity = (parity | parity << size) ^ planes[level]
    for plane in planes[lanes_log:]:
        parity ^= plane
    return parity, planes[lanes_log:]


def _parity_blocks(k: int, lanes_log: int, start: int, stop: int, parity: int) -> Iterator[tuple[int, int]]:
    """(base, word) for each block of 2^L n that meets start..stop: lane i is set when s2(k*n) % 2 == parity, n = base + i.

    For L = lanes_log, the blocks run from start's, base = start >> L << L,
    up to stop's, and the lanes of n outside start..stop are clear. With
    base = q*2^L, k*n = k*i + a*2^L for a = q*k. By Kummer's theorem,
    s2(x + y) = s2(x) + s2(y) - c(x, y) with c the number of carries, so
    t(k*n) = t(k*i) ^ t(a) ^ (c mod 2). The first block's parity word and
    planes (see _first_block) are built once and never written again. For
    each block, one carry word runs up the planes from plane L, as a ripple
    adder would, and each carry is XORed into the word; past the top plane
    k*i has no bits, so the carry goes on only through a's trailing ones
    there. That costs two big-int operations per plane. The t(a) and parity
    complement is a choice between two start words made before the loop.
    Each plane is its own int, so bits of one product never reach another's,
    and the width need not be a power of two, as it would in a layout that
    set the products side by side in fixed-width fields.
    """
    size = 1 << lanes_log
    first, planes = _first_block(format(k, "b")[::-1], lanes_log)
    flipped = first ^ (1 << size) - 1
    starts = (first, flipped) if parity else (flipped, first)
    first_base, last = start - start % size, stop - stop % size
    keep = -1 << start - first_base  # the first block's lanes from start up
    for base, addend in zip(range(first_base, stop + 1, size), itertools.count(first_base // size * k, k)):
        carry, word = 0, starts[addend.bit_count() & 1]
        for plane, bit in zip(planes, format(addend, "b")[::-1]):
            carry = plane | carry if bit == "1" else plane & carry
            word ^= carry
        above = addend >> len(planes)
        if (above ^ above + 1).bit_length() % 2 == 0:  # an odd run of trailing ones
            word ^= carry
        if base == last:
            keep &= (2 << stop - base) - 1  # and up to stop
        yield base, word & keep
        keep = -1


FrequencyRecord = namedtuple("FrequencyRecord", "k sample_count ones_frequency")
FrequencyRecord.__doc__ = "Exact fraction, a Fraction, of multipliers up to sample_count whose product has odd weight."

# the largest block, 2^16 lanes: with 2^15, k = 3 at N = 4^15 takes 1.1-1.4x as
# long and a freq_grid round is not surely faster (0.88-1.13x); with 2^17 the
# round takes 1.1-1.25x as long (four runs of best of 5 and 7, one process on a
# 2-core x86-64 box, Python 3.11)
_BLOCK_LOG = 16


def frequency(k: int, sample_count: int) -> FrequencyRecord:
    """Exact rational frequency of odd product weight over multipliers 1..sample_count.

    The count is bit-sliced: _parity_blocks gives the multipliers
    1..sample_count in blocks of 2^L consecutive lanes, each block one int
    whose lane i is set when k*n has odd weight, so one bit_count counts a
    block. Each block costs two big-int operations per bit of k, and the
    first about as much as four or five blocks, so L is sized from
    sample_count alone: 2^L is about a quarter of the lanes, at most 2^16,
    which timed close to the fastest L for every N from 10^3 to 10^6. k's
    factor of two is dropped first, as s2(2m) = s2(m).
    """
    from fractions import Fraction

    odd, _ = reduce_to_odd(k)
    if sample_count < 1:
        raise ValueError("need at least one sample")
    lanes_log = min(_BLOCK_LOG, max(1, sample_count.bit_length() - 2))
    hits = sum(word.bit_count() for _, word in _parity_blocks(odd, lanes_log, 1, sample_count, 1))
    return FrequencyRecord(k, sample_count, Fraction(hits, sample_count))
