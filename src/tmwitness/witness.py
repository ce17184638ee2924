"""Structural classification of odd multipliers and the constructive witness engine.

Every odd k >= 1 lands in exactly one of twenty-three cases determined by the
run structure of its binary word. Each case carries either a single multiplier
n whose product with k has odd binary weight outright, or an ascending triple
{1, m, n} constructed so that the weights of k, k*m and k*n cannot all be
even. All candidates stay at or below k + 4 and carry at most three set bits,
which is what makes the certificate a constructive witness for the bound on
the least odd-weight multiplier.

Certificates never leave this module unverified: every candidate claim is
re-checked by direct evaluation, so the case analysis is a tested artifact
rather than trusted input.
"""

import enum
from dataclasses import dataclass

from .digitcore import TheoremViolationError, reduce_to_odd, thue_morse, to_word

__all__ = [
    "CaseLabel",
    "UnsupportedCaseError",
    "WitnessCertificate",
    "classify",
    "construct_candidates",
    "certify",
    "word_shape",
]


class UnsupportedCaseError(ValueError):
    """Raised when a predicted product word is requested for a case that has none."""


class CaseLabel(enum.Enum):
    """Structural case of an odd multiplier; exactly one applies to every odd k."""

    AllOnesOddLen = enum.auto()
    AllOnesEvenLen = enum.auto()
    Lemma1 = enum.auto()
    Lemma2_rLtU = enum.auto()
    Lemma2_rGtU = enum.auto()
    Lemma2_Palindrome = enum.auto()
    Lemma2_vOdd = enum.auto()
    Lemma2_vEven_uGe4 = enum.auto()
    Lemma2_u2_U4_1101 = enum.auto()
    Lemma2_u2_U5_11000 = enum.auto()
    Lemma2_u2_U5_11001 = enum.auto()
    Lemma3_rLtU = enum.auto()
    Lemma3_rGtU = enum.auto()
    Lemma4 = enum.auto()
    Lemma5_tSmall = enum.auto()
    Lemma5_tEq_u_s_eq = enum.auto()
    Lemma5_tEq_u_s_big = enum.auto()
    Lemma5_tGtU_gap = enum.auto()
    Lemma6_tSmall = enum.auto()
    Lemma6_tEqU_U2u = enum.auto()
    Lemma6_tEqU_U2u1_one = enum.auto()
    Lemma6_tEqU_U2u1_zero = enum.auto()
    Lemma6_tGtU = enum.auto()


@dataclass(frozen=True)
class WitnessCertificate:
    """Verified record that some candidate multiplier at most k_odd + 4 works.

    candidates are ascending. triple_pivot is the middle multiplier m of a
    three-candidate guarantee and None when the single candidate is claimed
    outright. verified_hit is the least candidate whose product was checked
    to have odd weight.
    """

    k_input: int
    k_odd: int
    shift: int
    case: CaseLabel
    params: dict[str, int]
    candidates: tuple[int, ...]
    triple_pivot: int | None
    verified_hit: int


def classify(k_odd: int) -> tuple[CaseLabel, dict[str, int]]:
    """Total, deterministic case assignment for an odd k, with the run widths it used.

    The decision tree reads, in order: whether the word is all ones; the
    parity of the trailing ones-run; the width of the zeros-run above it;
    the relation between leading and trailing ones-runs; and, deep in the
    tree, the zeros below the lead and the single bit just above the gap.
    Parameter names in the returned mapping match RunDecomposition's
    accessors plus "length" for the word width.

    Each feature is read from the two ends of k with a constant number of
    big-int operations; no binary string or run list is built. With w =
    k.bit_length():

    - all ones: k & (k + 1) == 0;
    - tail_ones: k ^ (k + 1) is 2^(tail + 1) - 1;
    - gap_zeros: the trailing zeros of k >> tail, from its lowest set bit;
    - lead_ones: w minus the width of k ^ (2^w - 1), whose top lead bits are 0;
    - lead_zeros: w - lead minus the width of the w - lead bits under the lead;
    - exactly three runs: lead + gap + tail == w;
    - mid_ones: the trailing ones of k >> (tail + gap);
    - above_gap_bit: bit gap + tail + 1 of k;
    - the prefixes 1101, 11000 and 11001: k >> (w - 4) and k >> (w - 5).
    """
    if k_odd < 1:
        raise ValueError("k must be positive")
    if k_odd % 2 == 0:
        raise ValueError("classification applies to odd integers; reduce first")
    width = k_odd.bit_length()

    if k_odd & (k_odd + 1) == 0:
        params = {"length": width}
        if width % 2 == 1:
            return CaseLabel.AllOnesOddLen, params
        return CaseLabel.AllOnesEvenLen, params

    tail = (k_odd ^ (k_odd + 1)).bit_length() - 1
    if tail % 2 == 1:
        return CaseLabel.Lemma1, {"length": width, "tail_ones": tail}

    upper = k_odd >> tail
    gap = (upper & -upper).bit_length() - 1
    lead = width - (k_odd ^ ((1 << width) - 1)).bit_length()
    if gap == 1:
        params = {"length": width, "lead_ones": lead, "gap_zeros": 1, "tail_ones": tail}
        if lead < tail:
            return CaseLabel.Lemma2_rLtU, params
        if lead > tail:
            return CaseLabel.Lemma2_rGtU, params
        if lead + gap + tail == width:
            return CaseLabel.Lemma2_Palindrome, params
        above = upper >> gap
        mid = (above ^ (above + 1)).bit_length() - 1
        params = {
            "length": width,
            "lead_ones": lead,
            "mid_ones": mid,
            "gap_zeros": 1,
            "tail_ones": tail,
        }
        if mid % 2 == 1:
            return CaseLabel.Lemma2_vOdd, params
        if tail >= 4:
            return CaseLabel.Lemma2_vEven_uGe4, params
        # lead == tail == 2 here, so the word starts "110" and is wide enough
        if k_odd >> (width - 4) == 0b1101:
            return CaseLabel.Lemma2_u2_U4_1101, params
        prefix = k_odd >> (width - 5)
        if prefix == 0b11000:
            return CaseLabel.Lemma2_u2_U5_11000, params
        if prefix == 0b11001:
            return CaseLabel.Lemma2_u2_U5_11001, params
        raise AssertionError(f"unreachable prefix {prefix:b} for k={k_odd}")

    params = {"length": width, "lead_ones": lead, "gap_zeros": gap, "tail_ones": tail}
    if lead < tail:
        return CaseLabel.Lemma3_rLtU, params
    if lead > tail:
        return CaseLabel.Lemma3_rGtU, params
    below = width - lead - (k_odd & ((1 << (width - lead)) - 1)).bit_length()
    params = {
        "length": width,
        "lead_ones": lead,
        "lead_zeros": below,
        "gap_zeros": gap,
        "tail_ones": tail,
    }
    if below < tail - 1:
        return CaseLabel.Lemma4, params
    probe = (k_odd >> (gap + tail + 1)) & 1
    params = dict(params, above_gap_bit=probe)
    if probe == 0:
        if gap <= tail - 1:
            return CaseLabel.Lemma5_tSmall, params
        if gap == tail:
            if below == tail - 1:
                return CaseLabel.Lemma5_tEq_u_s_eq, params
            return CaseLabel.Lemma5_tEq_u_s_big, params
        return CaseLabel.Lemma5_tGtU_gap, params
    if gap <= tail - 1:
        return CaseLabel.Lemma6_tSmall, params
    if gap == tail:
        if below == tail - 1:
            return CaseLabel.Lemma6_tEqU_U2u, params
        if below == tail:
            return CaseLabel.Lemma6_tEqU_U2u1_one, params
        return CaseLabel.Lemma6_tEqU_U2u1_zero, params
    return CaseLabel.Lemma6_tGtU, params


def construct_candidates(
    k_odd: int, case: CaseLabel, params: dict[str, int]
) -> tuple[tuple[int, ...], int | None]:
    """Candidate multipliers for a classified k, ascending, plus the triple pivot if any.

    Single-candidate arms claim their product parity outright; triple arms
    return (1, m, n) where m is the pivot and the three product parities
    cannot all be even. Every candidate is at most k_odd + 4 and carries at
    most three set bits.
    """
    try:
        width = params["length"]
        if case is CaseLabel.AllOnesOddLen:
            return (1,), None
        if case is CaseLabel.AllOnesEvenLen:
            return (k_odd + 4,), None
        if case is CaseLabel.Lemma1:
            return (2 ** (width - 1) + 1,), None
        if case is CaseLabel.Lemma2_rLtU:
            return (2 ** (width - params["lead_ones"] - 1) + 1,), None
        if case is CaseLabel.Lemma2_rGtU:
            tail = params["tail_ones"]
            return (1, 3, 2 ** (width - tail) + 2 ** (width - tail - 1) + 1), 3
        if case is CaseLabel.Lemma2_Palindrome:
            return (3,), None
        if case is CaseLabel.Lemma2_vOdd:
            return (2 ** (width - params["tail_ones"] - 1) + 1,), None
        if case is CaseLabel.Lemma2_vEven_uGe4:
            tail = params["tail_ones"]
            return (1, 3, 2 ** (width - tail) + 2 ** (width - tail - 1) + 1), 3
        if case is CaseLabel.Lemma2_u2_U4_1101:
            return (2 ** (width - 4) + 1,), None
        if case is CaseLabel.Lemma2_u2_U5_11000:
            return (1, 3, 2 ** (width - 4) + 2 ** (width - 5) + 1), 3
        if case is CaseLabel.Lemma2_u2_U5_11001:
            # n = 5 * 2^(width-5) + 1, so k*n = 5k * 2^(width-5) + k
            return (1, 5, 2 ** (width - 3) + 2 ** (width - 5) + 1), 5
        if case is CaseLabel.Lemma3_rLtU:
            return (2 ** (width - params["lead_ones"] - 1) + 1,), None
        if case is CaseLabel.Lemma3_rGtU:
            return (2 ** (width - params["tail_ones"] - 1) + 1,), None
        if case is CaseLabel.Lemma4:
            tail = params["tail_ones"]
            pivot = 2 ** (tail - 1) + 1
            final = 2 ** (width - 1) + 2 ** (tail - 1) + 1
            return (1, pivot, final), pivot
        if case in (CaseLabel.Lemma5_tSmall, CaseLabel.Lemma5_tEq_u_s_eq):
            span = params["tail_ones"] + params["gap_zeros"]
            return (2 ** (width - span) + 1,), None
        if case is CaseLabel.Lemma5_tEq_u_s_big:
            span = params["tail_ones"] + params["gap_zeros"] + 1
            return (2 ** (width - span) + 1,), None
        if case in (CaseLabel.Lemma5_tGtU_gap, CaseLabel.Lemma6_tGtU):
            tail = params["tail_ones"]
            pivot = 2**tail + 1
            final = 2 ** (width - 1) + 2 ** (width - tail - 1) + 1
            return (1, pivot, final), pivot
        if case in (CaseLabel.Lemma6_tSmall, CaseLabel.Lemma6_tEqU_U2u):
            span = params["tail_ones"] + params["gap_zeros"]
            return (1, 3, 2 ** (width - span + 1) + 2 ** (width - span) + 1), 3
        if case is CaseLabel.Lemma6_tEqU_U2u1_one:
            span = params["tail_ones"] + params["gap_zeros"]
            return (1, 3, 2 ** (width - span) + 2 ** (width - span - 1) + 1), 3
        if case is CaseLabel.Lemma6_tEqU_U2u1_zero:
            tail = params["tail_ones"]
            pivot = 2**tail + 1
            final = 2 ** (width - 1) + 2**tail + 1
            return (1, pivot, final), pivot
    except KeyError as missing:
        raise ValueError(f"case {case.name} needs parameter {missing}") from None
    raise ValueError(f"unknown case {case!r}")


def certify(k: int) -> WitnessCertificate:
    """Reduce, classify, construct, then verify each candidate by direct evaluation.

    The verified hit is the least candidate whose product parity is odd. If
    no constructed candidate works, which means a classification bug and not
    a mathematical possibility, TheoremViolationError is raised at once: no
    search over 1..k_odd+4 stands in for the construction.
    """
    k_odd, shift = reduce_to_odd(k)
    case, params = classify(k_odd)
    candidates, pivot = construct_candidates(k_odd, case, params)
    for candidate in candidates:
        if thue_morse(k_odd * candidate):
            return WitnessCertificate(
                k_input=k,
                k_odd=k_odd,
                shift=shift,
                case=case,
                params=params,
                candidates=candidates,
                triple_pivot=pivot,
                verified_hit=candidate,
            )
    raise TheoremViolationError(
        f"no constructed candidate {candidates} works for k_odd={k_odd} under {case.name}"
    )


_SHAPELESS = (
    CaseLabel.AllOnesOddLen,
    CaseLabel.AllOnesEvenLen,
    CaseLabel.Lemma2_Palindrome,
    CaseLabel.Lemma5_tGtU_gap,
)


def _top(word: str, count: int) -> str:
    return word[:count]


def _low(word: str, count: int) -> str:
    return word[len(word) - count:] if count else ""


def word_shape(k_odd: int, case: CaseLabel, params: dict[str, int]) -> str:
    """Predicted binary word of k times the constructed candidate, assembled from slices.

    Each supported case concatenates slices of the words of k, 3k, 5k, or
    k times the pivot with short literal blocks. Slice widths are anchored
    to the actual width of the auxiliary product, which can differ by one
    from what the run arithmetic alone would suggest. Cases without a
    displayed decomposition raise UnsupportedCaseError.
    """
    if case in _SHAPELESS:
        raise UnsupportedCaseError(f"no displayed product decomposition for {case.name}")
    try:
        width = params["length"]
        word = to_word(k_odd)
        if case is CaseLabel.Lemma1:
            tail = params["tail_ones"]
            return _top(word, width - tail - 1) + "1" + "0" * tail + _low(word, width - 1)
        if case in (CaseLabel.Lemma2_rLtU, CaseLabel.Lemma3_rLtU):
            tail = params["tail_ones"]
            lead = params["lead_ones"]
            return (
                _top(word, width - tail - 1)
                + "1"
                + "0" * (tail - lead - 1)
                + "1" * (lead - 1)
                + "01"
                + _low(word, width - lead - 1)
            )
        if case is CaseLabel.Lemma2_rGtU:
            tail = params["tail_ones"]
            word3 = to_word(3 * k_odd)
            return (
                _top(word3, len(word3) - tail - 2)
                + "10"
                + "1" * (tail - 2)
                + "00"
                + _low(word, width - tail - 1)
            )
        if case is CaseLabel.Lemma2_vOdd:
            tail = params["tail_ones"]
            mid = params["mid_ones"]
            return (
                _top(word, width - mid - tail - 2)
                + "1"
                + "0" * (mid + 1)
                + "1" * (tail - 2)
                + "01"
                + _low(word, width - tail - 1)
            )
        if case is CaseLabel.Lemma2_vEven_uGe4:
            tail = params["tail_ones"]
            mid = params["mid_ones"]
            word3 = to_word(3 * k_odd)
            return (
                _top(word3, len(word3) - mid - tail - 2)
                + "0"
                + "1" * mid
                + "0"
                + "1" * (tail - 3)
                + "011"
                + _low(word, width - tail - 1)
            )
        if case is CaseLabel.Lemma2_u2_U4_1101:
            mid = params["mid_ones"]
            return (
                _top(word, width - mid - 4)
                + "1"
                + "0" * (mid - 1)
                + "1000"
                + _low(word, width - 4)
            )
        if case is CaseLabel.Lemma2_u2_U5_11000:
            mid = params["mid_ones"]
            word3 = to_word(3 * k_odd)
            return (
                _top(word3, len(word3) - mid - 4)
                + "1"
                + "0" * (mid - 1)
                + "1001"
                + _low(word, width - 5)
            )
        if case is CaseLabel.Lemma2_u2_U5_11001:
            mid = params["mid_ones"]
            word5 = to_word(5 * k_odd)
            return (
                _top(word5, len(word5) - mid - 4)
                + "1"
                + "0" * (mid + 3)
                + _low(word, width - 5)
            )
        if case is CaseLabel.Lemma3_rGtU:
            tail = params["tail_ones"]
            return (
                _top(word, width - tail - 2)
                + "10"
                + "1" * (tail - 1)
                + "0"
                + _low(word, width - tail - 1)
            )
        if case is CaseLabel.Lemma4:
            tail = params["tail_ones"]
            below = params["lead_zeros"]
            pivot_word = to_word(k_odd * (2 ** (tail - 1) + 1))
            return (
                _top(word, width - tail - 2)
                + "1"
                + "0" * (tail + below + 1)
                + _low(pivot_word, len(pivot_word) - below - tail - 1)
            )
        if case is CaseLabel.Lemma5_tSmall:
            tail = params["tail_ones"]
            gap = params["gap_zeros"]
            return (
                _top(word, width - tail - gap - 2)
                + "1"
                + "0" * (gap + 1)
                + "1" * (tail - gap - 1)
                + "0"
                + "1" * gap
                + _low(word, width - tail - gap)
            )
        if case is CaseLabel.Lemma5_tEq_u_s_eq:
            tail = params["tail_ones"]
            gap = params["gap_zeros"]
            return (
                _top(word, width - tail - gap - 2)
                + "1"
                + "0" * (gap + tail + 1)
                + _low(word, width - tail - gap)
            )
        if case is CaseLabel.Lemma5_tEq_u_s_big:
            tail = params["tail_ones"]
            gap = params["gap_zeros"]
            probe = word[2 * tail]
            flipped = "0" if probe == "1" else "1"
            return (
                _top(word, width - tail - gap - 2)
                + "10"
                + "1" * (gap - 1)
                + probe
                + flipped * tail
                + _low(word, width - tail - gap - 1)
            )
        if case is CaseLabel.Lemma6_tSmall:
            tail = params["tail_ones"]
            gap = params["gap_zeros"]
            word3 = to_word(3 * k_odd)
            return (
                _top(word3, len(word3) - gap - tail - 2)
                + "1"
                + "0" * (gap - 1)
                + "10"
                + "1" * (tail - gap - 1)
                + "0"
                + "1" * (gap - 2)
                + "01"
                + _low(word, width - tail - gap)
            )
        if case is CaseLabel.Lemma6_tEqU_U2u:
            tail = params["tail_ones"]
            gap = params["gap_zeros"]
            word3 = to_word(3 * k_odd)
            return (
                _top(word3, len(word3) - gap - tail - 2)
                + "1"
                + "0" * gap
                + "1" * tail
                + "0"
                + _low(word, width - 2 * tail)
            )
        if case is CaseLabel.Lemma6_tEqU_U2u1_one:
            tail = params["tail_ones"]
            gap = params["gap_zeros"]
            word3 = to_word(3 * k_odd)
            return (
                _top(word3, len(word3) - gap - tail - 2)
                + "11"
                + "0" * gap
                + "1" * (tail - 1)
                + "0"
                + _low(word, width - 2 * tail - 1)
            )
        if case is CaseLabel.Lemma6_tEqU_U2u1_zero:
            tail = params["tail_ones"]
            pivot_word = to_word(k_odd * (2**tail + 1))
            return (
                _top(word, width - tail - 2)
                + "10"
                + "1" * (tail - 1)
                + "0"
                + "1" * (tail - 1)
                + _low(pivot_word, len(pivot_word) - 2 * tail)
            )
        if case is CaseLabel.Lemma6_tGtU:
            tail = params["tail_ones"]
            pivot_word = to_word(k_odd * (2**tail + 1))
            return (
                _top(pivot_word, len(pivot_word) - 2 * tail - 1)
                + "1"
                + "0" * (tail - 1)
                + "1" * (tail - 1)
                + "01"
                + _low(word, width - tail - 1)
            )
    except KeyError as missing:
        raise ValueError(f"case {case.name} needs parameter {missing}") from None
    raise ValueError(f"unknown case {case!r}")
