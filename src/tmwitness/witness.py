"""Structural classification of odd multipliers and the constructive witness engine.

Every odd k >= 1 lands in exactly one of twenty-three cases, read from the run
structure of its binary word; the cases are the keys of _ARMS, each mapped to
its construction: a single multiplier n whose product with k has odd weight
outright, or an ascending triple {1, m, n} so that the weights of k, k*m and
k*n cannot all be even. All candidates stay at or below k + 4 and carry at
most three set bits, which makes the certificate a constructive witness for
the bound on the least odd-weight multiplier.

Certificates never leave this module unverified: every candidate claim is
re-checked by direct evaluation, so the case analysis is a tested artifact
rather than trusted input.
"""

import enum
from collections import namedtuple

from .digitcore import TheoremViolationError, reduce_to_odd, thue_morse, to_word

__all__ = [
    "CaseLabel",
    "UnsupportedCaseError",
    "WitnessCertificate",
    "classify",
    "construct_candidates",
    "certify",
    "verify",
    "word_shape",
]


class UnsupportedCaseError(ValueError):
    """Raised when a predicted product word is requested for a case that has none."""


# every case, in CaseLabel's order, with its construct_candidates arm: (k_odd, width, params)
# -> (candidates, pivot). A triple's last candidate is m * 2^b + 1 for its pivot m, or
# 2^(w - 1) + m. Shifts bind looser than + and -: 1 << w - 1 is 2^(w - 1).
_ARMS = {
    "AllOnesOddLen": lambda k, w, p: ((1,), None),
    "AllOnesEvenLen": lambda k, w, p: ((k + 4,), None),
    "Lemma1": lambda k, w, p: (((1 << w - 1) + 1,), None),
    "Lemma2_rLtU": lambda k, w, p: (((1 << w - p["lead_ones"] - 1) + 1,), None),
    "Lemma2_rGtU": lambda k, w, p: ((1, 3, (3 << w - p["tail_ones"] - 1) + 1), 3),
    "Lemma2_Palindrome": lambda k, w, p: ((3,), None),
    "Lemma2_vOdd": lambda k, w, p: (((1 << w - p["tail_ones"] - 1) + 1,), None),
    "Lemma2_vEven_uGe4": lambda k, w, p: ((1, 3, (3 << w - p["tail_ones"] - 1) + 1), 3),
    "Lemma2_u2_U4_1101": lambda k, w, p: (((1 << w - 4) + 1,), None),
    "Lemma2_u2_U5_11000": lambda k, w, p: ((1, 3, (3 << w - 5) + 1), 3),
    "Lemma2_u2_U5_11001": lambda k, w, p: ((1, 5, (5 << w - 5) + 1), 5),
    "Lemma3_rLtU": lambda k, w, p: (((1 << w - p["lead_ones"] - 1) + 1,), None),
    "Lemma3_rGtU": lambda k, w, p: (((1 << w - p["tail_ones"] - 1) + 1,), None),
    "Lemma4": lambda k, w, p: ((1, (m := (1 << p["tail_ones"] - 1) + 1), (1 << w - 1) + m), m),
    "Lemma5_tSmall": lambda k, w, p: (((1 << w - p["tail_ones"] - p["gap_zeros"]) + 1,), None),
    "Lemma5_tEq_u_s_eq": lambda k, w, p: (((1 << w - p["tail_ones"] - p["gap_zeros"]) + 1,), None),
    "Lemma5_tEq_u_s_big": lambda k, w, p: (((1 << w - p["tail_ones"] - p["gap_zeros"] - 1) + 1,), None),
    "Lemma5_tGtU_gap": lambda k, w, p: (
        (1, (m := (1 << p["tail_ones"]) + 1), (m << w - p["tail_ones"] - 1) + 1), m
    ),
    "Lemma6_tSmall": lambda k, w, p: ((1, 3, (3 << w - p["tail_ones"] - p["gap_zeros"]) + 1), 3),
    "Lemma6_tEqU_U2u": lambda k, w, p: ((1, 3, (3 << w - p["tail_ones"] - p["gap_zeros"]) + 1), 3),
    "Lemma6_tEqU_U2u1_one": lambda k, w, p: ((1, 3, (3 << w - p["tail_ones"] - p["gap_zeros"] - 1) + 1), 3),
    "Lemma6_tEqU_U2u1_zero": lambda k, w, p: ((1, (m := (1 << p["tail_ones"]) + 1), (1 << w - 1) + m), m),
    "Lemma6_tGtU": lambda k, w, p: (
        (1, (m := (1 << p["tail_ones"]) + 1), (m << w - p["tail_ones"] - 1) + 1), m
    ),
}
CaseLabel = enum.Enum("CaseLabel", list(_ARMS), module=__name__)
CaseLabel.__doc__ = "Structural case of an odd multiplier; exactly one applies to every odd k."


WitnessCertificate = namedtuple(
    "WitnessCertificate", "k_input k_odd shift case params candidates triple_pivot verified_hit"
)
WitnessCertificate.__doc__ = """Verified record that some candidate multiplier at most k_odd + 4 works.

case is a CaseLabel and params classify's mapping of run widths. candidates
are an ascending tuple. triple_pivot is the middle multiplier m of a
three-candidate guarantee and None when the single candidate is claimed
outright. verified_hit is the least candidate whose product was checked to
have odd weight.
"""


# the members on a plain class: CaseLabel.X goes through EnumType.__getattr__ on Python
# 3.10 and 3.11, about 140 ns, where a class attribute takes about 30 ns
_Case = type("_Case", (), dict(CaseLabel.__members__))


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
            return _Case.AllOnesOddLen, params
        return _Case.AllOnesEvenLen, params

    tail = (k_odd ^ (k_odd + 1)).bit_length() - 1
    if tail % 2 == 1:
        return _Case.Lemma1, {"length": width, "tail_ones": tail}

    upper = k_odd >> tail
    gap = (upper & -upper).bit_length() - 1
    lead = width - (k_odd ^ ((1 << width) - 1)).bit_length()
    if gap == 1:
        params = {"length": width, "lead_ones": lead, "gap_zeros": 1, "tail_ones": tail}
        if lead < tail:
            return _Case.Lemma2_rLtU, params
        if lead > tail:
            return _Case.Lemma2_rGtU, params
        if lead + gap + tail == width:
            return _Case.Lemma2_Palindrome, params
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
            return _Case.Lemma2_vOdd, params
        if tail >= 4:
            return _Case.Lemma2_vEven_uGe4, params
        # lead == tail == 2 here, so the word starts "110" and is wide enough
        if k_odd >> (width - 4) == 0b1101:
            return _Case.Lemma2_u2_U4_1101, params
        prefix = k_odd >> (width - 5)
        if prefix == 0b11000:
            return _Case.Lemma2_u2_U5_11000, params
        if prefix == 0b11001:
            return _Case.Lemma2_u2_U5_11001, params
        raise AssertionError(f"unreachable prefix {prefix:b} for k={k_odd}")

    params = {"length": width, "lead_ones": lead, "gap_zeros": gap, "tail_ones": tail}
    if lead < tail:
        return _Case.Lemma3_rLtU, params
    if lead > tail:
        return _Case.Lemma3_rGtU, params
    below = width - lead - (k_odd & ((1 << (width - lead)) - 1)).bit_length()
    params = {
        "length": width,
        "lead_ones": lead,
        "lead_zeros": below,
        "gap_zeros": gap,
        "tail_ones": tail,
    }
    if below < tail - 1:
        return _Case.Lemma4, params
    probe = (k_odd >> (gap + tail + 1)) & 1
    params = dict(params, above_gap_bit=probe)
    if probe == 0:
        if gap <= tail - 1:
            return _Case.Lemma5_tSmall, params
        if gap == tail:
            if below == tail - 1:
                return _Case.Lemma5_tEq_u_s_eq, params
            return _Case.Lemma5_tEq_u_s_big, params
        return _Case.Lemma5_tGtU_gap, params
    if gap <= tail - 1:
        return _Case.Lemma6_tSmall, params
    if gap == tail:
        if below == tail - 1:
            return _Case.Lemma6_tEqU_U2u, params
        if below == tail:
            return _Case.Lemma6_tEqU_U2u1_one, params
        return _Case.Lemma6_tEqU_U2u1_zero, params
    return _Case.Lemma6_tGtU, params


def construct_candidates(
    k_odd: int, case: CaseLabel, params: dict[str, int]
) -> tuple[tuple[int, ...], int | None]:
    """Candidate multipliers for a classified k, ascending, plus the triple pivot if any.

    Single-candidate arms claim their product parity outright; triple arms
    return (1, m, n) where m is the pivot and the three product parities
    cannot all be even. Every candidate is at most k_odd + 4 and carries at
    most three set bits. params are taken on trust as classify(k_odd)'s.
    """
    if type(case) is not CaseLabel:
        raise ValueError(f"unknown case {case!r}")
    try:  # by _name_: the name property and hashing a member are Python-level calls
        return _ARMS[case._name_](k_odd, params["length"], params)
    except KeyError as missing:
        raise ValueError(f"case {case.name} needs parameter {missing}") from None


def verify(k_odd: int) -> tuple[CaseLabel, dict[str, int], tuple[int, ...], int | None, int]:
    """Classify an odd k, construct its candidates, then verify each by direct evaluation.

    Returns the case, its params, the candidates, the triple pivot and the
    verified hit, the least candidate whose product parity is odd: the fields
    of k_odd's certificate after its shift. If no constructed candidate works,
    which means a classification bug and not a mathematical possibility,
    TheoremViolationError is raised at once: no search over 1..k_odd+4 stands
    in for the construction. The hit is held to the theorem's two claims as
    well: a hit above k_odd + 4 or with more than three set bits raises
    TheoremViolationError too.
    """
    case, params = classify(k_odd)
    candidates, pivot = construct_candidates(k_odd, case, params)
    for candidate in candidates:
        if thue_morse(k_odd * candidate):
            if candidate > k_odd + 4 or candidate.bit_count() > 3:
                raise TheoremViolationError(
                    f"constructed hit {candidate} for k_odd={k_odd} under {case.name} "
                    "is above k_odd + 4 or has more than three set bits"
                )
            return case, params, candidates, pivot, candidate
    raise TheoremViolationError(
        f"no constructed candidate {candidates} works for k_odd={k_odd} under {case.name}"
    )


def certify(k: int) -> WitnessCertificate:
    """Reduce k to its odd core, then verify the core's construction into a certificate."""
    k_odd, shift = reduce_to_odd(k)
    case, params, candidates, pivot, hit = verify(k_odd)  # a starred call would cost ~0.1 µs more
    return WitnessCertificate(k, k_odd, shift, case, params, candidates, pivot, hit)


# word_shape's displays, keyed by case name: (params, word of k) -> the carry region, the
# bits the paper displays between the top of one product and the bottom of the other
_DISPLAYS = {
    "Lemma1": lambda p, word: "1" + "0" * p["tail_ones"],
    "Lemma2_rLtU": lambda p, word: (
        "1" + "0" * (p["tail_ones"] - p["lead_ones"] - 1) + "1" * (p["lead_ones"] - 1) + "01"
    ),
    "Lemma2_rGtU": lambda p, word: "10" + "1" * (p["tail_ones"] - 2) + "00",
    "Lemma2_vOdd": lambda p, word: "1" + "0" * (p["mid_ones"] + 1) + "1" * (p["tail_ones"] - 2) + "01",
    "Lemma2_vEven_uGe4": lambda p, word: "0" + "1" * p["mid_ones"] + "0" + "1" * (p["tail_ones"] - 3) + "011",
    "Lemma2_u2_U4_1101": lambda p, word: "1" + "0" * (p["mid_ones"] - 1) + "1000",
    "Lemma2_u2_U5_11000": lambda p, word: "1" + "0" * (p["mid_ones"] - 1) + "1001",
    "Lemma2_u2_U5_11001": lambda p, word: "1" + "0" * (p["mid_ones"] + 3),
    "Lemma3_rLtU": lambda p, word: (
        "1" + "0" * (p["tail_ones"] - p["lead_ones"] - 1) + "1" * (p["lead_ones"] - 1) + "01"
    ),
    "Lemma3_rGtU": lambda p, word: "10" + "1" * (p["tail_ones"] - 1) + "0",
    "Lemma4": lambda p, word: "1" + "0" * (p["tail_ones"] + p["lead_zeros"] + 1),
    "Lemma5_tSmall": lambda p, word: (
        "1" + "0" * (p["gap_zeros"] + 1) + "1" * (p["tail_ones"] - p["gap_zeros"] - 1)
        + "0" + "1" * p["gap_zeros"]
    ),
    "Lemma5_tEq_u_s_eq": lambda p, word: "1" + "0" * (p["gap_zeros"] + p["tail_ones"] + 1),
    # then the bit of k's word at 2u, u = tail_ones, and u copies of its complement
    "Lemma5_tEq_u_s_big": lambda p, word: (
        "10" + "1" * (p["gap_zeros"] - 1)
        + word[2 * p["tail_ones"]] + "10"[int(word[2 * p["tail_ones"]])] * p["tail_ones"]
    ),
    "Lemma6_tSmall": lambda p, word: (
        "1" + "0" * (p["gap_zeros"] - 1) + "10" + "1" * (p["tail_ones"] - p["gap_zeros"] - 1)
        + "0" + "1" * (p["gap_zeros"] - 2) + "01"
    ),
    "Lemma6_tEqU_U2u": lambda p, word: "1" + "0" * p["gap_zeros"] + "1" * p["tail_ones"] + "0",
    "Lemma6_tEqU_U2u1_one": lambda p, word: "11" + "0" * p["gap_zeros"] + "1" * (p["tail_ones"] - 1) + "0",
    "Lemma6_tEqU_U2u1_zero": lambda p, word: (
        "10" + "1" * (p["tail_ones"] - 1) + "0" + "1" * (p["tail_ones"] - 1)
    ),
    "Lemma6_tGtU": lambda p, word: "1" + "0" * (p["tail_ones"] - 1) + "1" * (p["tail_ones"] - 1) + "01",
}
_SHAPELESS = tuple(case for case in CaseLabel if case._name_ not in _DISPLAYS)


def word_shape(k_odd: int, case: CaseLabel, params: dict[str, int]) -> str:
    """Predicted binary word of k times the constructed candidate, spliced around its display.

    With n the last candidate and m its pivot (1 for a single candidate),
    k*n is k*m shifted by b over k, for n = m*2^b + 1, or k shifted by w - 1
    over k*m, for n = 2^(w - 1) + m with m > 1 and w the width of k. With
    display the case's carry region as the paper writes it out, and word and
    product the words of k and k*m, the shape is

        product[:len(product) - len(display)] + display + word[len(word) - b:]
        word[:2*len(word) - 2 - len(product)] + display + product[len(display) - 1:]

    respectively: the display takes the place of k*m's lowest bits in the
    first, and it ends one bit above k*m's top in the second. Cases without a
    display raise UnsupportedCaseError; what construct_candidates refuses
    raises its ValueError, and then a case and params not classify(k_odd)'s
    raise one.
    """
    if case in _SHAPELESS:
        raise UnsupportedCaseError(f"no displayed product decomposition for {case.name}")
    candidates, pivot = construct_candidates(k_odd, case, params)
    final, multiple = candidates[-1], pivot or 1
    word, product = to_word(k_odd), to_word(k_odd * multiple)
    try:
        display = _DISPLAYS[case._name_](params, word)
    except KeyError as missing:
        raise ValueError(f"case {case.name} needs parameter {missing}") from None
    if (case, params) != classify(k_odd):
        raise ValueError(f"{case.name} with {params} is not the classification of k_odd={k_odd}")
    if pivot and final - pivot == 1 << params["length"] - 1:  # n = 2^(w - 1) + m
        return word[:2 * len(word) - 2 - len(product)] + display + product[len(display) - 1:]
    shift = ((final - 1) // multiple).bit_length() - 1  # n = m * 2^b + 1
    return product[:len(product) - len(display)] + display + word[len(word) - shift:]
