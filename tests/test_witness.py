"""Classification, candidate construction, certification, and product word shapes."""

import enum
import json
import pickle
import random

import pytest
from hypothesis import given, settings, strategies as st

from tmwitness.cli import parse_certificate, run, serialize_certificate
from tmwitness.digitcore import TheoremViolationError, run_decompose, thue_morse, to_word
from tmwitness.genbase import GenBaseQuery, conjecture_scan
from tmwitness.scanner import frequency, scan_theorem, scan_weight_family
from tmwitness.witness import (
    _ARMS,
    _DISPLAYS,
    _SHAPELESS,
    CaseLabel,
    UnsupportedCaseError,
    certify,
    classify,
    construct_candidates,
    reduce_to_odd,
    word_shape,
)


def test_reduce_to_odd():
    assert reduce_to_odd(6) == (3, 1)
    assert reduce_to_odd(51) == (51, 0)
    assert reduce_to_odd(1) == (1, 0)
    assert reduce_to_odd(48) == (3, 4)
    assert reduce_to_odd(1 << 20) == (1, 20)
    with pytest.raises(ValueError):
        reduce_to_odd(0)


def test_classify_examples():
    assert classify(7) == (CaseLabel.AllOnesOddLen, {"length": 3})
    assert classify(3) == (CaseLabel.AllOnesEvenLen, {"length": 2})
    assert classify(9) == (CaseLabel.Lemma1, {"length": 4, "tail_ones": 1})
    case, params = classify(51)
    assert case is CaseLabel.Lemma6_tEqU_U2u1_one
    assert params == {
        "length": 6,
        "lead_ones": 2,
        "lead_zeros": 2,
        "gap_zeros": 2,
        "tail_ones": 2,
        "above_gap_bit": 1,
    }
    assert classify(27)[0] is CaseLabel.Lemma2_Palindrome
    assert classify(835)[0] is CaseLabel.Lemma5_tGtU_gap


def test_classify_rejects_even_and_zero():
    with pytest.raises(ValueError):
        classify(6)
    with pytest.raises(ValueError):
        classify(0)


def test_classification_is_total_and_covers_every_case():
    seen = set()
    for k in range(1, 1 << 16, 2):
        case, params = classify(k)
        seen.add(case)
        assert params["length"] == k.bit_length()
        _assert_matches_reference(k)
    assert seen == set(CaseLabel)


def _reference_classify(k_odd):
    """The case tree read from the whole word: run_decompose accessors and string prefixes."""
    word = to_word(k_odd)
    width = len(word)
    decomposition = run_decompose(k_odd)
    runs = decomposition.runs
    if len(runs) == 1:
        params = {"length": width}
        if runs[0] % 2 == 1:
            return CaseLabel.AllOnesOddLen, params
        return CaseLabel.AllOnesEvenLen, params
    tail = decomposition.tail_ones
    if tail % 2 == 1:
        return CaseLabel.Lemma1, {"length": width, "tail_ones": tail}
    lead = decomposition.lead_ones
    gap = decomposition.gap_zeros
    if gap == 1:
        params = {"length": width, "lead_ones": lead, "gap_zeros": 1, "tail_ones": tail}
        if lead < tail:
            return CaseLabel.Lemma2_rLtU, params
        if lead > tail:
            return CaseLabel.Lemma2_rGtU, params
        if len(runs) == 3:
            return CaseLabel.Lemma2_Palindrome, params
        mid = decomposition.mid_ones
        params = {"length": width, "lead_ones": lead, "mid_ones": mid, "gap_zeros": 1, "tail_ones": tail}
        if mid % 2 == 1:
            return CaseLabel.Lemma2_vOdd, params
        if tail >= 4:
            return CaseLabel.Lemma2_vEven_uGe4, params
        if word.startswith("1101"):
            return CaseLabel.Lemma2_u2_U4_1101, params
        if word.startswith("11000"):
            return CaseLabel.Lemma2_u2_U5_11000, params
        if word.startswith("11001"):
            return CaseLabel.Lemma2_u2_U5_11001, params
        raise AssertionError(f"unreachable prefix for {word}")
    params = {"length": width, "lead_ones": lead, "gap_zeros": gap, "tail_ones": tail}
    if lead < tail:
        return CaseLabel.Lemma3_rLtU, params
    if lead > tail:
        return CaseLabel.Lemma3_rGtU, params
    below = decomposition.lead_zeros
    params = {"length": width, "lead_ones": lead, "lead_zeros": below, "gap_zeros": gap, "tail_ones": tail}
    if below < tail - 1:
        return CaseLabel.Lemma4, params
    probe = decomposition.above_gap_bit
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


def _reference_construct(k_odd, case, params):
    """The construction as an if chain over the members, each power of two as 2 ** e."""
    try:
        width = params["length"]
        if case is CaseLabel.AllOnesOddLen:
            return (1,), None
        if case is CaseLabel.AllOnesEvenLen:
            return (k_odd + 4,), None
        if case is CaseLabel.Lemma1:
            return (2 ** (width - 1) + 1,), None
        if case in (CaseLabel.Lemma2_rLtU, CaseLabel.Lemma3_rLtU):
            return (2 ** (width - params["lead_ones"] - 1) + 1,), None
        if case in (CaseLabel.Lemma2_rGtU, CaseLabel.Lemma2_vEven_uGe4):
            tail = params["tail_ones"]
            return (1, 3, 2 ** (width - tail) + 2 ** (width - tail - 1) + 1), 3
        if case is CaseLabel.Lemma2_Palindrome:
            return (3,), None
        if case in (CaseLabel.Lemma2_vOdd, CaseLabel.Lemma3_rGtU):
            return (2 ** (width - params["tail_ones"] - 1) + 1,), None
        if case is CaseLabel.Lemma2_u2_U4_1101:
            return (2 ** (width - 4) + 1,), None
        if case is CaseLabel.Lemma2_u2_U5_11000:
            return (1, 3, 2 ** (width - 4) + 2 ** (width - 5) + 1), 3
        if case is CaseLabel.Lemma2_u2_U5_11001:
            # n = 5 * 2^(width-5) + 1, so k*n = 5k * 2^(width-5) + k
            return (1, 5, 2 ** (width - 3) + 2 ** (width - 5) + 1), 5
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


def _assert_matches_reference(k):
    # classify and construct_candidates against their references; key order is
    # part of the certificate bytes, so compare it too. A shaped case's word
    # shape is the product's word itself
    case, params = classify(k)
    want_case, want_params = _reference_classify(k)
    assert (case, list(params.items())) == (want_case, list(want_params.items())), k
    candidates = construct_candidates(k, case, params)
    assert candidates == _reference_construct(k, want_case, want_params), k
    if case not in _SHAPELESS:
        assert word_shape(k, case, params) == to_word(k * candidates[0][-1]), k


EDGE_WORDS = {
    **{str(k): k for k in (1, 3, 51, 119759)},
    **{f"ones{width}": (1 << width) - 1 for width in (1, 2, 3, 4, 63, 64, 65, 4095, 4096)},
    **{f"2^{r}+1": (1 << r) + 1 for r in (1, 2, 3, 4, 63, 64, 65, 4095)},
    "long_lead_and_tail": int("1" * 2000 + "00" + "1" * 2000, 2),
    "long_gap_below_lead": int("11" + "0" * 4000 + "1101011", 2),
}


@pytest.mark.parametrize("k", EDGE_WORDS.values(), ids=EDGE_WORDS.keys())
def test_classify_matches_reference_at_edges(k):
    _assert_matches_reference(k)


@st.composite
def _uniform_odd_words(draw):
    width = draw(st.integers(min_value=1, max_value=4096))
    return draw(st.integers(min_value=0, max_value=(1 << (width - 1)) - 1)) | 1 | (1 << (width - 1))


@st.composite
def _run_structured_words(draw):
    # lead == tail, even (an odd tail is Lemma 1 at once), with zeros-runs
    # near the tail's width and short ones-runs common, so the deep Lemma 2,
    # 4, 5 and 6 cases are reached
    ends = 2 * draw(st.one_of(st.integers(min_value=1, max_value=12), st.integers(min_value=13, max_value=1000)))
    near = st.sampled_from([1, 2, ends - 1, ends, ends + 1, 2 * ends])
    ones = st.one_of(st.sampled_from([1, 2]), st.integers(min_value=1, max_value=48))
    gap = min(draw(st.one_of(st.just(1), near, st.integers(min_value=1, max_value=200))), 4096 - 2 * ends)
    room = 4096 - 2 * ends - gap
    inner = []
    for _ in range(draw(st.integers(min_value=0, max_value=40))):
        pair = [draw(near), draw(ones)]
        if sum(inner) + sum(pair) > room:
            break
        inner += pair
    runs = [ends] + inner + [gap, ends]
    word, bit = "", "1"
    for width in runs:
        word += bit * width
        bit = "0" if bit == "1" else "1"
    return int(word, 2)


@settings(max_examples=300, deadline=None)
@given(_uniform_odd_words())
def test_classify_matches_reference_on_uniform_words(k):
    _assert_matches_reference(k)


@settings(max_examples=300, deadline=None)
@given(_run_structured_words())
def test_classify_matches_reference_on_run_structured_words(k):
    _assert_matches_reference(k)


# serialize_certificate bytes for the least odd k of each case; they pin the
# params key order
GOLDEN_CERTIFICATES = (
    '{"k_input":1,"k_odd":1,"shift":0,"case":"AllOnesOddLen","params":{"length":1},"candidates":[1],"guarantee":"direct","verified_hit":1}',
    '{"k_input":3,"k_odd":3,"shift":0,"case":"AllOnesEvenLen","params":{"length":2},"candidates":[7],"guarantee":"direct","verified_hit":7}',
    '{"k_input":5,"k_odd":5,"shift":0,"case":"Lemma1","params":{"length":3,"tail_ones":1},"candidates":[5],"guarantee":"direct","verified_hit":5}',
    '{"k_input":11,"k_odd":11,"shift":0,"case":"Lemma2_rLtU","params":{"length":4,"lead_ones":1,"gap_zeros":1,"tail_ones":2},"candidates":[5],"guarantee":"direct","verified_hit":5}',
    '{"k_input":59,"k_odd":59,"shift":0,"case":"Lemma2_rGtU","params":{"length":6,"lead_ones":3,"gap_zeros":1,"tail_ones":2},"candidates":[1,3,25],"guarantee":{"triple":3},"verified_hit":1}',
    '{"k_input":27,"k_odd":27,"shift":0,"case":"Lemma2_Palindrome","params":{"length":5,"lead_ones":2,"gap_zeros":1,"tail_ones":2},"candidates":[3],"guarantee":"direct","verified_hit":3}',
    '{"k_input":107,"k_odd":107,"shift":0,"case":"Lemma2_vOdd","params":{"length":7,"lead_ones":2,"mid_ones":1,"gap_zeros":1,"tail_ones":2},"candidates":[17],"guarantee":"direct","verified_hit":17}',
    '{"k_input":3951,"k_odd":3951,"shift":0,"case":"Lemma2_vEven_uGe4","params":{"length":12,"lead_ones":4,"mid_ones":2,"gap_zeros":1,"tail_ones":4},"candidates":[1,3,385],"guarantee":{"triple":3},"verified_hit":385}',
    '{"k_input":219,"k_odd":219,"shift":0,"case":"Lemma2_u2_U4_1101","params":{"length":8,"lead_ones":2,"mid_ones":2,"gap_zeros":1,"tail_ones":2},"candidates":[17],"guarantee":"direct","verified_hit":17}',
    '{"k_input":795,"k_odd":795,"shift":0,"case":"Lemma2_u2_U5_11000","params":{"length":10,"lead_ones":2,"mid_ones":2,"gap_zeros":1,"tail_ones":2},"candidates":[1,3,97],"guarantee":{"triple":3},"verified_hit":3}',
    '{"k_input":411,"k_odd":411,"shift":0,"case":"Lemma2_u2_U5_11001","params":{"length":9,"lead_ones":2,"mid_ones":2,"gap_zeros":1,"tail_ones":2},"candidates":[1,5,81],"guarantee":{"triple":5},"verified_hit":81}',
    '{"k_input":19,"k_odd":19,"shift":0,"case":"Lemma3_rLtU","params":{"length":5,"lead_ones":1,"gap_zeros":2,"tail_ones":2},"candidates":[9],"guarantee":"direct","verified_hit":9}',
    '{"k_input":115,"k_odd":115,"shift":0,"case":"Lemma3_rGtU","params":{"length":7,"lead_ones":3,"gap_zeros":2,"tail_ones":2},"candidates":[17],"guarantee":"direct","verified_hit":17}',
    '{"k_input":975,"k_odd":975,"shift":0,"case":"Lemma4","params":{"length":10,"lead_ones":4,"lead_zeros":2,"gap_zeros":2,"tail_ones":4},"candidates":[1,9,521],"guarantee":{"triple":9},"verified_hit":521}',
    '{"k_input":15439,"k_odd":15439,"shift":0,"case":"Lemma5_tSmall","params":{"length":14,"lead_ones":4,"lead_zeros":3,"gap_zeros":2,"tail_ones":4,"above_gap_bit":0},"candidates":[257],"guarantee":"direct","verified_hit":257}',
    '{"k_input":211,"k_odd":211,"shift":0,"case":"Lemma5_tEq_u_s_eq","params":{"length":8,"lead_ones":2,"lead_zeros":1,"gap_zeros":2,"tail_ones":2,"above_gap_bit":0},"candidates":[17],"guarantee":"direct","verified_hit":17}',
    '{"k_input":403,"k_odd":403,"shift":0,"case":"Lemma5_tEq_u_s_big","params":{"length":9,"lead_ones":2,"lead_zeros":2,"gap_zeros":2,"tail_ones":2,"above_gap_bit":0},"candidates":[17],"guarantee":"direct","verified_hit":17}',
    '{"k_input":419,"k_odd":419,"shift":0,"case":"Lemma5_tGtU_gap","params":{"length":9,"lead_ones":2,"lead_zeros":1,"gap_zeros":3,"tail_ones":2,"above_gap_bit":0},"candidates":[1,5,321],"guarantee":{"triple":5},"verified_hit":1}',
    '{"k_input":1935,"k_odd":1935,"shift":0,"case":"Lemma6_tSmall","params":{"length":11,"lead_ones":4,"lead_zeros":3,"gap_zeros":3,"tail_ones":4,"above_gap_bit":1},"candidates":[1,3,49],"guarantee":{"triple":3},"verified_hit":49}',
    '{"k_input":435,"k_odd":435,"shift":0,"case":"Lemma6_tEqU_U2u","params":{"length":9,"lead_ones":2,"lead_zeros":1,"gap_zeros":2,"tail_ones":2,"above_gap_bit":1},"candidates":[1,3,97],"guarantee":{"triple":3},"verified_hit":3}',
    '{"k_input":51,"k_odd":51,"shift":0,"case":"Lemma6_tEqU_U2u1_one","params":{"length":6,"lead_ones":2,"lead_zeros":2,"gap_zeros":2,"tail_ones":2,"above_gap_bit":1},"candidates":[1,3,7],"guarantee":{"triple":3},"verified_hit":7}',
    '{"k_input":1587,"k_odd":1587,"shift":0,"case":"Lemma6_tEqU_U2u1_zero","params":{"length":11,"lead_ones":2,"lead_zeros":3,"gap_zeros":2,"tail_ones":2,"above_gap_bit":1},"candidates":[1,5,1029],"guarantee":{"triple":5},"verified_hit":1029}',
    '{"k_input":99,"k_odd":99,"shift":0,"case":"Lemma6_tGtU","params":{"length":7,"lead_ones":2,"lead_zeros":3,"gap_zeros":3,"tail_ones":2,"above_gap_bit":1},"candidates":[1,5,81],"guarantee":{"triple":5},"verified_hit":81}',
)


def test_certificate_bytes_golden_per_case():
    cases = set()
    for line in GOLDEN_CERTIFICATES:
        cert = certify(int(line.split(",")[0].split(":")[1]))
        assert serialize_certificate(cert) == line
        cases.add(cert.case)
    assert cases == set(CaseLabel)


# certify(k) for k with a shift: a string k_input over a bare k_odd, and both
# as strings
GOLDEN_SHIFTED_CERTIFICATES = {
    6: '{"k_input":6,"k_odd":3,"shift":1,"case":"AllOnesEvenLen","params":{"length":2},"candidates":[7],'
    '"guarantee":"direct","verified_hit":7}',
    3 << 60: '{"k_input":"3458764513820540928","k_odd":3,"shift":60,"case":"AllOnesEvenLen",'
    '"params":{"length":2},"candidates":[7],"guarantee":"direct","verified_hit":7}',
    ((1 << 80) + 1) << 3: '{"k_input":"9671406556917033397649416","k_odd":"1208925819614629174706177",'
    '"shift":3,"case":"Lemma1","params":{"length":81,"tail_ones":1},'
    '"candidates":["1208925819614629174706177"],"guarantee":"direct",'
    '"verified_hit":"1208925819614629174706177"}',
}


@pytest.mark.parametrize("k", GOLDEN_SHIFTED_CERTIFICATES)
def test_certificate_bytes_golden_with_shift(k):
    assert serialize_certificate(certify(k)) == GOLDEN_SHIFTED_CERTIFICATES[k]


def _reference_serialize(cert):
    # the earlier encoder: a nested dict through JSONEncoder, each int past
    # 2^53 - 1 in magnitude as a string
    def encode(value):
        return value if abs(value) <= 2**53 - 1 else str(value)

    guarantee = "direct" if cert.triple_pivot is None else {"triple": encode(cert.triple_pivot)}
    return json.JSONEncoder(separators=(",", ":")).encode(
        {
            "k_input": encode(cert.k_input),
            "k_odd": encode(cert.k_odd),
            "shift": cert.shift,
            "case": cert.case.name,
            "params": {name: encode(value) for name, value in cert.params.items()},
            "candidates": [encode(c) for c in cert.candidates],
            "guarantee": guarantee,
            "verified_hit": encode(cert.verified_hit),
        }
    )


def _assert_serializes_as_reference(cert):
    text = serialize_certificate(cert)
    assert text == _reference_serialize(cert)
    assert parse_certificate(text) == cert


_SHIFTS = st.integers(min_value=0, max_value=80)


@settings(max_examples=200, deadline=None)
@given(_uniform_odd_words(), _SHIFTS)
def test_serialize_matches_reference_on_uniform_words(k, shift):
    _assert_serializes_as_reference(certify(k << shift))


@settings(max_examples=200, deadline=None)
@given(_run_structured_words(), _SHIFTS)
def test_serialize_matches_reference_on_run_structured_words(k, shift):
    _assert_serializes_as_reference(certify(k << shift))


# certificates no certify call makes: the encoder reuses a text only for an
# equal value, never by position or by shift
_BIG = 2**53
INCONSISTENT_CERTIFICATES = {
    "hit_not_a_candidate": dict(verified_hit=_BIG + 1),
    "small_hit_not_a_candidate": dict(verified_hit=5),
    "k_input_not_k_odd_shifted": dict(k_input=_BIG + 5),
    "k_input_past_k_odd_with_shift_0": dict(k_input=177, shift=0),
    "k_odd_past_2_to_53": dict(k_odd=_BIG + 3),
    "pivot_past_2_to_53": dict(triple_pivot=_BIG),
    "pivot_not_a_candidate": dict(triple_pivot=9),
    "params_value_past_2_to_53": dict(params={"length": 6, "lead_ones": _BIG, "gap_zeros": 1, "tail_ones": 2}),
    "negative_at_the_bound": dict(k_input=-(_BIG - 1), verified_hit=-_BIG),
    "repeated_candidates": dict(candidates=(3, 3, _BIG), triple_pivot=_BIG, verified_hit=_BIG),
}


@pytest.mark.parametrize("fields", INCONSISTENT_CERTIFICATES.values(), ids=INCONSISTENT_CERTIFICATES.keys())
def test_serialize_inconsistent_certificates_as_reference(fields):
    _assert_serializes_as_reference(certify(59)._replace(**fields))


# one record of each result type, with a field to try to assign
RECORDS = {
    "certificate": (lambda: certify(59), "verified_hit"),
    "scan": (lambda: scan_theorem(1, 3)[0], "f"),
    "frequency": (lambda: frequency(3, 64), "ones_frequency"),
    "weight_family": (lambda: scan_weight_family(4, 4, 8)[0], "counterexample"),
    "conjecture": (lambda: conjecture_scan(2, 2, 1, 8), "violated"),
    "run_decomposition": (lambda: run_decompose(11), "runs"),
    "genbase_query": (lambda: GenBaseQuery(2, 2, 5, 3), "base"),
}


@pytest.mark.parametrize(("make", "field"), RECORDS.values(), ids=RECORDS.keys())
def test_records_are_immutable_and_pickle(make, field):
    record = make()
    with pytest.raises(AttributeError):
        setattr(record, field, 0)
    assert pickle.loads(pickle.dumps(record)) == record


def test_serialize_raises_past_the_int_to_str_limit():
    # CPython converts at most 4,300 digits by default; 15,000 bits are 4,516
    cert = certify((1 << 15000) - 3)
    for serialize in (serialize_certificate, _reference_serialize):
        with pytest.raises(ValueError):
            serialize(cert)


def test_construct_examples():
    assert construct_candidates(3, *classify(3)) == ((7,), None)
    assert construct_candidates(9, *classify(9)) == ((9,), None)
    assert construct_candidates(51, *classify(51)) == ((1, 3, 7), 3)
    assert construct_candidates(1, *classify(1)) == ((1,), None)


def test_construct_missing_parameter():
    with pytest.raises(ValueError, match="needs parameter"):
        construct_candidates(11, CaseLabel.Lemma2_rLtU, {"length": 4})


def test_construct_has_one_arm_per_case():
    assert _ARMS.keys() == CaseLabel.__members__.keys()


def test_word_shape_has_a_display_or_none_per_case():
    shapeless = {case.name for case in _SHAPELESS}
    assert _DISPLAYS.keys().isdisjoint(shapeless)
    assert _DISPLAYS.keys() | shapeless == CaseLabel.__members__.keys()


@pytest.mark.parametrize(
    "case", ["Lemma1", None, 5, enum.Enum("Other", "Lemma1").Lemma1], ids=["name", "none", "int", "foreign_member"]
)
def test_construct_rejects_a_case_that_is_no_member(case):
    with pytest.raises(ValueError, match="unknown case"):
        construct_candidates(9, case, {"length": 4, "tail_ones": 1})
    with pytest.raises(ValueError, match="unknown case"):
        word_shape(9, case, {"length": 4, "tail_ones": 1})


def test_certify_examples():
    cert = certify(51)
    assert cert.case is CaseLabel.Lemma6_tEqU_U2u1_one
    assert cert.candidates == (1, 3, 7)
    assert cert.verified_hit == 7
    assert cert.triple_pivot == 3

    cert6 = certify(6)
    assert (cert6.k_input, cert6.k_odd, cert6.shift) == (6, 3, 1)
    assert cert6.verified_hit == 7

    assert certify(7).candidates == (1,)
    assert certify(9).candidates == (9,)


def test_certificate_invariants_sampled():
    rng = random.Random(20260816)
    sample = list(range(1, 1 << 12)) + [rng.randrange(1, 1 << 40) for _ in range(400)]
    for k in sample:
        cert = certify(k)
        assert cert.k_odd << cert.shift == cert.k_input == k
        assert cert.candidates == tuple(sorted(cert.candidates))
        assert cert.verified_hit in cert.candidates
        assert thue_morse(cert.k_odd * cert.verified_hit) == 1
        for n in cert.candidates:
            assert 1 <= n <= cert.k_odd + 4
            assert n.bit_count() <= 3
        if cert.triple_pivot is None:
            assert len(cert.candidates) == 1
        else:
            assert len(cert.candidates) == 3
            assert cert.candidates[0] == 1
            assert cert.candidates[1] == cert.triple_pivot


def test_triple_guarantee_is_sharp():
    # the three products can never be all even; check the verified hit is the
    # first candidate that works, so earlier candidates all miss
    for k in range(1, 1 << 13, 2):
        cert = certify(k)
        for n in cert.candidates:
            if n == cert.verified_hit:
                break
            assert thue_morse(k * n) == 0


# f's constructive upper bound is the certificate's verified hit


def test_f_upper_equals_f_upper_of_double():
    for k in range(1, 1 << 15):
        assert certify(k).verified_hit == certify(2 * k).verified_hit


def test_f_upper_never_below_true_minimum():
    from tmwitness.oracle import f_exact

    for k in range(1, 1 << 12):
        assert f_exact(k) <= certify(k).verified_hit <= reduce_to_odd(k)[0] + 4


def test_word_shape_examples():
    assert word_shape(9, *classify(9)) == "1010001"
    assert int(word_shape(9, *classify(9)), 2) == 81
    assert word_shape(23, *classify(23)) == to_word(23 * 17)


@pytest.mark.parametrize("k", [3, 7, 27, 835])
def test_word_shape_unsupported_cases(k):
    case, params = classify(k)
    assert case in _SHAPELESS
    with pytest.raises(UnsupportedCaseError):
        word_shape(k, case, params)


def test_word_shape_matches_product_sweep():
    for k in range(1, 1 << 12, 2):
        case, params = classify(k)
        if case in _SHAPELESS:
            continue
        candidates, _ = construct_candidates(k, case, params)
        assert word_shape(k, case, params) == to_word(k * candidates[-1])


def test_word_shape_missing_parameter():
    # construct_candidates reads Lemma1's tail_ones; only the display reads mid_ones
    for k, missing in ((9, "tail_ones"), (0b1101011, "mid_ones")):
        case, params = classify(k)
        del params[missing]
        with pytest.raises(ValueError, match=f"case {case.name} needs parameter '{missing}'"):
            word_shape(k, case, params)


def test_word_shape_rejects_params_that_classify_never_gives():
    # classify(9) is Lemma1 with length 4; a width of 5 is not 9's
    with pytest.raises(ValueError, match="not the classification of k_odd=9"):
        word_shape(9, CaseLabel.Lemma1, {"length": 5, "tail_ones": 1})
    with pytest.raises(ValueError, match="not the classification of k_odd=9"):
        word_shape(9, CaseLabel.Lemma6_tGtU, classify(9)[1])


def _dud(k, case, params):
    # doubling keeps the weight, so this candidate misses whenever k's weight is even
    return (2,), None


def test_certify_raises_when_no_constructed_candidate_hits(monkeypatch):
    monkeypatch.setattr("tmwitness.witness.construct_candidates", _dud)
    with pytest.raises(TheoremViolationError, match="no constructed candidate"):
        certify(3)


def test_certify_fails_at_once_on_a_long_word(monkeypatch):
    # the least hit for 2^4096 - 1 is k + 4, so a search standing in for the
    # dud candidate would run for about 2^4096 steps
    calls = []

    def counted(n):
        calls.append(n)
        if len(calls) > 10:
            raise AssertionError("certify searched past its candidates")
        return thue_morse(n)

    monkeypatch.setattr("tmwitness.witness.thue_morse", counted)
    monkeypatch.setattr("tmwitness.witness.construct_candidates", _dud)
    with pytest.raises(TheoremViolationError):
        certify((1 << 4096) - 1)
    assert len(calls) == 1


def test_certify_violation_when_nothing_hits(monkeypatch):
    monkeypatch.setattr("tmwitness.witness.thue_morse", lambda n: 0)
    with pytest.raises(TheoremViolationError):
        certify(3)


_WIDE_K = random.Random(1009).getrandbits(1000) | 1 | 1 << 999


def _first_hit(multipliers):
    return next(n for n in multipliers if thue_morse(_WIDE_K * n))


@pytest.mark.parametrize(
    "planted",
    [
        # weight 3, so only the bound is broken
        lambda: _first_hit((1 << 1000) + (1 << j) + 1 for j in range(1, 1000)),
        # at most 2^10, so only the weight is broken
        lambda: _first_hit(n for n in range(15, 1 << 10) if n.bit_count() == 4),
    ],
    ids=["above_k_plus_4", "weight_4"],
)
def test_a_hit_outside_the_theorem_fails_on_a_wide_word(capsys, monkeypatch, planted):
    hit = planted()
    assert (hit > _WIDE_K + 4) != (hit.bit_count() > 3)
    case, _ = classify(_WIDE_K)
    monkeypatch.setitem(_ARMS, case.name, lambda k, w, p: ((hit,), None))
    with pytest.raises(TheoremViolationError, match="above k_odd \\+ 4 or has more than three set bits"):
        certify(_WIDE_K)
    assert run(["witness", str(_WIDE_K)]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"constructed hit {hit} for k_odd={_WIDE_K}" in captured.err
