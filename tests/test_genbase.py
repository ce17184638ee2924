"""Digit-class constructions in general bases and the conjecture gap scanner."""

import math
import sys

import pytest
from hypothesis import given, strategies as st

from tmwitness.digitcore import TheoremViolationError, sum_digits
from tmwitness.genbase import (
    ConjectureReport,
    GenBaseQuery,
    _pick_exponent,
    _scale_exponent,
    conjecture_scan,
    corollary_construct,
    prop_construct,
)
from tmwitness.oracle import g_min


def test_query_normalizes_digit_class():
    assert GenBaseQuery(2, 2, 5, 3).digit_class == 1
    assert GenBaseQuery(2, 2, -1, 3).digit_class == 1
    assert GenBaseQuery(10, 4, 10, 1).digit_class == 2


def test_query_validation():
    with pytest.raises(ValueError):
        GenBaseQuery(1, 2, 0, 3)
    with pytest.raises(ValueError):
        GenBaseQuery(2, 0, 0, 3)
    with pytest.raises(ValueError):
        GenBaseQuery(2, 2, 1, 0)
    with pytest.raises(ValueError):
        GenBaseQuery(2, 2, 1, 3, residue=3)
    with pytest.raises(ValueError):
        GenBaseQuery(2, 2, 1, 3, residue=-1)


def test_query_by_keyword_is_checked_as_by_position():
    query = GenBaseQuery(2, 2, 5, 3)
    assert repr(query) == "GenBaseQuery(base=2, modulus=2, digit_class=1, k=3, residue=None)"
    assert GenBaseQuery(base=2, modulus=2, digit_class=5, k=3) == query
    assert GenBaseQuery(10, 4, 10, 7, residue=6) == GenBaseQuery(k=7, residue=6, digit_class=10, modulus=4, base=10)
    for fields in [
        {"base": 1, "modulus": 2, "digit_class": 0, "k": 3},
        {"base": 2, "modulus": 0, "digit_class": 0, "k": 3},
        {"base": 2, "modulus": 2, "digit_class": 1, "k": 0},
        {"base": 3, "modulus": 2, "digit_class": 1, "k": 4},
        {"base": 2, "modulus": 2, "digit_class": 1, "k": 3, "residue": 3},
    ]:
        with pytest.raises(ValueError) as by_keyword:
            GenBaseQuery(**fields)
        with pytest.raises(ValueError) as by_position:
            GenBaseQuery(*fields.values())
        assert str(by_keyword.value) == str(by_position.value)


@pytest.mark.parametrize("base,modulus", [(3, 2), (10, 3), (5, 2), (7, 6)])
def test_query_rejects_shared_factor(base, modulus):
    # digit sums of multiples skip entire classes when base-1 shares a factor
    # with the modulus, so these queries have no termination guarantee
    with pytest.raises(ValueError, match="gcd"):
        GenBaseQuery(base, modulus, 1, 4)


def test_prop_construct_examples():
    assert prop_construct(GenBaseQuery(10, 2, 1, 7)) == 9
    assert sum_digits(10, 63) == 9
    assert prop_construct(GenBaseQuery(2, 2, 0, 5)) == 15
    assert sum_digits(2, 75) == 4
    assert prop_construct(GenBaseQuery(2, 1, 0, 1)) == 1


def test_exhausted_exponent_window_is_a_violation():
    # base 3 shares the factor 2 with the modulus, so no exponent reaches class 1;
    # _replace builds the query unchecked
    query = GenBaseQuery(2, 2, 1, 3)._replace(base=3)
    with pytest.raises(TheoremViolationError, match="window"):
        prop_construct(query)


def test_the_exponent_is_the_least_in_its_window():
    # against the search it replaces: t from _scale_exponent(query) up, one at a time
    for base in range(2, 12):
        for modulus in range(1, 13):
            if math.gcd(base - 1, modulus) != 1:
                continue
            for k in (1, 2, 3, 50, 1000):
                query = GenBaseQuery(base, modulus, 0, k)
                start = _scale_exponent(query)
                for target in range(-modulus, 2 * modulus):
                    least = next(t for t in range(start, start + modulus) if (base - 1) * t % modulus == target % modulus)
                    assert _pick_exponent(query, target) == least, (base, modulus, k, target)


def test_prop_construct_rejects_residue_queries():
    with pytest.raises(ValueError):
        prop_construct(GenBaseQuery(2, 2, 1, 3, residue=0))


def test_prop_construct_contract_grid():
    for base in (2, 3, 5, 10):
        for modulus in range(1, 6):
            if math.gcd(base - 1, modulus) != 1:
                continue
            for digit_class in range(modulus):
                for k in (1, 2, 3, 17, 100, 999):
                    query = GenBaseQuery(base, modulus, digit_class, k)
                    n = prop_construct(query)
                    assert 1 <= n < base**modulus * k
                    assert sum_digits(base, k * n) % modulus == digit_class


@given(st.integers(min_value=2, max_value=36), st.integers(min_value=1, max_value=60), st.data())
def test_prop_witness_product_has_the_digit_sum_of_its_exponent(base, t, data):
    # for k <= b^t, k * (b^t - 1) = (k - 1) * b^t + (b^t - k): the low t digits are those of k - 1
    # each taken from b - 1, so the digit sum is t * (b - 1) for every such k, which prop_construct
    # rests on; a check of sum_digits in every base apart from the construction
    k = data.draw(st.integers(min_value=1, max_value=base**t), label="k")
    assert sum_digits(base, k * (base**t - 1)) == t * (base - 1)


def test_corollary_construct_examples():
    assert corollary_construct(GenBaseQuery(2, 2, 1, 3, residue=0)) == 84
    assert sum_digits(2, 84) == 3
    n = corollary_construct(GenBaseQuery(10, 2, 0, 1, residue=0))
    assert n == 990
    assert sum_digits(10, n) % 2 == 0


def test_corollary_selects_against_residue_digit_sum():
    # residue 11 in base 10: digit sum 2 differs from 11 mod 2, so the two
    # exponent selections split and only the digit-sum one satisfies the class
    n = corollary_construct(GenBaseQuery(10, 2, 0, 12, residue=11))
    assert n == 118811
    assert n % 12 == 11
    assert sum_digits(10, n) % 2 == 0
    literal = 12 * 10**2 * (10**3 - 1) + 11
    assert literal == 1198811
    assert sum_digits(10, literal) % 2 != 0


def test_corollary_requires_residue():
    with pytest.raises(ValueError):
        corollary_construct(GenBaseQuery(2, 2, 1, 3))


def test_corollary_contract_sampled():
    import random

    rng = random.Random(5)
    for base in (2, 3, 5, 10):
        for modulus in (1, 5) if base != 10 else (1, 2):
            for _ in range(25):
                k = rng.randrange(1, 1000)
                residue = rng.randrange(0, k)
                digit_class = rng.randrange(0, modulus)
                query = GenBaseQuery(base, modulus, digit_class, k, residue)
                n = corollary_construct(query)
                assert n % k == residue
                assert sum_digits(base, n) % modulus == digit_class
                assert n < base ** (modulus + 1) * k**3


def test_conjecture_scan_flagship():
    report = conjecture_scan(2, 2, 1, 4096)
    assert report == ConjectureReport(
        base=2,
        modulus=2,
        digit_class=1,
        k_max=4096,
        worst_k=3,
        worst_gap=4,
        bound=8,
        violated=False,
    )


def test_conjecture_scan_small_ranges():
    tiny = conjecture_scan(2, 2, 1, 2)
    assert (tiny.worst_k, tiny.worst_gap) == (1, 0)
    trivial = conjecture_scan(3, 1, 0, 10)
    assert trivial.worst_gap == 0
    assert trivial.worst_k == 1


def test_conjecture_scan_normalizes_class():
    assert conjecture_scan(2, 2, 3, 64) == conjecture_scan(2, 2, 1, 64)


def test_conjecture_scan_worst_gap_independent_check():
    report = conjecture_scan(2, 3, 1, 128)
    gaps = [g_min(GenBaseQuery(2, 3, 1, k)) - k for k in range(1, 129)]
    assert report.worst_gap == max(gaps)
    assert report.worst_k == gaps.index(max(gaps)) + 1


def test_conjecture_scan_rejects_bad_query():
    with pytest.raises(ValueError):
        conjecture_scan(3, 2, 0, 16)
    with pytest.raises(ValueError):
        conjecture_scan(2, 2, 1, 0)


def test_a_witness_or_bound_past_the_print_limit_is_refused(monkeypatch):
    # with a limit of 10 digits: base 10, mod 20 picks t = 10 for class 10 and t = 11 for class 19,
    # so 10^10 - 1 prints and 10^11 - 1 would not; the pinned form k * 10 * (10^t - 1) + residue has
    # t + 1 digits, t = 9 for class 1 and 10 for class 10; the conjecture bound 10^(mod + class) has
    # mod + class + 1 digits
    monkeypatch.setattr(sys, "get_int_max_str_digits", lambda: 10, raising=False)
    assert prop_construct(GenBaseQuery(10, 20, 10, 1)) == 10**10 - 1
    with pytest.raises(ValueError, match="^the witness would have about 11 digits, past the 10-digit limit on printing$"):
        prop_construct(GenBaseQuery(10, 20, 19, 1))
    assert corollary_construct(GenBaseQuery(10, 20, 1, 1, residue=0)) == 10**10 - 10
    with pytest.raises(ValueError, match="about 11 digits"):
        corollary_construct(GenBaseQuery(10, 20, 10, 1, residue=0))
    assert conjecture_scan(10, 8, 1, 1).bound == 10**9
    with pytest.raises(ValueError, match="^the bound would have about 11 digits"):
        conjecture_scan(10, 8, 2, 1)
