"""Acceptance run: one test per numbered criterion, each printing a PASS/FAIL line.

The heavyweight range scan over k = 1..65536 is shared between the
characterization and zero-witness criteria through a module-scoped fixture.
Criterion 9 holds k = 1, 5, 7 to within 1/100 of one half at 10^6 samples.
Multiples of three carry Newman's excess of even weight instead, which at
N = 4^j is exactly (2/3)(3/4)^j: the frequency tends to one half, as the
paper claims, but comes within 1/100 of it only from j = 15 (N ~ 1.07e9).
The test asserts that exact law rather than a tolerance the bias breaks.
"""

import math
import os
import random
from fractions import Fraction

import pytest

from tmwitness.digitcore import (
    frequency,
    lower_slice,
    shifted_difference_digit_sum,
    sum_digits,
    thue_morse,
    to_word,
    upper_slice,
)
from tmwitness.genbase import GenBaseQuery, conjecture_scan, corollary_construct, prop_construct
from tmwitness.oracle import f_exact, g_min, scan_weight_family
from tmwitness.scanner import scan_theorem
from tmwitness.witness import _SHAPELESS, certify, classify, construct_candidates, word_shape

SEED = 20260816

# grid shared by the construction criteria: every (base, modulus) pair with
# base in {2,3,5,10}, modulus <= 5, and gcd(base-1, modulus) = 1
GRID = [
    (base, modulus)
    for base in (2, 3, 5, 10)
    for modulus in range(1, 6)
    if math.gcd(base - 1, modulus) == 1
]


def report(number: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {number:02d}: {detail}")


@pytest.fixture(scope="module")
def theorem_scan():
    return scan_theorem(1, 65536, jobs=os.cpu_count() or 1)


def test_criterion_01_first_twenty_minima():
    want = [1, 1, 7, 1, 5, 7, 1, 1, 9, 5, 1, 7, 1, 1, 19, 1, 17, 9, 1, 5]
    got = [record.f for record in scan_theorem(1, 20)]
    report(1, got == want, f"f over 1..20 = {got}")
    assert got == want


def test_criterion_02_gap_characterization(theorem_scan):
    gap4 = {record.k for record in theorem_scan if record.gap == 4}
    gap1 = {record.k for record in theorem_scan if record.gap == 1}
    gap0 = {record.k for record in theorem_scan if record.gap == 0}
    forbidden = [record.k for record in theorem_scan if record.gap in (2, 3)]
    too_big = [record.k for record in theorem_scan if record.gap > 4]

    want_gap4 = {4**r - 1 for r in range(1, 9)}
    want_gap0 = {1} | {2**r + 1 for r in range(2, 16)}

    ok = (
        gap4 == want_gap4
        and gap1 == {6}
        and gap0 == want_gap0
        and not forbidden
        and not too_big
    )
    report(
        2,
        ok,
        f"gap4 at {sorted(gap4)}; gap1 at {sorted(gap1)}; "
        f"{len(gap0)} coefficients with gap 0; none in {{2,3}} or above 4",
    )
    assert gap4 == want_gap4
    assert gap1 == {6}
    assert gap0 == want_gap0
    assert forbidden == []
    assert too_big == []
    for record in theorem_scan:
        assert ("GapEquals4" in record.flags) == (record.gap == 4)
        assert ("GapEquals1" in record.flags) == (record.gap == 1)
        assert ("GapEquals0" in record.flags) == (record.gap == 0)


def test_criterion_03_certificates_for_all_odd_k():
    # certify raises TheoremViolationError unless a constructed candidate hits
    limit = 1 << 20
    for k in range(1, limit + 1, 2):
        cert = certify(k)
        assert thue_morse(k * cert.verified_hit) == 1, f"dead certificate at k={k}"
        for candidate in cert.candidates:
            assert candidate <= k + 4, f"oversized candidate {candidate} at k={k}"
            assert candidate.bit_count() <= 3, f"heavy candidate {candidate} at k={k}"
    report(3, True, f"all {limit // 2} certificates verified by a constructed candidate")


def test_criterion_04_word_shapes_bit_for_bit():
    mismatches = []
    shaped = 0
    for k in range(1, (1 << 16) + 1, 2):
        case, params = classify(k)
        if case in _SHAPELESS:
            continue
        candidates, _ = construct_candidates(k, case, params)
        shaped += 1
        if word_shape(k, case, params) != to_word(k * candidates[-1]):
            mismatches.append(k)
    report(4, not mismatches, f"{shaped} shaped products matched; mismatches: {mismatches}")
    assert mismatches == []


def test_criterion_05_sparse_family_has_no_light_witness():
    records = scan_weight_family(4, 12, 32)
    hits = [(record.k, record.counterexample) for record in records if record.counterexample]
    report(
        5,
        not hits,
        f"k = 3*2^r+3 for r=4..12: no multiplier of weight <= 2 below 2^32 works; hits: {hits}",
    )
    assert hits == []
    assert [record.exponent for record in records] == list(range(4, 13))


def test_criterion_06_digit_class_construction_grid():
    checked = 0
    for base, modulus in GRID:
        for digit_class in range(modulus):
            for k in range(1, 1001):
                query = GenBaseQuery(base, modulus, digit_class, k)
                n = prop_construct(query)
                assert 1 <= n < base**modulus * k
                assert sum_digits(base, k * n) % modulus == digit_class
                checked += 1
    report(6, True, f"{checked} constructed witnesses verified across {len(GRID)} base/modulus pairs")


def test_criterion_07_residue_construction_grid():
    rng = random.Random(SEED)
    checked = 0
    for base, modulus in GRID:
        for digit_class in range(modulus):
            for _ in range(10):
                k = rng.randrange(1, 1001)
                residue = rng.randrange(0, k)
                query = GenBaseQuery(base, modulus, digit_class, k, residue)
                n = corollary_construct(query)
                assert n % k == residue
                assert sum_digits(base, n) % modulus == digit_class
                assert n < base ** (modulus + 1) * k**3
                checked += 1
    report(7, True, f"{checked} residue-pinned constructions verified")


def test_criterion_08_conjecture_scans():
    flagship = conjecture_scan(2, 2, 1, 4096)
    assert (flagship.worst_gap, flagship.worst_k) == (4, 3)
    assert flagship.bound == 8
    assert flagship.violated is False

    # frozen regressions for the wider grids; violations are recorded in the
    # report line, never asserted away
    frozen = {
        (2, 3, 0): (6, 1),
        (2, 3, 1): (4, 7),
        (2, 3, 2): (6, 7),
        (10, 2, 0): (2, 9),
        (10, 2, 1): (12, 99),
    }
    outcomes = []
    for base, modulus in ((2, 3), (10, 2)):
        for digit_class in range(modulus):
            rep = conjecture_scan(base, modulus, digit_class, 512)
            outcomes.append(
                f"(b={base},r={modulus},c={digit_class}): gap {rep.worst_gap} at k={rep.worst_k}, "
                f"bound {rep.bound}, violated={rep.violated}"
            )
            assert (rep.worst_gap, rep.worst_k) == frozen[(base, modulus, digit_class)]
            assert rep.bound == base ** (modulus + digit_class)
    # base 3 with modulus 2 shares a factor between base-1 and the modulus,
    # so the query family is rejected outright instead of scanned
    for digit_class in range(2):
        with pytest.raises(ValueError):
            conjecture_scan(3, 2, digit_class, 512)
    outcomes.append("(b=3,r=2,c=*): rejected, digit sums of multiples skip classes")
    report(8, True, "flagship gap 4 <= 8; " + "; ".join(outcomes))


def test_criterion_09_hit_frequency_near_half():
    frozen = {
        1: Fraction(500001, 1000000),
        3: Fraction(28829, 62500),
        5: Fraction(49809, 100000),
        7: Fraction(499633, 1000000),
    }
    measured = {}
    for k in (1, 3, 5, 7):
        measured[k] = frequency(k, 10**6).ones_frequency
        assert measured[k] == frozen[k], f"frequency regression moved at k={k}"
    deviations = {k: abs(value - Fraction(1, 2)) for k, value in measured.items()}

    # Newman's bias, exactly: at N = 4^j the k = 3 frequency is 1/2 - bias(j),
    # which first drops below 1/100 at j = 15
    def bias(j):
        return Fraction(2, 3) * Fraction(3, 4) ** j

    newman = {j: frequency(3, 4**j).ones_frequency == Fraction(1, 2) - bias(j) for j in range(2, 16)}

    ok = all(deviations[k] < Fraction(1, 100) for k in (1, 5, 7)) and all(newman.values())
    report(
        9,
        ok,
        "measured at 10^6 "
        + ", ".join(
            f"k={k}: {float(value):.6f} (off by {float(deviations[k]):.6f})"
            for k, value in measured.items()
        )
        + "; k=3 equals 1/2 - (2/3)(3/4)^j at N=4^j for j=2..15, within 1/100 first at j=15",
    )
    for k in (1, 5, 7):
        assert deviations[k] < Fraction(1, 100), (
            f"multiples of {k} hit odd weight with frequency {measured[k]} "
            f"= {float(measured[k]):.6f}, off one half by {float(deviations[k]):.6f}"
        )
    for j, exact in newman.items():
        assert exact, f"k=3 frequency at N=4^{j} departs from 1/2 - (2/3)(3/4)^{j}"
    assert bias(14) > Fraction(1, 100) > bias(15)


def test_criterion_10_zero_witness_remark(theorem_scan):
    assert len(theorem_scan) == 65536
    exceedances = [record.k for record in theorem_scan if record.zero_min > record.k + 2]
    flagged = [record.k for record in theorem_scan if "ZeroMinExceedsKplus2" in record.flags]
    worst = max(record.zero_min - record.k for record in theorem_scan)
    report(
        10,
        exceedances == flagged,
        f"zero-witness bound k+2 exceeded {len(exceedances)} times below 2^16 "
        f"(worst margin over k: {worst}); every exceedance flagged",
    )
    assert exceedances == flagged


def test_criterion_11_oracle_paths_agree():
    disagreements = [
        k for k in range(1, 4097) if g_min(GenBaseQuery(2, 2, 1, k)) != f_exact(k)
    ]
    report(
        11,
        not disagreements,
        f"digit-class search equals direct minimum for all k <= 4096; "
        f"disagreements: {disagreements}",
    )
    assert disagreements == []


def test_criterion_12_digit_identity_suites():
    rng = random.Random(SEED)
    cases = 10**4

    def draw(bits):
        return rng.randrange(1, 1 << rng.randrange(1, bits))

    for _ in range(cases):
        n = draw(128) - 1
        assert thue_morse(2 * n) == thue_morse(n)
        assert thue_morse(2 * n + 1) == 1 - thue_morse(n)

    for _ in range(cases):
        x, y = draw(128), draw(128)
        glued = int(to_word(x) + to_word(y), 2)
        assert sum_digits(2, glued) == sum_digits(2, x) + sum_digits(2, y)

    for _ in range(cases):
        k = draw(128)
        width = k.bit_length()
        if width < 2:
            k, width = 5, 3
        j = rng.randrange(1, width)
        low_weight = lower_slice(k, width - j).count("1")
        high_weight = upper_slice(k, j).count("1")
        assert low_weight % 2 == (high_weight + thue_morse(k)) % 2

    for _ in range(cases):
        a, b = draw(128), draw(128)
        carries = 0
        carry = 0
        for i in range(max(a.bit_length(), b.bit_length()) + 2):
            total = ((a >> i) & 1) + ((b >> i) & 1) + carry
            carry = total >> 1
            carries += carry
        assert sum_digits(2, a) + sum_digits(2, b) - sum_digits(2, a + b) == carries

    for _ in range(cases):
        a = draw(120)
        j = rng.randrange(1, 100)
        b = rng.randrange(1, 1 << j)
        assert shifted_difference_digit_sum(a, j, b) == sum_digits(2, a * (1 << j) - b)

    report(12, True, f"five identity suites passed at {cases} random cases each")
