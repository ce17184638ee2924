"""Range scanning, flag enforcement, sparse-family sweeps, frequencies, CSV output."""

import dataclasses
import io
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tmwitness.digitcore import TheoremViolationError, thue_morse
from tmwitness.scanner import (
    FREQUENCY_HEADER,
    THEOREM_HEADER,
    FrequencyRecord,
    ScanRecord,
    WeightFamilyRecord,
    emit_csv,
    frequency,
    scan_theorem,
    scan_weight_family,
)
from tmwitness.witness import CaseLabel

F_TABLE = [1, 1, 7, 1, 5, 7, 1, 1, 9, 5, 1, 7, 1, 1, 19, 1, 17, 9, 1, 5]


def test_scan_reproduces_first_twenty():
    records = scan_theorem(1, 20)
    assert [record.f for record in records] == F_TABLE
    assert [record.k for record in records] == list(range(1, 21))


def test_scan_single_k_flags():
    (fifteen,) = scan_theorem(15, 15)
    assert fifteen.gap == 4
    assert fifteen.flags == frozenset({"GapEquals4"})

    (six,) = scan_theorem(6, 6)
    assert six.gap == 1
    assert six.flags == frozenset({"GapEquals1"})

    (one,) = scan_theorem(1, 1)
    assert one.gap == 0
    assert one.flags == frozenset({"GapEquals0"})

    (two,) = scan_theorem(2, 2)
    assert two.gap == -1
    assert two.flags == frozenset()


def test_scan_record_fields_for_three():
    (record,) = scan_theorem(3, 3)
    assert record == ScanRecord(
        k=3,
        f=7,
        gap=4,
        case=CaseLabel.AllOnesEvenLen,
        witness=7,
        witness_weight=3,
        zero_min=1,
        flags=frozenset({"GapEquals4"}),
    )


def test_scan_range_validation():
    with pytest.raises(ValueError):
        scan_theorem(0, 5)
    with pytest.raises(ValueError):
        scan_theorem(5, 4)
    with pytest.raises(ValueError):
        scan_theorem(1, 5, jobs=0)


def test_parallel_scan_equals_sequential():
    sequential = scan_theorem(1, 300)
    assert scan_theorem(1, 300, jobs=4) == sequential
    assert scan_theorem(1, 300, jobs=7) == sequential
    # degenerate split: more jobs than elements falls back to one chunk
    assert scan_theorem(40, 44, jobs=16) == scan_theorem(40, 44)


def test_parallel_scan_csv_byte_identical(tmp_path):
    a = tmp_path / "seq.csv"
    b = tmp_path / "par.csv"
    emit_csv(scan_theorem(1, 120), a)
    emit_csv(scan_theorem(1, 120, jobs=3), b)
    assert a.read_bytes() == b.read_bytes()


def test_scan_aborts_on_forbidden_gap(monkeypatch):
    monkeypatch.setattr("tmwitness.scanner.oracle.f_exact", lambda k: k + 2)
    with pytest.raises(TheoremViolationError, match="k=3"):
        scan_theorem(3, 3)


def test_scan_aborts_when_oracle_beats_certificate(monkeypatch):
    monkeypatch.setattr("tmwitness.scanner.oracle.f_exact", lambda k: k + 3)
    with pytest.raises(TheoremViolationError, match="disagree"):
        scan_theorem(1, 1)


def test_scan_aborts_on_flag_invariant_breach(monkeypatch):
    monkeypatch.setattr("tmwitness.scanner._is_even_power_of_two", lambda value: False)
    with pytest.raises(TheoremViolationError, match="4\\^r"):
        scan_theorem(15, 15)


def test_zero_min_overflow_sets_flag(monkeypatch):
    monkeypatch.setattr("tmwitness.scanner.oracle.zero_min", lambda k: None)
    (record,) = scan_theorem(4, 4)
    assert record.zero_min is None
    assert "ZeroMinExceedsKplus2" in record.flags

    monkeypatch.setattr("tmwitness.scanner.oracle.zero_min", lambda k: k + 3)
    (record,) = scan_theorem(4, 4)
    assert record.zero_min == 7
    assert "ZeroMinExceedsKplus2" in record.flags


def test_fallback_certificate_sets_flag(monkeypatch):
    from tmwitness.witness import certify

    real = certify(11)
    monkeypatch.setattr(
        "tmwitness.scanner.certify",
        lambda k: dataclasses.replace(real, fallback_used=True),
    )
    (record,) = scan_theorem(11, 11)
    assert "CertificateFallbackUsed" in record.flags


def test_weight_family_clean_through_six():
    records = scan_weight_family(4, 6, 32)
    assert records == [
        WeightFamilyRecord(exponent=4, k=51, counterexample=None),
        WeightFamilyRecord(exponent=5, k=99, counterexample=None),
        WeightFamilyRecord(exponent=6, k=195, counterexample=None),
    ]


def test_weight_family_tiny_bit_limit_vacuous():
    (record,) = scan_weight_family(4, 4, 4)
    assert record.counterexample is None


def test_weight_family_starts_at_four():
    with pytest.raises(ValueError):
        scan_weight_family(3, 6, 32)


def test_weight_family_reports_planted_counterexample(monkeypatch):
    monkeypatch.setattr("tmwitness.scanner.oracle.min_weight_witness", lambda k, cap, bits: 33)
    records = scan_weight_family(4, 5, 32)
    assert [record.counterexample for record in records] == [33, 33]


def test_frequency_exact_small():
    assert frequency(1, 4) == FrequencyRecord(1, 4, Fraction(3, 4))
    assert frequency(3, 1).ones_frequency == Fraction(0, 1)


def _odd_weight_counts(k, count):
    """counts[N] = #{n <= N : k*n has odd weight}, one multiplier at a time: the reference."""
    counts = [0]
    for n in range(1, count + 1):
        counts.append(counts[-1] + thue_morse(k * n))
    return counts


def test_frequency_matches_pointwise_windows():
    # the counter works in blocks of 2^16 multipliers, n = 0 included, and
    # sizes its blocks by count.bit_length(); these counts sit on both sides
    # of each of those edges
    counts = (1, 2, 3, 7, 63, 64, 65, 500, 1000, 4097, 2**16 - 2, 2**16 - 1, 2**16, 2**17 - 1, 2**17)
    word = int("10" * 1024 + "1101" * 512, 2)  # 4096 bits, odd
    for k in (1, 2, 3, 6, 12, 51, 4095, 2**60 + 1, 2**62 - 1, 2**100 + 1, word):
        direct = _odd_weight_counts(k, max(counts))
        for count in counts:
            assert frequency(k, count).ones_frequency == Fraction(direct[count], count), (k, count)


@given(st.integers(min_value=1, max_value=1 << 200), st.integers(min_value=1, max_value=5000))
def test_frequency_matches_pointwise_random(k, count):
    assert frequency(k, count).ones_frequency == Fraction(_odd_weight_counts(k, count)[count], count)


def test_frequency_validation():
    with pytest.raises(ValueError):
        frequency(0, 10)
    with pytest.raises(ValueError):
        frequency(3, 0)


def test_emit_csv_golden_bytes(tmp_path):
    path = tmp_path / "out.csv"
    emit_csv(scan_theorem(1, 3), path)
    assert path.read_bytes() == (
        b"k,f,gap,case,witness,witness_weight,zero_min,flags\n"
        b"1,1,0,AllOnesOddLen,1,1,3,GapEquals0\n"
        b"2,1,-1,AllOnesOddLen,1,1,3,\n"
        b"3,7,4,AllOnesEvenLen,7,3,1,GapEquals4\n"
    )


def test_emit_csv_empty_stream_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], path)
    assert path.read_text(encoding="utf-8") == ",".join(THEOREM_HEADER) + "\n"


def test_emit_csv_accepts_open_handle():
    buffer = io.StringIO()
    emit_csv(scan_theorem(5, 7), buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == ",".join(THEOREM_HEADER)
    assert len(lines) == 4
    assert lines[1].startswith("5,5,0,")


def test_emit_csv_multi_flag_and_missing_zero_min():
    synthetic = ScanRecord(
        k=99,
        f=103,
        gap=4,
        case=CaseLabel.Lemma1,
        witness=103,
        witness_weight=5,
        zero_min=None,
        flags=frozenset({"ZeroMinExceedsKplus2", "GapEquals4"}),
    )
    buffer = io.StringIO()
    emit_csv([synthetic], buffer)
    assert buffer.getvalue().splitlines()[1] == (
        "99,103,4,Lemma1,103,5,,GapEquals4|ZeroMinExceedsKplus2"
    )


def test_emit_csv_frequency_records():
    buffer = io.StringIO()
    emit_csv([frequency(1, 4), frequency(3, 8)], buffer)
    lines = buffer.getvalue().splitlines()
    assert lines[0] == ",".join(FREQUENCY_HEADER)
    assert lines[1] == "1,4,3,4"
    assert lines[2] == "3,8,1,8"


def test_emit_csv_deterministic(tmp_path):
    records = scan_theorem(1, 40)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    emit_csv(records, first)
    emit_csv(records, second)
    assert first.read_bytes() == second.read_bytes()
