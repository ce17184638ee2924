"""Range scanning, flag enforcement, sparse-family sweeps, frequencies, CSV output."""

import io
import os
import stat
import threading
from concurrent.futures import Future
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from tmwitness import oracle
from tmwitness.digitcore import TheoremViolationError, thue_morse
from tmwitness.scanner import (
    THEOREM_HEADER,
    FrequencyRecord,
    ScanRecord,
    WeightFamilyRecord,
    emit_csv,
    frequency,
    scan_theorem,
    scan_weight_family,
)
from tmwitness.witness import CaseLabel, certify

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


def _reference_record(k):
    """k's record with certify and both oracles called on k itself, even k included."""
    certificate = certify(k)
    least = oracle.f_exact(k)
    assert least <= certificate.verified_hit <= certificate.k_odd + 4
    zero = oracle.zero_min(k)
    flags = {4: {"GapEquals4"}, 1: {"GapEquals1"}, 0: {"GapEquals0"}}.get(least - k, set())
    if zero > k + 2:
        flags.add("ZeroMinExceedsKplus2")
    return ScanRecord(k, least, least - k, certificate.case, least, least.bit_count(), zero, frozenset(flags))


@pytest.mark.parametrize(
    "k_min, k_max",
    # 1000..1100 and 2^20.. hold even k whose odd cores lie below the range
    [(1, 4096), (1000, 1100), (4096, 4096), (2**20, 2**20 + 300)],
)
def test_scan_matches_per_k_reference_for_every_jobs(monkeypatch, k_min, k_max):
    reference = [_reference_record(k) for k in range(k_min, k_max + 1)]
    assert scan_theorem(k_min, k_max) == reference
    # small tasks, so several are in flight per worker and may finish out of order
    monkeypatch.setattr("tmwitness.scanner._CORE_CHUNK", 37)
    for jobs in (1, 2, 3):
        assert scan_theorem(k_min, k_max, jobs=jobs) == reference, jobs


def test_pool_gets_no_more_workers_than_tasks(monkeypatch):
    made = []

    class InlinePool:
        """Records max_workers and runs each task at submit, so no process starts."""

        def __init__(self, max_workers):
            made.append(max_workers)

        def submit(self, function, *args):
            future = Future()
            future.set_result(function(*args))
            return future

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr("tmwitness.scanner.ProcessPoolExecutor", InlinePool)
    # cores 5, 11 and 21 below 40..44 are one task, and 41 and 43 another
    assert scan_theorem(40, 44, jobs=16) == scan_theorem(40, 44)
    assert made == [2]
    # the 150 odd cores of 1..300 are one task, which needs no pool
    assert scan_theorem(1, 300, jobs=16) == scan_theorem(1, 300)
    assert made == [2]
    monkeypatch.setattr("tmwitness.scanner._CORE_CHUNK", 37)
    assert scan_theorem(1, 1000, jobs=3) == scan_theorem(1, 1000)
    assert made == [2, 3]


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
    # k = 4 takes zero_min from its odd core 1, and only from it
    monkeypatch.setattr("tmwitness.scanner.oracle.zero_min", lambda k: {1: 7}[k])
    (record,) = scan_theorem(4, 4)
    assert record.zero_min == 7
    assert "ZeroMinExceedsKplus2" in record.flags

    # the flag compares a core's zero_min with each k, not with the core
    monkeypatch.setattr("tmwitness.scanner.oracle.zero_min", lambda k: {1: 5, 3: 1}[k])
    records = scan_theorem(1, 4)
    assert [record.zero_min for record in records] == [5, 5, 1, 5]
    assert ["ZeroMinExceedsKplus2" in record.flags for record in records] == [True, True, False, False]


def test_scan_aborts_when_no_constructed_candidate_hits(monkeypatch):
    # doubling keeps k = 3's even weight, so the only candidate misses
    monkeypatch.setattr(
        "tmwitness.witness.construct_candidates", lambda k, case, params: ((2,), None)
    )
    with pytest.raises(TheoremViolationError, match="no constructed candidate"):
        scan_theorem(3, 3, jobs=1)


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


def test_emit_csv_through_symlink_replaces_target_and_keeps_mode(tmp_path):
    target = tmp_path / "target.csv"
    target.write_text("old\n", encoding="utf-8")
    target.chmod(0o640)
    link = tmp_path / "link.csv"
    link.symlink_to(target)
    emit_csv(scan_theorem(1, 3), link)
    assert link.is_symlink() and link.resolve() == target.resolve()
    assert target.read_text(encoding="utf-8").splitlines()[1] == "1,1,0,AllOnesOddLen,1,1,3,GapEquals0"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(path.name for path in tmp_path.iterdir()) == ["link.csv", "target.csv"]


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_emit_csv_writes_through_a_fifo(tmp_path):
    fifo = tmp_path / "rows.fifo"
    os.mkfifo(fifo)
    received = []
    reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()), daemon=True)
    reader.start()
    emit_csv(scan_theorem(1, 3), fifo)
    reader.join(timeout=10)
    assert received and received[0].startswith(b"k,f,gap,case,")
    assert received[0].endswith(b"3,7,4,AllOnesEvenLen,7,3,1,GapEquals4\n")
    assert stat.S_ISFIFO(fifo.lstat().st_mode)
    assert [path.name for path in tmp_path.iterdir()] == ["rows.fifo"]


def test_emit_csv_multi_flag():
    synthetic = ScanRecord(
        k=99,
        f=103,
        gap=4,
        case=CaseLabel.Lemma1,
        witness=103,
        witness_weight=5,
        zero_min=102,
        flags=frozenset({"ZeroMinExceedsKplus2", "GapEquals4"}),
    )
    buffer = io.StringIO()
    emit_csv([synthetic], buffer)
    assert buffer.getvalue().splitlines()[1] == (
        "99,103,4,Lemma1,103,5,102,GapEquals4|ZeroMinExceedsKplus2"
    )


def test_emit_csv_deterministic(tmp_path):
    records = scan_theorem(1, 40)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    emit_csv(records, first)
    emit_csv(records, second)
    assert first.read_bytes() == second.read_bytes()
