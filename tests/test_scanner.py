"""Range scanning, flag enforcement, sparse-family sweeps, frequencies, CSV output."""

import gc
import io
import os
import stat
import signal
import threading
import time
import warnings
from fractions import Fraction
from functools import cache
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from tmwitness import oracle
from tmwitness.digitcore import TheoremViolationError, shifted_difference_digit_sum, thue_morse
from tmwitness.scanner import (
    THEOREM_HEADER,
    FrequencyRecord,
    ScanRecord,
    WeightFamilyRecord,
    _blocks,
    _column,
    _family_gaps,
    emit_csv,
    frequency,
    scan_csv,
    scan_theorem,
    scan_weight_family,
)
from tmwitness.witness import certify, verify

F_TABLE = [1, 1, 7, 1, 5, 7, 1, 1, 9, 5, 1, 7, 1, 1, 19, 1, 17, 9, 1, 5]


def test_scan_reproduces_first_twenty():
    records = scan_theorem(1, 20)
    assert [record.f for record in records] == F_TABLE
    assert [record.k for record in records] == list(range(1, 21))


def test_scan_single_k_flags():
    (fifteen,) = scan_theorem(15, 15)
    assert fifteen.gap == 4
    assert fifteen.flags == ("GapEquals4",)

    (six,) = scan_theorem(6, 6)
    assert six.gap == 1
    assert six.flags == ("GapEquals1",)

    (one,) = scan_theorem(1, 1)
    assert one.gap == 0
    assert one.flags == ("GapEquals0",)

    (two,) = scan_theorem(2, 2)
    assert two.gap == -1
    assert two.flags == ()


def test_scan_record_fields_for_three():
    (record,) = scan_theorem(3, 3)
    assert record == ScanRecord(
        k=3,
        f=7,
        gap=4,
        case="AllOnesEvenLen",
        witness=7,
        witness_weight=3,
        zero_min=1,
        flags=("GapEquals4",),
    )


def test_scan_range_validation():
    with pytest.raises(ValueError):
        scan_theorem(0, 5)
    with pytest.raises(ValueError):
        scan_theorem(5, 4)
    with pytest.raises(ValueError):
        scan_theorem(1, 5, jobs=0)


def test_parallel_scan_equals_sequential(small_tasks):
    sequential = scan_theorem(1, 300)
    assert small_tasks.taken() == 0
    assert scan_theorem(1, 300, jobs=4) == sequential
    assert small_tasks.taken() == 4
    assert scan_theorem(1, 300, jobs=3) == sequential
    assert small_tasks.taken() == 3
    # more jobs than tasks: 40..44 is two tasks (cores 5, 11, 21 below it,
    # then 41, 43), so it gets two workers
    assert scan_theorem(40, 44, jobs=4) == scan_theorem(40, 44)
    assert small_tasks.taken() == 2


def _reference_record(k):
    """k's record with certify and both oracles called on k itself, even k included."""
    certificate = certify(k)
    least = oracle.f_exact(k)
    assert least <= certificate.verified_hit <= certificate.k_odd + 4
    zero = oracle.zero_min(k)
    flags = {4: {"GapEquals4"}, 1: {"GapEquals1"}, 0: {"GapEquals0"}}.get(least - k, set())
    if zero > k + 2:
        flags.add("ZeroMinExceedsKplus2")
    case = certificate.case.name
    return ScanRecord(k, least, least - k, case, least, least.bit_count(), zero, tuple(sorted(flags)))


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



def test_scan_past_2_to_64_matches_the_per_k_reference(small_tasks):
    # every kept column here is a plain list, as its ints pass 2^64; no core of
    # the range is 2^r + 1, 4^r - 1 or 2^w - 1 with w odd, whose walks run to about k
    k_min, k_max = 2**65 + 2000001, 2**65 + 2000100
    assert type(_column(k_min)) is list
    reference = [_reference_record(k) for k in range(k_min, k_max + 1)]
    assert scan_theorem(k_min, k_max) == reference
    assert scan_theorem(k_min, k_max, jobs=2) == reference
    assert small_tasks.taken() == 2


_cached_reference = cache(_reference_record)


# A block is the odd k of one task and the even k after each, so these cover
# the block edges: an even k_min (40), a lone even k, which has no odd task
# (2, 6, 4096), an odd k_min above 1 (41, 333), and runs of even k whose odd
# cores straddle the end of the cores below k_min (40..300: the cores of 78..84
# are 39, below 40, and 41, the first odd k in range).
@pytest.mark.parametrize("chunk", [1, 3, 37])
@settings(max_examples=40, deadline=None)
@given(k_min=st.integers(1, 600), width=st.integers(0, 80))
@example(k_min=40, width=4)
@example(k_min=2, width=0)
@example(k_min=6, width=0)
@example(k_min=4096, width=0)
@example(k_min=41, width=60)
@example(k_min=333, width=1)
@example(k_min=40, width=260)
def test_scan_blocks_match_the_per_k_reference(chunk, k_min, width):
    k_max = k_min + width
    with mock.patch("tmwitness.scanner._CORE_CHUNK", chunk):
        assert scan_theorem(k_min, k_max, jobs=1) == [_cached_reference(k) for k in range(k_min, k_max + 1)]


def test_pool_gets_no_more_workers_than_tasks(monkeypatch, forks):
    # cores 5, 11 and 21 below 40..44 are one task, and 41 and 43 another
    assert scan_theorem(40, 44, jobs=16) == scan_theorem(40, 44)
    assert forks.taken() == 2
    # the 150 odd cores of 1..300 are one task, which runs in this process
    assert scan_theorem(1, 300, jobs=16) == scan_theorem(1, 300)
    assert forks.taken() == 0
    monkeypatch.setattr("tmwitness.scanner._CORE_CHUNK", 37)
    assert scan_theorem(1, 1000, jobs=3) == scan_theorem(1, 1000)
    assert forks.taken() == 3


def test_scan_without_fork_runs_in_this_process(monkeypatch):
    sequential = scan_theorem(1, 300)
    monkeypatch.setattr("tmwitness.scanner._CORE_CHUNK", 8)
    monkeypatch.delattr(os, "fork")
    assert scan_theorem(1, 300, jobs=4) == sequential


def _open_descriptors():
    return sorted(os.listdir("/proc/self/fd"))


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="lists open descriptors through /proc")
def test_closed_scan_leaves_no_worker_and_no_pipe(small_tasks):
    before = _open_descriptors()
    blocks = _blocks(1, 300, 2)
    next(blocks)
    assert len(small_tasks.pids) == 2
    assert len(_open_descriptors()) == len(before) + 2  # one pipe a worker
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        blocks.close()
        gc.collect()
    assert _open_descriptors() == before
    assert not [warning for warning in caught if issubclass(warning.category, ResourceWarning)]
    for pid in small_tasks.pids:
        with pytest.raises(ChildProcessError):  # killed and reaped already
            os.waitpid(pid, os.WNOHANG)


def test_worker_that_dies_fails_the_scan(monkeypatch, small_tasks):
    parent = os.getpid()

    def dying_verify(k_odd):
        if k_odd == 51 and os.getpid() != parent:
            os._exit(1)  # a worker killed in its task, without a word to the parent
        return verify(k_odd)

    monkeypatch.setattr("tmwitness.scanner.verify", dying_verify)

    def hung(signum, frame):
        raise TimeoutError("the scan waited on a dead worker")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(20)
    started = time.monotonic()
    try:
        with pytest.raises(ChildProcessError, match="ended without the result of task 3"):
            scan_theorem(1, 300, jobs=2)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert time.monotonic() - started < 10
    assert small_tasks.taken() == 2


def test_parallel_scan_csv_byte_identical(tmp_path, small_tasks):
    a = tmp_path / "seq.csv"
    b = tmp_path / "par.csv"
    emit_csv(scan_theorem(1, 120), a)
    emit_csv(scan_theorem(1, 120, jobs=3), b)
    assert a.read_bytes() == b.read_bytes()
    assert small_tasks.taken() == 3


def test_scan_aborts_on_forbidden_gap(plant):
    plant(fs={3: 5})  # k + 2
    with pytest.raises(TheoremViolationError, match="k=3"):
        scan_theorem(3, 3)


def test_scan_aborts_when_oracle_beats_certificate(plant):
    plant(fs={1: 4})  # k + 3
    with pytest.raises(TheoremViolationError, match="disagree"):
        scan_theorem(1, 1)


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("above", [0, 1])
def test_agreement_holds_the_oracle_to_the_hit_exactly(monkeypatch, plant, jobs, above):
    # 53's constructed hit is 33 and its true f is 5; among the eight-core tasks
    # of 1..300, 53 is in the fourth, so with two jobs a worker checks it
    k, hit = 53, verify(53)[4]
    assert (oracle.f_exact(k), hit) == (5, 33)
    monkeypatch.setattr("tmwitness.scanner._CORE_CHUNK", 8)
    plant(fs={k: hit + above})
    if above:
        with pytest.raises(TheoremViolationError, match=f"disagree at k={k}: {hit + 1} vs {hit}"):
            scan_theorem(1, 300, jobs=jobs)
    else:
        assert scan_theorem(1, 300, jobs=jobs)[k - 1].f == hit


def test_scan_aborts_on_a_gap_off_the_table(monkeypatch):
    # f(15) = 19 is right, but a table without 15 allows it only a negative gap
    monkeypatch.setattr(
        "tmwitness.scanner._family_gaps", lambda k_max: {k: gap for k, gap in _family_gaps(k_max).items() if k != 15}
    )
    with pytest.raises(TheoremViolationError, match="k=15: gap 4, not negative"):
        scan_theorem(15, 15)


# both planted minima are at most the construction's hit (17 and 67), so only
# the table can catch them: a member whose gap is negative
@pytest.mark.parametrize("k, least", [(17, 15), (63, 5)])
def test_scan_aborts_on_a_member_without_its_gap(plant, k, least):
    plant(fs={k: least})
    with pytest.raises(TheoremViolationError, match=f"k={k}: gap {least - k}, not {_family_gaps(k)[k]}"):
        scan_theorem(1, 64)


@pytest.mark.parametrize("dropped, first", [(15, "k=15: gap 4, not negative"), (63, "k=33: gap -13, not 0")])
def test_two_offenders_in_one_block_raise_at_the_smaller(monkeypatch, plant, dropped, first):
    # 1..64 is one block with two offenders: the member 33 without its gap, and
    # a k whose true gap of 4 is off a table planted without it
    plant(fs={33: 20})
    monkeypatch.setattr(
        "tmwitness.scanner._family_gaps",
        lambda k_max: {k: gap for k, gap in _family_gaps(k_max).items() if k != dropped},
    )
    with pytest.raises(TheoremViolationError, match=first):
        scan_theorem(1, 64)


def test_family_gaps_lists_the_characterization():
    assert _family_gaps(64) == {1: 0, 6: 1, 5: 0, 9: 0, 17: 0, 33: 0, 3: 4, 15: 4, 63: 4}
    assert [_family_gaps(k_max) for k_max in (1, 4, 5)] == [{1: 0}, {1: 0, 3: 4}, {1: 0, 3: 4, 5: 0}]
    assert _family_gaps(62) == {k: gap for k, gap in _family_gaps(64).items() if k <= 62}


def _proven_gap(k: int) -> int:
    """f(k) - k for a member k of the characterization, from the steps of its proof.

    The steps are checked for this k: a claim over every n below a bound is
    checked by masks or by an identity that holds for every such n, not by
    sampling n.
    """
    if k in (1, 6):
        return oracle.f_exact(k) - k  # the walk is the proof for a small k
    if k & 3 == 1:  # k = 2^r + 1, r >= 2
        r = (k - 1).bit_length() - 1
        assert k == (1 << r) + 1 and r >= 2
        # n < 2^r: k*n = (n << r) + n, two copies of n that do not overlap,
        # since every such n is inside the low mask; so s2(k*n) = 2*s2(n)
        low = (1 << r) - 1
        assert low & (low << r) == 0
        assert (k << r).bit_count() == 2  # n = 2^r
        assert (k * k).bit_count() == 3  # n = k: 2^(2r) + 2^(r+1) + 1
        return 0
    m = k.bit_length()  # k = 4^r - 1 = 2^m - 1 with m = 2r
    assert k == (1 << m) - 1 and m % 2 == 0
    # 1 <= n < 2^m: k*n = n*2^m - n, and the digit sum of that difference,
    # s2(n - 1) + m - s2(n - 1), is m for every such n, so even
    for n in (1, 2, 1 << m - 1, (1 << m) - 1):
        assert shifted_difference_digit_sum(n, m, n) == m == (k * n).bit_count()
    assert (k << m).bit_count() == m  # n = 2^m
    assert (k * ((1 << m) + 1)).bit_count() == 2 * m  # n = 2^m + 1: 2^(2m) - 1
    # n = 2^m + 2 has the weight of its half, 2^(m - 1) + 1, which is below 2^m
    assert (k * ((1 << m) + 2)).bit_count() == (k * ((1 << m - 1) + 1)).bit_count() == m
    assert (k * ((1 << m) + 3)).bit_count() == m + 1  # n = 2^m + 3, odd
    return 4


def test_every_family_member_through_2_to_64_has_its_proven_gap():
    gaps = _family_gaps((1 << 64) + 1)
    assert len(gaps) == 2 + 63 + 32  # 1 and 6, 2^r + 1 for r = 2..64, 4^r - 1 for r = 1..32
    assert {k: _proven_gap(k) for k in gaps} == gaps


def test_both_families_have_their_gaps_for_every_r():
    # the steps of _proven_gap as functions of r. For k = 4^r - 1 and every
    # 1 <= n < 4^r, k*n = n*2^(2r) - n meets the identity's precondition, so
    # its weight is s2(n - 1) + 2r - s2(n - 1) = 2r; for k = 2^r + 1 and every
    # n < 2^r, k*n is two copies of n. Both are checked n by n for small r
    for r in range(1, 6):
        k = (1 << 2 * r) - 1
        for n in range(1, 1 << 2 * r):
            assert shifted_difference_digit_sum(n, 2 * r, n) == 2 * r == (k * n).bit_count()
    for r in range(2, 11):
        k = (1 << r) + 1
        assert all((k * n).bit_count() == 2 * n.bit_count() for n in range(1 << r))
    # the closing products, which no n-by-n check reaches past small r
    for r in range(1, 10**4 + 1):
        four, k = 1 << 2 * r, (1 << 2 * r) - 1
        assert k * (four + 1) == (1 << 4 * r) - 1  # weight 4r, even
        # n = 4^r is k shifted, and n = 4^r + 2 has the even weight of its half, which is below 4^r
        assert four + 2 == 2 * ((1 << 2 * r - 1) + 1)
        # k*(4^r + 3) = (4^r + 2)*2^(2r) - 3, odd: so f(4^r - 1) = 4^r + 3 = k + 4
        assert shifted_difference_digit_sum(four + 2, 2 * r, 3) == (k * (four + 3)).bit_count() == 2 * r + 1
        if r >= 2:  # (2^r + 1)^2 = 2^(2r) + 2^(r+1) + 1, odd: so f(2^r + 1) = k
            assert (((1 << r) + 1) ** 2).bit_count() == 3


@pytest.mark.parametrize("k", [195, 390])
def test_heavy_least_witness_is_logged(caplog, k):
    # f(195) = 23 = 0b10111, and 390 has 195's f
    with caplog.at_level("INFO", logger="tmwitness.scanner"):
        scan_theorem(k, k)
    assert [(record.levelname, record.getMessage()) for record in caplog.records] == [
        ("INFO", f"least witness for k={k} is 23 with weight 4")
    ]


def test_scan_logs_exactly_the_heavy_least_witnesses(caplog):
    with caplog.at_level("INFO", logger="tmwitness.scanner"):
        scan_theorem(1, 4096)
    logged = [int(record.getMessage().split()[3][2:]) for record in caplog.records]
    assert logged == [k for k in range(1, 4097) if oracle.f_exact(k).bit_count() > 3]


def test_zero_min_overflow_sets_flag(plant):
    # k = 4 takes zero_min from its odd core 1, and only from it
    asked = plant(zeros={1: 7})
    (record,) = scan_theorem(4, 4)
    assert asked == [1]
    assert record.zero_min == 7
    assert "ZeroMinExceedsKplus2" in record.flags

    # the flag compares a core's zero_min with each k, not with the core
    asked = plant(zeros={1: 5, 3: 1})
    records = scan_theorem(1, 4)
    assert asked == [1, 3]
    assert [record.zero_min for record in records] == [5, 5, 1, 5]
    assert ["ZeroMinExceedsKplus2" in record.flags for record in records] == [True, True, False, False]


def test_planted_zero_min_flags_six_after_its_gap(plant):
    # 6 takes zero_min 9 from its core 3, and 9 > 6 + 2; 12 takes it too, but 9 <= 14
    plant(zeros={3: 9})
    records = scan_theorem(1, 12)
    assert records[5].flags == ("GapEquals1", "ZeroMinExceedsKplus2")
    assert records[11].flags == ()
    for write in (lambda out: scan_csv(1, 12, out), lambda out: emit_csv(records, out)):
        buffer = io.StringIO()
        write(buffer)
        assert buffer.getvalue().splitlines()[6] == "6,7,1,AllOnesEvenLen,7,3,9,GapEquals1|ZeroMinExceedsKplus2"


@pytest.mark.parametrize("k_min, k_max", [(1, 300), (40, 44), (6, 6), (1000, 1100)])
def test_scan_csv_equals_emit_csv_of_the_records(monkeypatch, k_min, k_max):
    # small blocks, so both writers cut the rows at many block edges
    monkeypatch.setattr("tmwitness.scanner._CORE_CHUNK", 7)
    direct, drawn = io.StringIO(), io.StringIO()
    scan_csv(k_min, k_max, direct)
    emit_csv(scan_theorem(k_min, k_max), drawn)
    assert direct.getvalue() == drawn.getvalue()
    assert direct.getvalue().count("\n") == k_max - k_min + 2


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


def test_weight_family_exact_through_a_thousand():
    # a bit limit of at least k's width makes None mean no sparse witness at all
    width = (3 * 2**1000 + 3).bit_length()
    records = scan_weight_family(4, 1000, width)
    assert [record.exponent for record in records] == list(range(4, 1001))
    assert all(record.counterexample is None for record in records)


def test_weight_family_starts_at_four():
    with pytest.raises(ValueError):
        scan_weight_family(3, 6, 32)


def test_weight_family_refuses_a_reversed_range():
    with pytest.raises(ValueError, match="exponent_min <= exponent_max"):
        scan_weight_family(10, 5, 8)


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
    # the counter builds a first block of 2^L lanes, n = 0 included, with
    # L = min(16, max(1, count.bit_length() - 2)), and counts each next block
    # by the carries of adding a = q*k at plane L, the last masked to the
    # count. These counts sit at its edges: count + 1 a whole number of blocks,
    # so the last block is full (7, 63, 3071, 4095, 2^16 - 1, 2^17 - 1); 2^17,
    # the first count whose blocks are 2^16 lanes; and both sides of each
    # bit_length step. The all-ones k give addends with long runs of ones
    # above the top plane, where only those runs carry on
    counts = (1, 2, 3, 4, 7, 8, 63, 64, 65, 500, 1000, 3071, 4095, 4096, 4097)
    counts += (2**16 - 2, 2**16 - 1, 2**16, 2**17 - 1, 2**17)
    word = int("10" * 1024 + "1101" * 512, 2)  # 4096 bits, odd
    for k in (1, 2, 3, 6, 12, 51, 2**12 - 1, 2**60 + 1, 2**62 - 1, 2**100 + 1, 2**200 - 1, word):
        direct = _odd_weight_counts(k, max(counts))
        for count in counts:
            assert frequency(k, count).ones_frequency == Fraction(direct[count], count), (k, count)


@given(st.integers(min_value=1, max_value=1 << 4100), st.integers(min_value=1, max_value=5000))
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
        case="Lemma1",
        witness=103,
        witness_weight=5,
        zero_min=102,
        flags=("GapEquals4", "ZeroMinExceedsKplus2"),
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
