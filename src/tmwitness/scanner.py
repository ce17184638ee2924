"""Range verification and statistics: per-k records, sparse-family sweeps, exact frequencies, CSV.

The theorem scan is a pure map over odd cores whose results are consumed in
order, so a run with worker processes is byte-identical to the sequential
one; parallelism degree is configuration, never semantics. Any contradiction of the proven
characterization aborts the run loudly instead of skipping the offender.
"""

import logging
import os
import shutil
from array import array
from bisect import bisect_left
from collections import deque
from contextlib import suppress
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import xor
from itertools import chain, islice
from typing import Iterable, Iterator, Sequence

from . import oracle
from .digitcore import TheoremViolationError, reduce_to_odd
from .witness import CaseLabel, WitnessCertificate, certify

_log = logging.getLogger(__name__)

__all__ = [
    "ScanRecord",
    "WeightFamilyRecord",
    "FrequencyRecord",
    "scan_theorem",
    "scan_weight_family",
    "frequency",
    "emit_csv",
    "THEOREM_HEADER",
]

THEOREM_HEADER = ("k", "f", "gap", "case", "witness", "witness_weight", "zero_min", "flags")


@dataclass(frozen=True)
class ScanRecord:
    """Per-k verification row: least witness, its gap over k, case, and findings."""

    k: int
    f: int
    gap: int
    case: CaseLabel
    witness: int
    witness_weight: int
    zero_min: int
    flags: frozenset[str]


@dataclass(frozen=True)
class WeightFamilyRecord:
    """Sparse-multiplier sweep result for one member k = 3 * 2^exponent + 3."""

    exponent: int
    k: int
    counterexample: int | None


@dataclass(frozen=True)
class FrequencyRecord:
    """Exact fraction of multipliers up to sample_count whose product has odd weight."""

    k: int
    sample_count: int
    ones_frequency: Fraction


_CASE_NAMES = {case.value: case.name for case in CaseLabel}
# odd cores per worker task: about 10 ms of work for k near 2^18, so that
# dispatch and pickling cost little and a range of a few thousand k has two tasks
_CORE_CHUNK = 1024


def _is_even_power_of_two(value: int) -> bool:
    # 2^(2r) with r >= 1: a power of two whose width is odd
    return value >= 4 and value.bit_count() == 1 and value.bit_length() % 2 == 1


def _is_shifted_power(k: int) -> bool:
    # 2^r + 1 with r >= 2
    return k >= 5 and (k - 1).bit_count() == 1


def checked_least(k: int) -> tuple[int, WitnessCertificate]:
    """f(k) by the oracle and k's certificate, once f(k) <= verified hit <= k_odd + 4 holds."""
    certificate = certify(k)
    least = oracle.f_exact(k)
    if not least <= certificate.verified_hit <= certificate.k_odd + 4:
        raise TheoremViolationError(
            f"oracle and construction disagree at k={k}: {least} vs {certificate.verified_hit}"
        )
    return least, certificate


def _core_results(cores: Sequence[int]) -> list[tuple[int, int, int]]:
    """(f, case value, zero_min) of each odd core, with the oracle checked against the construction."""
    results = []
    for core in cores:
        least, certificate = checked_least(core)
        results.append((least, certificate.case.value, oracle.zero_min(core)))
    return results


def _gap_flag(k: int, gap: int) -> tuple[str]:
    """The flag of a gap >= 0 at k, once the characterization's rule for that gap holds."""
    if gap > 4 or gap in (2, 3):
        raise TheoremViolationError(f"characterization breached at k={k}: gap {gap}")
    if gap == 4:
        if not _is_even_power_of_two(k + 1):
            raise TheoremViolationError(f"gap-4 coefficient k={k} is not one below 4^r")
        return ("GapEquals4",)
    if gap == 1:
        if k != 6:
            raise TheoremViolationError(f"gap-1 coefficient k={k} is not 6")
        return ("GapEquals1",)
    if k != 1 and not _is_shifted_power(k):
        raise TheoremViolationError(f"gap-0 coefficient k={k} is not 1 or 2^r+1")
    return ("GapEquals0",)


def _row(k: int, least: int, case: int, zero: int) -> tuple:
    """k's row from its odd core's result, after every gap and flag rule is checked against k."""
    gap = least - k
    flags = _gap_flag(k, gap) if gap >= 0 else ()  # a negative gap breaks no rule
    if zero > k + 2:
        flags += ("ZeroMinExceedsKplus2",)  # sorts after every gap flag
    weight = least.bit_count()
    if weight > 3:
        # a sparse witness no larger than k+4 still exists; the minimum just is not it
        _log.info("least witness for k=%d is %d with weight %d", k, least, weight)
    return (k, least, gap, _CASE_NAMES[case], least, weight, zero, flags)


def _column(limit: int):
    """An empty column for ints up to limit: an array of machine words where they fit, else a list."""
    for code in "IQ":
        if limit >> 8 * array(code).itemsize == 0:
            return array(code)
    return []


def _cores_below(k_min: int, k_max: int):
    """Ascending odd c < k_min with some c * 2^s, s >= 1, in k_min..k_max, in a column.

    The cores of one s form a run, and a larger s gives a run no higher, so
    taking s downwards and starting each run past the last core taken lists
    them in order without a set.
    """
    cores = _column(k_min)
    for shift in range(k_max.bit_length() - 1, 0, -1):
        low = max(-(-k_min >> shift) | 1, cores[-1] + 2 if cores else 1)
        cores.extend(range(low, min(k_max >> shift, k_min - 1) + 1, 2))
    return cores


def _chunks(cores: Sequence[int]) -> list[Sequence[int]]:
    return [cores[start : start + _CORE_CHUNK] for start in range(0, len(cores), _CORE_CHUNK)]


def _in_order(tasks: list[Sequence[int]], jobs: int) -> Iterator[list[tuple[int, int, int]]]:
    """The core results of each task, in task order, from at most jobs worker processes.

    A pool starts all its workers at the first submit, so it gets no more
    workers than there are tasks, and a lone task runs in this process. Only
    about two tasks per worker are submitted ahead of the consumer, so the
    results in flight stay bounded whatever the range and however far the
    consumer lags.
    """
    workers = min(jobs, len(tasks))
    if workers <= 1:
        yield from map(_core_results, tasks)
        return
    pool = ProcessPoolExecutor(max_workers=workers)
    try:
        pending: deque = deque()
        for task in tasks:
            pending.append(pool.submit(_core_results, task))
            if len(pending) > 2 * workers:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def scan_rows(k_min: int, k_max: int, jobs: int = 1) -> Iterator[tuple]:
    """One verified row per k in ascending order, yielded as the rows are made.

    A row holds THEOREM_HEADER's fields in order: the case by name and the
    flags as a sorted tuple, empty when there are none.
    Since s2(2m) = s2(m), an even k has its odd core's f, case and zero_min,
    so the oracles and certify run once per odd core: cores at or above k_min
    as the scan reaches them, and the cores below k_min that some even k in
    the range needs before them. jobs > 1 computes the cores in worker
    processes and changes no row. Every gap and flag rule is checked against
    every k here, so a scan that ends has re-proved the characterization on
    its range, and one that breaks it raises TheoremViolationError at that k.
    """
    if not 1 <= k_min <= k_max:
        raise ValueError("need 1 <= k_min <= k_max")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    below = _cores_below(k_min, k_max)
    tasks = _chunks(below) + _chunks(range(k_min | 1, k_max + 1, 2))
    return _rows(k_min, k_max, below, chain.from_iterable(_in_order(tasks, jobs)))


def _rows(k_min: int, k_max: int, below: Sequence[int], results: Iterator) -> Iterator[tuple]:
    """Rows from the results of below's cores and then of each odd k in range, in that order.

    The results an even k may still need are kept in three columns, a few
    bytes per core: below's cores first, then each odd k <= k_max // 2. An
    even k finds its core in below by bisection, or past it by arithmetic.
    """
    fs, cases, zeros = _column(k_max // 2 + 4), bytearray(), _column(k_max + 1)

    def keep(result: tuple[int, int, int]) -> None:
        least, case, zero = result
        fs.append(least)
        cases.append(case)
        zeros.append(zero)

    for result in islice(results, len(below)):
        keep(result)
    base, half = k_min | 1, k_max // 2  # no even k in range has a larger core than half
    for k in range(k_min, k_max + 1):
        if k & 1:
            result = next(results)
            if k <= half:
                keep(result)
        else:
            core = k >> ((k & -k).bit_length() - 1)
            at = len(below) + ((core - base) >> 1) if core >= base else bisect_left(below, core)
            result = fs[at], cases[at], zeros[at]
        yield _row(k, *result)


def scan_theorem(k_min: int, k_max: int, jobs: int = 1) -> list[ScanRecord]:
    """The rows of scan_rows as ScanRecords, in a list."""
    return [
        ScanRecord(k, f, gap, CaseLabel[case], hit, weight, zero, frozenset(flags))
        for k, f, gap, case, hit, weight, zero, flags in scan_rows(k_min, k_max, jobs)
    ]


def scan_weight_family(exponent_min: int, exponent_max: int, bit_limit: int) -> list[WeightFamilyRecord]:
    """Check k = 3 * 2^exponent + 3 for multipliers with at most two set bits.

    Every product of such a k with a sparse n below 2^bit_limit is expected
    to have even weight; a hit is returned as a counterexample in the record,
    never raised.
    """
    if exponent_min < 4:
        raise ValueError("the family starts at exponent 4")
    records = []
    for exponent in range(exponent_min, exponent_max + 1):
        k = 3 * 2**exponent + 3
        hit = oracle.min_weight_witness(k, 2, bit_limit)
        if hit is not None:
            _log.warning("sparse counterexample for exponent %d: k=%d, n=%d", exponent, k, hit)
        records.append(WeightFamilyRecord(exponent=exponent, k=k, counterexample=hit))
    return records


_BLOCK_LOG = 16  # on freq_grid, blocks of 2^14..2^17 time about the same and 2^18 is slower


def _add_to_lanes(planes: list[int], start: int, bits: str, full: int) -> None:
    """Add k*2^start to every lane, where bits holds k's binary digits, least significant first.

    planes[j] holds bit j of every lane's value and full has one set bit per
    lane. This is a ripple-carry adder run on all lanes at once; a carry out
    of the top plane is dropped, so lanes count modulo 2^len(planes).
    """
    carry = 0
    index = start
    for bit in bits:
        if index == len(planes):
            return
        plane = planes[index]
        if bit == "1":
            planes[index] = plane ^ carry ^ full
            carry |= plane
        else:
            planes[index] = plane ^ carry
            carry &= plane
        index += 1
    while carry and index < len(planes):
        plane = planes[index]
        planes[index] = plane ^ carry
        carry &= plane
        index += 1


def _multiples(bits: str, lanes_log: int, width: int) -> list[int]:
    """Bit planes of k*i for the lanes i < 2^lanes_log, built by doubling the lanes.

    The upper half of the lanes is the lower half plus k*2^level.
    """
    planes = [0] * width
    for level in range(lanes_log):
        size = 1 << level
        upper = planes.copy()
        _add_to_lanes(upper, level, bits, (1 << size) - 1)
        planes = [low | high << size for low, high in zip(planes, upper)]
    return planes


def frequency(k: int, sample_count: int) -> FrequencyRecord:
    """Exact rational frequency of odd product weight over multipliers 1..sample_count.

    The count is bit-sliced. The multipliers n = 0..sample_count go in blocks
    of up to 2^16 consecutive lanes, and planes[j] is one int that holds bit j
    of k*n for every lane of the block. The weight parity of each product is
    then the XOR of the planes, so one bit_count counts a whole block, and the
    next block is this one plus k*2^16, added in every lane at once; the
    planes below that addend's lowest bit never change. k's factor of two is
    dropped first, as s2(2m) = s2(m), and n = 0 has weight 0 and adds
    nothing.

    Invariant: there are width = (k*sample_count).bit_length() planes, so
    k*n < 2^width for every n <= sample_count and no counted lane loses a
    carry. Carries out of the top plane are lost only in lanes past
    sample_count, which the last block masks off. Because each plane is its
    own int, bits of one product never reach another's, so the width need
    not be a power of two, as it would in a layout that set the products side
    by side in fixed-width fields and folded each field to its parity.
    """
    odd, _ = reduce_to_odd(k)
    if sample_count < 1:
        raise ValueError("need at least one sample")
    bits = format(odd, "b")[::-1]
    lanes_log = min(_BLOCK_LOG, sample_count.bit_length())
    planes = _multiples(bits, lanes_log, (odd * sample_count).bit_length())
    fixed = reduce(xor, planes[:lanes_log], 0)
    moving = planes[lanes_log:]
    full = (1 << (1 << lanes_log)) - 1
    blocks, rest = divmod(sample_count + 1, 1 << lanes_log)
    hits = 0
    for _ in range(blocks):
        hits += reduce(xor, moving, fixed).bit_count()
        _add_to_lanes(moving, 0, bits, full)
    if rest:
        hits += (reduce(xor, moving, fixed) & ((1 << rest) - 1)).bit_count()
    return FrequencyRecord(k, sample_count, Fraction(hits, sample_count))


def _record_row(record: ScanRecord) -> tuple:
    return (
        record.k,
        record.f,
        record.gap,
        record.case.name,
        record.witness,
        record.witness_weight,
        record.zero_min,
        tuple(sorted(record.flags)),
    )


def _scan_line(row: tuple) -> str:
    k, least, gap, case, hit, weight, zero, flags = row
    return "%d,%d,%d,%s,%d,%d,%d,%s\n" % (k, least, gap, case, hit, weight, zero, "|".join(flags))


def emit_csv(records: Iterable, destination) -> None:
    """Write records as CSV: UTF-8, LF line endings, stable columns, no trailing whitespace.

    records are ScanRecords or the rows of scan_rows, and are written as they
    are drawn, so a scan streams to the file; an empty iterable gives the
    header alone. No cell ever needs quoting, as each is an integer or an
    identifier, so lines are formatted directly. destination may be an open
    text handle or a path. A path to a regular file, or to none yet, is
    written through a temporary file beside the file it resolves to, which
    replaces that file, with its mode, only once every record is written, so
    a run that raises leaves it as it was and a symlink to it stays a
    symlink. Any other path, such as a FIFO or /dev/stdout, is written
    through as it is. Equal inputs produce byte-identical files.
    """
    items = iter(records)
    first = next(items, None)
    rows = () if first is None else chain((first,), items)
    if isinstance(first, ScanRecord):
        rows = map(_record_row, rows)
    lines = chain((",".join(THEOREM_HEADER) + "\n",), map(_scan_line, rows))
    if hasattr(destination, "write"):
        destination.writelines(lines)
        return
    if os.path.exists(destination) and not os.path.isfile(destination):
        with open(destination, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(lines)
        return
    path = os.path.realpath(destination)
    temporary = f"{path}.{os.getpid()}.tmp"
    try:
        with open(temporary, "w", encoding="utf-8", newline="") as handle:
            handle.writelines(lines)
        if os.path.exists(path):
            shutil.copymode(path, temporary)
        os.replace(temporary, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(temporary)
        raise
