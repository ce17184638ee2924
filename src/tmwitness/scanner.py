"""Range verification and statistics: per-k records, sparse-family sweeps, exact frequencies, CSV.

Scans are pure maps over k followed by an order-preserving merge, so a
partitioned run is byte-identical to the sequential one; parallelism degree
is configuration, never semantics. Any contradiction of the proven
characterization aborts the run loudly instead of skipping the offender.
"""

import csv
import logging
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from operator import xor
from typing import Sequence

from . import oracle
from .digitcore import TheoremViolationError
from .witness import CaseLabel, certify, reduce_to_odd

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
    "FREQUENCY_HEADER",
]

THEOREM_HEADER = ("k", "f", "gap", "case", "witness", "witness_weight", "zero_min", "flags")
FREQUENCY_HEADER = ("k", "sample_count", "ones_numerator", "ones_denominator")


@dataclass(frozen=True)
class ScanRecord:
    """Per-k verification row: least witness, its gap over k, case, and findings."""

    k: int
    f: int
    gap: int
    case: CaseLabel
    witness: int
    witness_weight: int
    zero_min: int | None
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


def _is_even_power_of_two(value: int) -> bool:
    # 2^(2r) with r >= 1: a power of two whose width is odd
    return value >= 4 and value.bit_count() == 1 and value.bit_length() % 2 == 1


def _is_shifted_power(k: int) -> bool:
    # 2^r + 1 with r >= 2
    return k >= 5 and (k - 1).bit_count() == 1


def _record_for(k: int) -> ScanRecord:
    certificate = certify(k)
    least = oracle.f_exact(k)
    if not least <= certificate.verified_hit <= certificate.k_odd + 4:
        raise TheoremViolationError(
            f"oracle and construction disagree at k={k}: "
            f"{least} vs {certificate.verified_hit}"
        )
    gap = least - k
    if gap > 4 or gap in (2, 3):
        raise TheoremViolationError(f"characterization breached at k={k}: gap {gap}")
    flags = set()
    if gap == 4:
        if not _is_even_power_of_two(k + 1):
            raise TheoremViolationError(f"gap-4 coefficient k={k} is not one below 4^r")
        flags.add("GapEquals4")
    if gap == 1:
        if k != 6:
            raise TheoremViolationError(f"gap-1 coefficient k={k} is not 6")
        flags.add("GapEquals1")
    if gap == 0:
        if k != 1 and not _is_shifted_power(k):
            raise TheoremViolationError(f"gap-0 coefficient k={k} is not 1 or 2^r+1")
        flags.add("GapEquals0")
    weight = least.bit_count()
    if weight > 3:
        # a sparse witness no larger than k+4 still exists; the minimum just is not it
        _log.info("least witness for k=%d is %d with weight %d", k, least, weight)
    zero = oracle.zero_min(k)
    if zero is None or zero > k + 2:
        flags.add("ZeroMinExceedsKplus2")
    if certificate.fallback_used:
        flags.add("CertificateFallbackUsed")
    return ScanRecord(
        k=k,
        f=least,
        gap=gap,
        case=certificate.case,
        witness=least,
        witness_weight=weight,
        zero_min=zero,
        flags=frozenset(flags),
    )


def _scan_chunk(chunk: tuple[int, int]) -> list[ScanRecord]:
    low, high = chunk
    return [_record_for(k) for k in range(low, high + 1)]


def _split_range(k_min: int, k_max: int, parts: int) -> list[tuple[int, int]]:
    total = k_max - k_min + 1
    size, extra = divmod(total, parts)
    chunks = []
    start = k_min
    for index in range(parts):
        width = size + (1 if index < extra else 0)
        if width == 0:
            break
        chunks.append((start, start + width - 1))
        start += width
    return chunks


def scan_theorem(k_min: int, k_max: int, jobs: int = 1) -> list[ScanRecord]:
    """One verified record per k in ascending order.

    jobs > 1 splits the range into contiguous chunks handled by worker
    processes; the merged records are identical to a sequential scan. Every
    flag invariant is enforced here, so a scan that returns has re-proved
    the characterization on its range.
    """
    if not 1 <= k_min <= k_max:
        raise ValueError("need 1 <= k_min <= k_max")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    if jobs == 1 or k_max - k_min + 1 < 2 * jobs:
        return [_record_for(k) for k in range(k_min, k_max + 1)]
    records: list[ScanRecord] = []
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        for part in pool.map(_scan_chunk, _split_range(k_min, k_max, jobs)):
            records.extend(part)
    return records


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


def _scan_row(record: ScanRecord) -> tuple:
    return (
        record.k,
        record.f,
        record.gap,
        record.case.name,
        record.witness,
        record.witness_weight,
        "" if record.zero_min is None else record.zero_min,
        "|".join(sorted(record.flags)),
    )


def _frequency_row(record: FrequencyRecord) -> tuple:
    return (
        record.k,
        record.sample_count,
        record.ones_frequency.numerator,
        record.ones_frequency.denominator,
    )


def emit_csv(records: Sequence, destination) -> None:
    """Write records as CSV: UTF-8, LF line endings, stable columns, no trailing whitespace.

    Scan records and frequency records carry different headers; the header is
    chosen by the first record's type, falling back to the scan header for an
    empty sequence. destination may be a path or an open text handle. Equal
    inputs produce byte-identical files.
    """
    rows = list(records)
    if rows and isinstance(rows[0], FrequencyRecord):
        header, formatter = FREQUENCY_HEADER, _frequency_row
    else:
        header, formatter = THEOREM_HEADER, _scan_row
    if hasattr(destination, "write"):
        _write_rows(destination, header, rows, formatter)
        return
    with open(destination, "w", encoding="utf-8", newline="") as handle:
        _write_rows(handle, header, rows, formatter)


def _write_rows(handle, header, rows, formatter) -> None:
    writer = csv.writer(handle, lineterminator="\n")
    writer.writerow(header)
    for record in rows:
        writer.writerow(formatter(record))
