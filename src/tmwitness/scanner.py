"""Range verification and statistics: per-k records, sparse-family sweeps, exact frequencies, CSV.

The theorem scan is a pure map over odd cores whose results are consumed in
order, so a run with worker processes is byte-identical to the sequential
one; parallelism degree is configuration, never semantics. The rows are
built, checked and formatted as columns, a block of k at a time, and a block's
rows are yielded only once the whole block is checked. Any contradiction of
the proven characterization aborts the run loudly instead of skipping the
offender.
"""

import os
from array import array
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from contextlib import suppress
from functools import reduce
from itertools import chain, compress, islice, repeat, starmap
from operator import ge, gt, sub, xor

from . import oracle
from .digitcore import TheoremViolationError, reduce_to_odd
from .oracle import _check_agreement
from .witness import CaseLabel, verify

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

ScanRecord = namedtuple("ScanRecord", "k f gap case witness witness_weight zero_min flags")
ScanRecord.__doc__ = "Per-k verification row: least witness, its gap over k, case by name, and sorted flags, a tuple."

THEOREM_HEADER = ScanRecord._fields

WeightFamilyRecord = namedtuple("WeightFamilyRecord", "exponent k counterexample")
WeightFamilyRecord.__doc__ = "Sparse-multiplier sweep result for k = 3 * 2^exponent + 3; counterexample may be None."

FrequencyRecord = namedtuple("FrequencyRecord", "k sample_count ones_frequency")
FrequencyRecord.__doc__ = "Exact fraction, a Fraction, of multipliers up to sample_count whose product has odd weight."


_CASE_NAMES = {case.value: case.name for case in CaseLabel}
# odd cores per worker task: 2.3-2.7 ms of work near 2^16 or 2^18 (best of 9, one
# x86-64 core, Python 3.11), so that dispatch and pickling cost little and a range of
# a few thousand k has two tasks. A task that holds 2^r + 1, or 2^r - 1 with r even,
# also walks f up to about k once: 7 ms more near 2^16, 28 ms near 2^18. A task's k
# and the even k after them are also the parent's block. CLI scan --csv with 512,
# 1024 and 2048, medians of two sets of 7-12 rotated runs on a 2-core x86-64 box:
# 1..2^16 --jobs 2 0.274-0.295, 0.274-0.294 and 0.268-0.283 s; 1..2^18 --jobs 2
# 0.68-0.77, 0.63-0.75 and 0.62-0.71 s; --jobs 1 as close. No size won both sets,
# and each doubling adds about 0.6 MB of peak RSS.
_CORE_CHUNK = 1024


def _family_gaps(k_max: int) -> dict[int, int]:
    """The characterization's members up to k_max, each mapped to its gap f(k) - k.

    f(k) = k exactly at 1 and 2^r + 1 (r >= 2), f(6) = 7, and f(k) = k + 4
    exactly at 4^r - 1 (r >= 1); every other k has f(k) < k. The two infinite
    families never meet, as 2^r + 1 is 1 mod 4 for r >= 2 and 4^r - 1 is 3.
    """
    gaps = {1: 0, 6: 1}
    gaps.update(((1 << r) + 1, 0) for r in range(2, k_max.bit_length()))
    gaps.update(((1 << 2 * r) - 1, 4) for r in range(1, k_max.bit_length() // 2 + 1))
    return {k: gap for k, gap in gaps.items() if k <= k_max}


def _core_results(cores: Sequence[int]) -> tuple[list[int], list[int], list[int]]:
    """The columns (f, case value, zero_min) of the odd cores, with the oracle checked against the construction.

    A core is odd already, so it is verified without a certificate, and one
    oracle walk over the whole task gives every core's f and zero_min.
    """
    cases, hits = [], []
    for core in cores:
        case, _, _, _, hit = verify(core)
        cases.append(case._value_)  # .value is a Python-level property
        hits.append(hit)
    fs, zeros = oracle.f_and_zero_mins(cores)
    for core, least, hit in zip(cores, fs, hits):
        _check_agreement(core, least, hit)
    return fs, cases, zeros


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


def _in_order(tasks: list[Sequence[int]], jobs: int) -> Iterator[tuple[list[int], list[int], list[int]]]:
    """The core results of each task, in task order, from at most jobs forked worker processes.

    Worker i runs tasks i, i + W, ... of W workers and pickles each result,
    or the exception that stops it, to a pipe of its own. Reading task t from
    pipe t mod W gives the results in task order, and a worker blocks once
    its pipe's buffer is full, so how far it runs ahead is bounded whatever
    the range and however far the consumer lags. A worker's exception is
    raised here; a worker that ends without a result raises ChildProcessError,
    an OSError. A lone task, or a platform without os.fork, runs in this
    process, with the same results. However the scan stops, every worker is
    killed and reaped and every pipe closed. A fork copies only the calling
    thread, and a worker takes no lock that another thread could hold: it
    verifies, walks the oracle and pickles, and logs nothing.
    """
    workers = min(jobs, len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        yield from map(_core_results, tasks)
        return
    import pickle  # loaded by a scan with workers, not by every start of the package
    import signal

    readers, pids = [], []
    try:
        for worker in range(workers):
            read, write = os.pipe()
            readers.append(open(read, "rb"))
            with open(write, "wb") as out:  # the parent's copy closes once the worker has its own
                pid = os.fork()
                if pid:
                    pids.append(pid)
                else:
                    _work(tasks[worker::workers], readers, out)
        for task in range(len(tasks)):
            worker = task % workers
            try:
                result = pickle.load(readers[worker])
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(f"scan worker {pids[worker]} ended without the result of task {task}") from None
            if isinstance(result, BaseException):
                raise result
            yield result
    finally:
        try:
            for pid in pids:  # gone already, or reaped by a host that ignores SIGCHLD
                with suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                with suppress(ChildProcessError):
                    os.waitpid(pid, 0)
        finally:
            for reader in readers:
                reader.close()


def _work(tasks: list[Sequence[int]], readers: list, out):
    """A forked worker: the results of tasks, or the exception that stops them, pickled to out; then exit.

    It closes the read ends it inherited, so a pipe's only reader is the
    parent, and it leaves by os._exit, so nothing of the parent's, such as
    its buffered output or its exit handlers, runs twice.
    """
    import pickle

    try:
        for reader in readers:
            reader.close()
        for task in tasks:
            pickle.dump(_core_results(task), out)
            out.flush()
    except BaseException as error:  # the parent raises it at this worker's next task
        with suppress(BaseException):
            pickle.dump(error, out)
            out.flush()
    finally:
        os._exit(0)


def _blocks(k_min: int, k_max: int, jobs: int) -> Iterator[tuple]:
    """The verified rows of k_min..k_max as blocks of ScanRecord's eight columns, in ascending k.

    Since s2(2m) = s2(m), an even k has its odd core's f, case and zero_min,
    so the oracles and certify run once per odd core: cores at or above k_min
    as the scan reaches them, and the cores below k_min that some even k in
    the range needs before them. jobs > 1 computes the cores in worker
    processes and changes no row. A block is the odd k of one task and the
    even k after each, and it is yielded only once every gap and flag rule
    has been checked against every k in it, so a scan that ends has re-proved
    the characterization on its range, and one that breaks it raises
    TheoremViolationError at the first k that does, with no row of its block.
    """
    if not 1 <= k_min <= k_max:
        raise ValueError("need 1 <= k_min <= k_max")
    if jobs < 1:
        raise ValueError("jobs must be positive")
    below = _cores_below(k_min, k_max)
    before, odd = _chunks(below), _chunks(range(k_min | 1, k_max + 1, 2))
    return _checked_blocks(k_min, k_max, below, len(before), _in_order(before + odd, jobs))


def _checked_blocks(k_min: int, k_max: int, below: Sequence[int], before: int, results: Iterator) -> Iterator:
    """Blocks from the results of below's first `before` tasks and then of each odd task, in that order.

    The results an even k may still need are kept in three columns, a few
    bytes per core: below's cores first, then each odd k <= k_max // 2. The
    even k of one 2-adic valuation s in a block are 2^s * c for a run of
    consecutive odd c, whose results sit at consecutive places in the kept
    columns, across the end of below too, so each s takes one slice. Every
    k's gap is checked against _family_gaps both ways: a member must have its
    gap there, and any other k a negative one. Each rule first reads the
    whole block at C speed, with max() or compress(), so only the few k that
    break it or get a flag cost a Python step.
    """
    import logging  # loaded by a scan, not by every start of the package

    log = logging.getLogger(__name__)
    fs, cases, zeros = _column(k_max // 2 + 4), bytearray(), _column(k_max + 1)
    for result in islice(results, before):
        for column, values in zip((fs, cases, zeros), result):
            column.extend(values)
    base, half, table = k_min | 1, k_max // 2, _family_gaps(k_max)
    lo, end = k_min, base - 1
    # a lone even k has no odd task, and makes one block with no odd results
    for result in chain(results, [[]] if base > k_max else []):
        end += 2 * _CORE_CHUNK
        hi = min(k_max, end)
        ks = range(lo, hi + 1)
        columns = [0] * len(ks), [0] * len(ks), [0] * len(ks)
        if result:  # the block's odd k, of which those up to half are kept
            kept = len(range(lo | 1, min(hi, half) + 1, 2))
            for column, own, values in zip(columns, (fs, cases, zeros), result):
                column[(lo & 1) ^ 1 :: 2] = values
                own.extend(values[:kept])
        for shift in range(1, hi.bit_length()):
            # the least and greatest odd c with c * 2^shift in lo..hi
            low, high = -(-lo >> shift) | 1, (hi >> shift) - 1 | 1
            if low <= high:
                at = bisect_left(below, low) if low < base else len(below) + ((low - base) >> 1)
                count, step = ((high - low) >> 1) + 1, 2 << shift
                start = (low << shift) - lo
                for column, own in zip(columns, (fs, cases, zeros)):
                    column[start : start + (count - 1) * step + 1 : step] = own[at : at + count]
        leasts, kinds, zero_mins = columns
        gaps = list(map(sub, leasts, ks))
        weights = list(map(int.bit_count, leasts))
        flags = [()] * len(ks)
        reached = [k for k in table if lo <= k <= hi]
        if reached or max(gaps) >= 0:  # a negative gap off the table breaks no rule
            for k in sorted({*compress(ks, map(ge, gaps, repeat(0))), *reached}):
                gap = gaps[k - lo]
                if table.get(k) != gap:
                    should = table.get(k, "negative")
                    raise TheoremViolationError(f"characterization breached at k={k}: gap {gap}, not {should}")
                flags[k - lo] = (f"GapEquals{gap}",)
        if max(zero_mins) > lo + 2:
            for k in compress(ks, map(gt, zero_mins, range(lo + 2, hi + 3))):
                flags[k - lo] += ("ZeroMinExceedsKplus2",)  # sorts after every gap flag
        for k in compress(ks, map(gt, weights, repeat(3))):
            # a sparse witness no larger than k+4 still exists; the minimum just is not it
            log.info("least witness for k=%d is %d with weight %d", k, leasts[k - lo], weights[k - lo])
        yield ks, leasts, gaps, list(map(_CASE_NAMES.__getitem__, kinds)), leasts, weights, zero_mins, flags
        lo = hi + 1


def scan_theorem(k_min: int, k_max: int, jobs: int = 1) -> list[ScanRecord]:
    """The verified rows of k_min..k_max as ScanRecords, in ascending k: the columns of _blocks, zipped."""
    return list(map(ScanRecord._make, chain.from_iterable(starmap(zip, _blocks(k_min, k_max, jobs)))))


def scan_weight_family(exponent_min: int, exponent_max: int, bit_limit: int) -> list[WeightFamilyRecord]:
    """Check k = 3 * 2^exponent + 3 for multipliers with at most two set bits.

    Every product of such a k with a sparse n below 2^bit_limit is expected
    to have even weight; a hit is returned as a counterexample in the record,
    never raised. Once bit_limit is at least k's width, exponent + 2, a None
    counterexample means that no such n exists at all: past that width,
    k * (2^d + 1) is two copies of k that do not overlap, of even weight.
    """
    if not 4 <= exponent_min <= exponent_max:  # the family starts at exponent 4
        raise ValueError("need 4 <= exponent_min <= exponent_max")
    import logging

    log = logging.getLogger(__name__)
    records = []
    for exponent in range(exponent_min, exponent_max + 1):
        k = 3 * 2**exponent + 3
        hit = oracle.min_weight_witness(k, 2, bit_limit)
        if hit is not None:
            log.warning("sparse counterexample for exponent %d: k=%d, n=%d", exponent, k, hit)
        records.append(WeightFamilyRecord(exponent, k, hit))
    return records


# the largest block, 2^16 lanes: with 2^15, k = 3 at N = 4^15 takes 1.1-1.4x as
# long and a freq_grid round is not surely faster (0.88-1.13x); with 2^17 the
# round takes 1.1-1.25x as long (four runs of best of 5 and 7, one process on a
# 2-core x86-64 box, Python 3.11)
_BLOCK_LOG = 16


def _add_to_lanes(planes: list[int], bits: str, full: int) -> None:
    """Add k to every lane, where bits holds k's binary digits, least significant first.

    planes[j] holds bit j of every lane's value and full has one set bit per
    lane. This is a ripple-carry adder run on all lanes at once; a carry out
    of the top plane is dropped, so lanes count modulo 2^len(planes).
    """
    carry = 0
    index = 0
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


def _first_block(bits: str, lanes_log: int, width: int) -> tuple[int, list[int]]:
    """The first block of frequency: bit planes of k*i for the lanes i < 2^lanes_log.

    Each doubling adds k*2^level to the lower half of the lanes, plane by
    plane with a ripple carry, and splices the sum above it in place; a carry
    out of the top plane is dropped. The addend has no bits below level, so
    plane level is final once doubled: it is folded into the XOR of the planes
    below it, all that later blocks read of them. Products stay below
    2^(level+1+w) for a w-bit k, so no plane above that is touched. Returns
    the XOR of planes 0..lanes_log-1 and the planes from lanes_log up.
    """
    planes = [0] * width
    fixed = 0
    for level in range(lanes_log):
        size = 1 << level
        full = (1 << size) - 1
        carry = 0
        for index, bit in zip(range(level, width), bits + "0"):
            plane = planes[index]
            if bit == "1":
                planes[index] = plane | (plane ^ carry ^ full) << size
                carry |= plane
            else:
                planes[index] = plane | (plane ^ carry) << size
                carry &= plane
        fixed = (fixed | fixed << size) ^ planes[level]
    return fixed, planes[lanes_log:]


def frequency(k: int, sample_count: int) -> FrequencyRecord:
    """Exact rational frequency of odd product weight over multipliers 1..sample_count.

    The count is bit-sliced. The multipliers n = 0..sample_count go in blocks
    of 2^L consecutive lanes, and planes[j] is one int that holds bit j of k*n
    for every lane of the block. The weight parity of each product is then
    the XOR of the planes, so one bit_count counts a whole block, and the next
    block is this one plus k*2^L, added in every lane at once; the planes
    below that addend's lowest bit never change. The first block is built by
    doubling its lanes (see _first_block), at about the cost of four later
    blocks, and each later block pays a fixed cost per plane, so L is sized
    from sample_count alone: 2^L is about a quarter of the lanes, at most
    2^16, which timed close to the fastest L for every N from 10^3 to 10^6.
    k's factor of two is dropped first, as s2(2m) = s2(m), and n = 0 has
    weight 0 and adds nothing.

    Invariant: there are width = (k*sample_count).bit_length() planes, so
    k*n < 2^width for every n <= sample_count and no counted lane loses a
    carry. Carries out of the top plane are lost only in lanes past
    sample_count, which the last block masks off. Because each plane is its
    own int, bits of one product never reach another's, so the width need
    not be a power of two, as it would in a layout that set the products side
    by side in fixed-width fields and folded each field to its parity.
    """
    from fractions import Fraction

    odd, _ = reduce_to_odd(k)
    if sample_count < 1:
        raise ValueError("need at least one sample")
    bits = format(odd, "b")[::-1]
    lanes_log = min(_BLOCK_LOG, max(1, sample_count.bit_length() - 2))
    fixed, moving = _first_block(bits, lanes_log, (odd * sample_count).bit_length())
    full = (1 << (1 << lanes_log)) - 1
    blocks, rest = divmod(sample_count + 1, 1 << lanes_log)  # blocks >= 1, as 2^L <= sample_count + 1
    hits = 0
    for block in range(blocks):
        if block:  # so no add follows the last block, where nothing would read it
            _add_to_lanes(moving, bits, full)
        hits += reduce(xor, moving, fixed).bit_count()
    if rest:
        _add_to_lanes(moving, bits, full)
        hits += (reduce(xor, moving, fixed) & ((1 << rest) - 1)).bit_count()
    return FrequencyRecord(k, sample_count, Fraction(hits, sample_count))


_CSV_ROW = "%d,%d,%d,%s,%d,%d,%d,%s\n"


def _block_text(columns: Sequence, row: str = _CSV_ROW, flags_text="|".join) -> str:
    """A block of ScanRecord's columns as text: one % of the line template row over its cells in row order."""
    *head, flags = columns
    width = len(columns)
    cells = [None] * (width * len(flags))
    for at, column in enumerate(head):
        cells[at::width] = column  # a strided copy, cheaper than zipping the columns into rows
    cells[width - 1 :: width] = map(flags_text, flags)
    cells = tuple(cells)  # frees the list before the text is made
    return (row * len(flags)) % cells


def scan_csv(k_min: int, k_max: int, destination, jobs: int = 1) -> None:
    """Write the verified rows of k_min..k_max as emit_csv does, one block's text at a time."""
    _write_csv(map(_block_text, _blocks(k_min, k_max, jobs)), destination)


def emit_csv(records: Iterable, destination) -> None:
    """Write records as CSV: UTF-8, LF line endings, stable columns, no trailing whitespace.

    records are ScanRecords, or plain tuples of the same fields. They are drawn
    and written a block at a time, so a scan streams to the file; an empty
    iterable gives the header alone. No cell ever needs quoting, as each is an
    integer or an identifier, so lines are formatted directly. destination may
    be an open text handle or a path. A path to a regular file, or to none yet,
    is written through a temporary file beside the file it resolves to, which
    replaces that file, with its mode, only once every record is written, so a
    run that raises leaves it as it was and a symlink to it stays a symlink.
    Any other path, such as a FIFO or /dev/stdout, is written through as it is.
    Equal inputs produce byte-identical files.
    """
    rows = iter(records)
    # columns of up to a scan block's number of rows each, until none are left
    blocks = iter(lambda: tuple(zip(*islice(rows, 2 * _CORE_CHUNK))), ())
    _write_csv(map(_block_text, blocks), destination)


def _write_csv(texts: Iterable[str], destination) -> None:
    """The header and then texts, written to destination as emit_csv says."""
    lines = chain((",".join(THEOREM_HEADER) + "\n",), texts)
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
            import shutil

            shutil.copymode(path, temporary)
        os.replace(temporary, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.unlink(temporary)
        raise
