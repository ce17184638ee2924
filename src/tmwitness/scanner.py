"""Range verification: per-k records of the theorem scan, and CSV.

The theorem scan is a pure map over odd cores whose results are consumed in
order, so a run with worker processes is byte-identical to the sequential
one; parallelism degree is configuration, never semantics. The rows are
built, checked and formatted as columns, a block of k at a time, and a block's
rows are yielded only once the whole block is checked. Any contradiction of
the proven characterization aborts the run loudly instead of skipping the
offender.
"""

import marshal
import os
import sys
from array import array
from bisect import bisect_left
from collections import namedtuple
from collections.abc import Iterable, Iterator, Sequence
from contextlib import suppress
from itertools import chain, compress, islice, repeat, starmap
from operator import ge, gt, sub

from . import oracle
from .digitcore import TheoremViolationError
from .digitcore import FrequencyRecord, frequency  # digitcore's, outside __all__: perfbench/ reads them here
from .oracle import _check_agreement
from .witness import CaseLabel, verify

__all__ = [
    "ScanRecord",
    "scan_theorem",
    "emit_csv",
    "THEOREM_HEADER",
]

ScanRecord = namedtuple("ScanRecord", "k f gap case witness witness_weight zero_min flags")
ScanRecord.__doc__ = "Per-k verification row: least witness, its gap over k, case by name, and sorted flags, a tuple."

THEOREM_HEADER = ScanRecord._fields


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

    Worker i runs tasks i, i + W, ... of W workers and sends each result, or
    the exception that stops it, as one frame (see _send) to a pipe of its
    own. Reading task t from pipe t mod W gives the results in task order,
    and a worker blocks once its pipe's buffer is full, so how far it runs
    ahead is bounded whatever the range and however far the consumer lags. A
    worker's exception is raised here; a worker that ends without a result
    raises ChildProcessError, an OSError. A lone task, or a platform without
    os.fork, runs in this process, with the same results. However the scan
    stops, every worker is killed and reaped and every pipe closed. A fork
    copies only the calling thread, and a worker takes no lock that another
    thread could hold: it verifies, walks the oracle and marshals, and logs
    nothing.
    """
    workers = min(jobs, len(tasks))
    if workers <= 1 or not hasattr(os, "fork"):
        yield from map(_core_results, tasks)
        return
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
            size = int.from_bytes(readers[worker].read(_FRAME_HEAD), "little", signed=True)
            blob = readers[worker].read(abs(size))
            if not size or len(blob) < abs(size):  # a header or body cut short by the worker's end
                raise ChildProcessError(f"scan worker {pids[worker]} ended without the result of task {task}")
            if size < 0:
                import pickle

                raise pickle.loads(blob)
            yield marshal.loads(blob)
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


# a frame is its body's length in this many bytes, little-endian and signed, then the body
_FRAME_HEAD = 8


def _send(out, blob: bytes, failed: bool = False) -> None:
    """One frame to out: a marshalled result, or with failed a pickled exception, its length negated."""
    out.write((-len(blob) if failed else len(blob)).to_bytes(_FRAME_HEAD, "little", signed=True))
    out.write(blob)
    out.flush()


def _work(tasks: list[Sequence[int]], readers: list, out):
    """A forked worker: the results of tasks, or the exception that stops them, sent to out; then exit.

    A result is three lists of ints, which marshal carries at a fraction of
    pickle's start-up cost; pickle is loaded only for an exception. The
    worker closes the read ends it inherited, so a pipe's only reader is the
    parent, and it leaves by os._exit, so nothing of the parent's, such as
    its buffered output or its exit handlers, runs twice.
    """
    try:
        for reader in readers:
            reader.close()
        for task in tasks:
            _send(out, marshal.dumps(_core_results(task)))
    except BaseException as error:  # the parent raises it at this worker's next task
        with suppress(BaseException):
            import pickle

            _send(out, pickle.dumps(error), failed=True)
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
    # an INFO record needs a level or handler set up through logging, so without it loaded none is made
    logging = sys.modules.get("logging")
    log = logging.getLogger(__name__) if logging else None
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
        for k in compress(ks, map(gt, weights, repeat(3))) if log else ():
            # a sparse witness no larger than k+4 still exists; the minimum just is not it
            log.info("least witness for k=%d is %d with weight %d", k, leasts[k - lo], weights[k - lo])
        yield ks, leasts, gaps, list(map(_CASE_NAMES.__getitem__, kinds)), leasts, weights, zero_mins, flags
        lo = hi + 1


def scan_theorem(k_min: int, k_max: int, jobs: int = 1) -> list[ScanRecord]:
    """The verified rows of k_min..k_max as ScanRecords, in ascending k: the columns of _blocks, zipped."""
    return list(map(ScanRecord._make, chain.from_iterable(starmap(zip, _blocks(k_min, k_max, jobs)))))


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
