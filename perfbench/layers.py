"""The traced run: one round of every workload's inputs, with a span around each layer call.

Spans are recorded here, around calls into each module's public functions,
so the program itself is not instrumented. Each span is [name, start, end,
parent], with times in seconds from the tracer's start and parent the index
of the enclosing span (None at the top). Spans stay in memory until the run
ends and are then written out as JSON. A layer metric named ``<span>_s`` is
the summed duration of the spans of that name.
"""

import io
import json
import pickle
import statistics
import subprocess
import sys
from contextlib import contextmanager
from time import perf_counter

from tmwitness import cli, digitcore, oracle, scanner, witness

import checks
from inputs import LARGE_K_FLOOR

SCAN_BLOCK = 4096  # k per oracle span in the traced scan round
IMPORT_PROBES = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import tmwitness; print(time.perf_counter() - t)"
TIMED_SPANS = (
    "witness.certify",
    "witness.classify",
    "witness.construct",
    "digitcore.run_decompose",
    "oracle.f_exact",
    "oracle.zero_min",
    "scanner.scan_serial",
    "scanner.transport",
    "scanner.csv",
    "scanner.frequency_small_k",
    "scanner.frequency_large_k",
    "cli.serialize",
)


class Tracer:
    """In-memory span recorder."""

    def __init__(self):
        self.origin = perf_counter()
        self.spans = []
        self._open = []

    @contextmanager
    def span(self, name: str):
        record = [name, perf_counter() - self.origin, None, self._open[-1] if self._open else None]
        self._open.append(len(self.spans))
        self.spans.append(record)
        try:
            yield
        finally:
            record[2] = perf_counter() - self.origin
            self._open.pop()

    def totals(self) -> dict[str, float]:
        """Summed duration per span name."""
        sums: dict[str, float] = {}
        for name, start, end, _ in self.spans:
            sums[name] = sums.get(name, 0.0) + (end - start)
        return sums

    def write(self, path, **header) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(dict(header, fields=["name", "start_s", "end_s", "parent"], spans=self.spans), handle)


def trace_scan(tracer: Tracer, k_max: int, outcome) -> str | None:
    """The scan's layers over 1..k_max: serial scan, one worker's transport, CSV, oracles.

    Returns the CSV text, or None when the program raised.
    """
    outcome.attempted += 1
    try:
        with tracer.span("scan_csv.round"):
            with tracer.span("scanner.scan_serial"):
                records = scanner.scan_theorem(1, k_max, jobs=1)
            worker = records[: (k_max + 1) // 2]  # the first of two workers' chunks
            with tracer.span("scanner.transport"):
                blob = pickle.dumps(worker)
                received = pickle.loads(blob)
            with tracer.span("scanner.csv"):
                buffer = io.StringIO()
                scanner.emit_csv(records, buffer)
            least, zeros = [], []
            for low in range(1, k_max + 1, SCAN_BLOCK):
                block = range(low, min(low + SCAN_BLOCK, k_max + 1))
                with tracer.span("scan_csv.block"):
                    with tracer.span("oracle.f_exact"):
                        least.extend(oracle.f_exact(k) for k in block)
                    with tracer.span("oracle.zero_min"):
                        zeros.extend(oracle.zero_min(k) for k in block)
    except Exception as error:  # a program fault: counted, reported, and the trace goes on
        outcome.fail(error)
        return None
    text = buffer.getvalue()
    outcome.metric("scanner.transport_bytes", len(blob), "B")
    outcome.metric("scanner.csv_bytes", len(text.encode("utf-8")), "B")
    outcome.metric("oracle.f_exact_steps", sum(least), "count")
    steps = sum(4 * k if z is None else z for k, z in enumerate(zeros, 1))
    outcome.metric("oracle.zero_min_steps", steps, "count")
    outcome.verify(checks.check_scan_csv, text, k_max)
    if received != worker:
        outcome.problems.append("scan records changed in a pickle round trip")
    if least != [r.f for r in records] or zeros != [r.zero_min for r in records]:
        outcome.problems.append("oracle.f_exact or oracle.zero_min disagrees with the scan records")
    return text


def trace_certify(tracer: Tracer, ks, outcome) -> list:
    """certify and serialize per k, then classify, construct and run_decompose called apart.

    Returns the serialized certificates, None where the program raised.
    """
    texts, tried = [], 0
    with tracer.span("certify_mix.round"):
        for k in ks:
            outcome.attempted += 1
            try:
                with tracer.span("certify_mix.op"):
                    with tracer.span("witness.certify"):
                        certificate = witness.certify(k)
                    with tracer.span("cli.serialize"):
                        text = cli.serialize_certificate(certificate)
                    odd = certificate.k_odd
                    with tracer.span("witness.classify"):
                        case, params = witness.classify(odd)
                    with tracer.span("witness.construct"):
                        witness.construct_candidates(odd, case, params)
                    with tracer.span("digitcore.run_decompose"):
                        digitcore.run_decompose(odd)
            except Exception as error:
                outcome.fail(error)
                texts.append(None)
                continue
            texts.append(text)
            tried += certificate.candidates.index(certificate.verified_hit)
    done = [text for text in texts if text is not None]
    outcome.metric("witness.candidates_per_certificate", tried / max(1, len(done)), "count")
    outcome.metric("cli.serialize_bytes", sum(len(text) for text in done), "B")
    outcome.verify(checks.check_certificates, ks, texts, cli.parse_certificate, cli.serialize_certificate)
    return texts


def trace_freq(tracer: Tracer, grid, outcome) -> list:
    """One frequency call per (k, N), its span named by the size of k.

    Returns the frequency records, None where the program raised.
    """
    records = []
    with tracer.span("freq_grid.round"):
        for k, samples in grid:
            outcome.attempted += 1
            name = "scanner.frequency_large_k" if k >= LARGE_K_FLOOR else "scanner.frequency_small_k"
            try:
                with tracer.span("freq_grid.op"), tracer.span(name):
                    records.append(scanner.frequency(k, samples))
            except Exception as error:
                outcome.fail(error)
                records.append(None)
    outcome.verify(checks.check_frequencies, grid, records, scanner.frequency)
    return records


def import_seconds(root, env) -> float:
    """Median time of ``import tmwitness`` measured inside fresh interpreters."""
    command = [sys.executable, "-c", IMPORT_PROBE]
    times = [
        float(subprocess.run(command, capture_output=True, text=True, check=True, cwd=root, env=env).stdout)
        for _ in range(IMPORT_PROBES)
    ]
    return statistics.median(times)
