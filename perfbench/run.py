"""Benchmark of tmwitness: three workloads, their end-to-end metrics, and a traced per-layer run.

    python3 perfbench/run.py --workload {scan_csv,certify_mix,freq_grid} \\
        --seed N --seconds S --trace {0,1}

The program is the tmwitness package under the checkout's src/; nothing is
installed. Each workload is one closed-loop client. --trace 0 measures for
--seconds seconds, in whole rounds of the workload's seeded inputs, and
reports the end-to-end metrics. --trace 1 makes a separate traced run, one
round of every workload's inputs (see layers.py), and reports the per-layer
metrics. Outputs are checked apart from the program (see checks.py), outside
the timed region. The last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}; it is also written, with the
trace and the scan CSVs, under .perfbench/ in the checkout. See README.md.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import checks
import inputs
from inputs import FULL, ROOT, WORKLOADS

SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
SCAN_JOBS = 2  # the cores of the reference box; more workers would only contend
SETUP_PROBE_EVERY_S = 2.0
CHUNK_S = 0.002  # the shortest stretch of calls timed as one; see run_rounds


class Outcome:
    """What one benchmark run attempted, what failed, which checks failed, and its metrics."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, dict] = {}

    def metric(self, name: str, value, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}

    def fail(self, error: BaseException) -> None:
        """Count one operation that raised; report the first few on stderr."""
        self.failed += 1
        if self.failed <= 3:
            print(f"operation failed: {error!r}", file=sys.stderr)

    def verify(self, check, *args) -> None:
        try:
            check(*args)
        except (checks.CheckFailed, ValueError, LookupError, TypeError) as failure:
            # an output the check cannot even read fails it too
            self.problems.append(f"{check.__name__}: {failure!r}")


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def _load_program() -> None:
    """Put the checkout's src/ first on sys.path, or stop when it holds no tmwitness."""
    if not (SRC / "tmwitness" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no tmwitness package under {SRC}")
    sys.path.insert(0, str(SRC))
    import tmwitness

    if SRC.resolve() not in Path(tmwitness.__file__).resolve().parents:
        raise SystemExit(f"perfbench: imported tmwitness from {tmwitness.__file__}, not from {SRC}")


class SetupProbe:
    """Set-up time: a fresh interpreter that imports tmwitness and builds the inputs, timed from outside.

    The machine's speed drifts over tens of seconds, so probes are taken
    between the rounds of a run, at most one per SETUP_PROBE_EVERY_S seconds
    and spread over its whole length, and their median is reported. One
    untimed probe first warms the bytecode and file caches.
    """

    def __init__(self, workload: str, seed: int):
        self.command = [sys.executable, inputs.__file__, workload, str(seed)]
        self.times: list[float] = []
        self._probe()

    def _probe(self) -> float:
        start = time.perf_counter()
        subprocess.run(self.command, check=True, cwd=ROOT, env=_env())
        self.last = time.perf_counter()
        return self.last - start

    def __call__(self) -> None:
        if not self.times or time.perf_counter() - self.last >= SETUP_PROBE_EVERY_S:
            self.times.append(self._probe())


def _cli_scan(k_max: int, csv_path: Path) -> tuple[float, float, float, int]:
    """One `tmwitness scan` process: wall s, CPU s of it and its workers, peak RSS MB, exit code.

    os.wait4 reports the usage of this one child (with the workers it reaped),
    not the running maximum over every child that RUSAGE_CHILDREN keeps.
    """
    command = [sys.executable, "-m", "tmwitness", "scan", "--from", "1", "--to", str(k_max)]
    command += ["--csv", str(csv_path), "--jobs", str(SCAN_JOBS)]
    start = time.perf_counter()
    process = subprocess.Popen(command, cwd=ROOT, env=_env())
    _, status, usage = os.wait4(process.pid, 0)
    wall = time.perf_counter() - start
    process.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024, process.returncode


def run_scans(k_max: int, seconds: float, outcome: Outcome, between=None, min_rounds: int = 2):
    """CLI scans of 1..k_max after one unmeasured warm-up, until `seconds` of scanning.

    `between` is called after each scan, outside the timed region. Returns
    the first CSV text and the per-scan walls, CPU times and peak RSS.
    """
    csv_path = OUT / f"scan-{os.getpid()}.csv"
    walls, cpus, peaks, first = [], [], [], None
    elapsed = 0.0
    try:
        _cli_scan(k_max, csv_path)
        while len(walls) < min_rounds or elapsed < seconds:
            wall, cpu, peak, code = _cli_scan(k_max, csv_path)
            outcome.attempted += 1
            elapsed += wall
            if code != 0:
                outcome.fail(RuntimeError(f"tmwitness scan exited with {code}"))
                continue
            walls.append(wall)
            cpus.append(cpu)
            peaks.append(peak)
            with open(csv_path, encoding="utf-8", newline="") as handle:
                text = handle.read()
            if first is None:
                first = text
            elif text != first:
                outcome.problems.append("a scan's CSV differs from the first scan's")
            if between:
                between()
    finally:
        csv_path.unlink(missing_ok=True)
    return first, walls, cpus, peaks


def _chunks(latencies) -> list[tuple[int, int]]:
    """Cut a round into runs of consecutive calls that took at least CHUNK_S together."""
    chunks, start, total = [], 0, 0.0
    for index, latency in enumerate(latencies):
        total += latency
        if total >= CHUNK_S:
            chunks.append((start, index + 1))
            start, total = index + 1, 0.0
    if start < len(latencies):
        chunks.append((start, len(latencies)))
    return chunks


@dataclass
class Rounds:
    """What run_rounds measured: see there."""

    outputs: list
    latencies: array  # each call's fastest time
    wall: float  # one round's wall time, summed over chunks at their fastest
    cpu: float  # the same in CPU time
    walls: list[float]  # each whole round's wall time, the warm-up first
    peak: float


def run_rounds(items, op, seconds: float, outcome: Outcome, between=None, min_rounds: int = 2) -> Rounds:
    """Call op on every item, round after round, until `seconds` of rounds.

    The box's speed switches between a fast and a slow state, so a median
    over a run's rounds moves with the share of the run spent slow, while
    the fastest time of a few milliseconds of work, taken over tries spread
    across the run, mostly repeats. The first round
    is a warm-up: it cuts the items into chunks of consecutive calls of at
    least CHUNK_S each. Every later round times each chunk, in wall and CPU
    time, and each call. A round's wall and CPU time are the sums over its
    chunks of their fastest times; a call's latency is its fastest time.
    With a single round, the warm-up's own times are reported.

    `between` is called after each round, outside the timed region. Returns
    the first round's outputs (None where op raised), and the peak RSS in MB
    at the end of the first round, which holds all a round needs. Every
    later round must give the first round's outputs.
    """
    chunks = [(0, len(items))]
    walls, first = [], None
    while len(walls) < min_rounds or sum(walls) < seconds:
        outputs, latencies = [], array("d")
        round_walls, round_cpus = array("d"), array("d")
        round_start = time.perf_counter()
        for low, high in chunks:
            cpu = time.process_time()
            wall = time.perf_counter()
            for index in range(low, high):
                start = time.perf_counter()
                try:
                    output = op(items[index])
                except Exception as error:  # a program fault: counted as a failed operation
                    outcome.fail(error)
                    output = None
                latencies.append(time.perf_counter() - start)
                outputs.append(output)
            round_walls.append(time.perf_counter() - wall)
            round_cpus.append(time.process_time() - cpu)
        walls.append(time.perf_counter() - round_start)
        outcome.attempted += len(items)
        if first is None:
            first, warm_up = outputs, (latencies, round_walls[0], round_cpus[0])
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            chunks = _chunks(latencies)
            best = array("d", [math.inf]) * len(items)
            chunk_walls = array("d", [math.inf]) * len(chunks)
            chunk_cpus = array("d", [math.inf]) * len(chunks)
        else:
            if outputs != first:
                outcome.problems.append("a round's outputs differ from the first round's")
            best = array("d", map(min, best, latencies))
            chunk_walls = array("d", map(min, chunk_walls, round_walls))
            chunk_cpus = array("d", map(min, chunk_cpus, round_cpus))
        if between:
            between()
    if len(walls) == 1:
        return Rounds(first, *warm_up, walls, peak)
    return Rounds(first, best, sum(chunk_walls), sum(chunk_cpus), walls, peak)


def _operation(workload: str):
    """The timed call of an in-process workload, with the program's functions bound up front."""
    from tmwitness import cli, scanner, witness

    if workload == "certify_mix":
        certify, serialize = witness.certify, cli.serialize_certificate
        return lambda k: serialize(certify(k))
    frequency = scanner.frequency
    return lambda item: frequency(*item)


def measure(workload: str, scale, seed: int, seconds: float, outcome: Outcome) -> None:
    """The untraced run: set-up, `seconds` of whole rounds, then the checks."""
    from tmwitness import cli, scanner

    setup = SetupProbe(workload, seed)
    items = inputs.build(workload, scale, seed)
    if workload == "scan_csv":
        text, walls, cpus, peaks = run_scans(items, seconds, outcome, setup)
        latencies, count, peak = walls, items, statistics.median(peaks)
        wall, cpu = statistics.median(walls), statistics.median(cpus)
        if text is not None:
            outcome.verify(checks.check_scan_csv, text, items)
    else:
        rounds = run_rounds(items, _operation(workload), seconds, outcome, setup)
        outputs, latencies, wall, cpu, peak = rounds.outputs, rounds.latencies, rounds.wall, rounds.cpu, rounds.peak
        count = len(items)
        if workload == "certify_mix":
            parse, serialize = cli.parse_certificate, cli.serialize_certificate
            outcome.verify(checks.check_certificates, items, outputs, parse, serialize)
        else:
            outcome.verify(checks.check_frequencies, items, outputs, scanner.frequency)
    outcome.metric("setup_s", statistics.median(setup.times), "s")
    outcome.metric("wall_s", wall, "s")
    outcome.metric("items_per_s", count / wall, "1/s")
    outcome.metric("cpu_s", cpu, "s")
    outcome.metric("peak_rss_mb", peak, "MB")
    outcome.metric("latency_p50_ms", 1e3 * statistics.median(latencies), "ms")
    p99 = statistics.quantiles(latencies, n=100, method="inclusive")[98]
    outcome.metric("latency_p99_ms", 1e3 * p99, "ms")


def traced(workload: str, scale, seed: int, outcome: Outcome) -> Path:
    """The traced run: an untraced baseline round of `workload`, then one traced round of each workload."""
    import layers

    if workload == "scan_csv":
        untraced, baseline = run_scans(scale.scan_to, 0, outcome, min_rounds=1)[:2]
    else:
        items = inputs.build(workload, scale, seed)
        rounds = run_rounds(items, _operation(workload), 0, outcome, min_rounds=1)
        untraced, baseline = rounds.outputs, rounds.walls
    tracer = layers.Tracer()
    outputs = {
        "scan_csv": layers.trace_scan(tracer, scale.scan_to, outcome),
        "certify_mix": layers.trace_certify(tracer, inputs.build("certify_mix", scale, seed), outcome),
        "freq_grid": layers.trace_freq(tracer, inputs.build("freq_grid", scale, seed), outcome),
    }
    if outputs[workload] != untraced:  # the traced outputs are the checked ones
        outcome.problems.append("the untraced round's outputs differ from the traced round's")
    totals = tracer.totals()
    for name in layers.TIMED_SPANS:
        outcome.metric(f"{name}_s", totals.get(name, 0.0), "s")
    outcome.metric("cli.import_s", layers.import_seconds(ROOT, _env()), "s")
    overhead = totals.get(f"{workload}.round", 0.0) - sum(baseline)
    outcome.metric("trace.overhead_s", overhead, "s")
    path = OUT / f"trace-{workload}-{seed}.json"
    tracer.write(path, workload=workload, seed=seed)
    return path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _load_program()
    OUT.mkdir(exist_ok=True)
    outcome = Outcome()
    if args.trace:
        traced(args.workload, FULL, args.seed, outcome)
    else:
        measure(args.workload, FULL, args.seed, args.seconds, outcome)
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }
    line = json.dumps(result)
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(line + "\n")
    print(line)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
