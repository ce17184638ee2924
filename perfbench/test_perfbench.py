"""Tests of the benchmark itself: toy-size runs of every workload, and checks that catch corruption.

    python3 -m pytest -q perfbench
"""

import io
import json
import random
import shutil
import subprocess
import sys
import time
from fractions import Fraction

import pytest

import checks
import inputs
import run

run._load_program()

from tmwitness import cli, scanner, witness  # noqa: E402  (needs the path set up above)

SPEC = json.loads((inputs.ROOT / "BENCHMARK.json").read_text())
TOY_SCAN = inputs.TOY.scan_to


def _units(section: str) -> dict[str, str]:
    return {metric["name"]: metric["unit"] for metric in SPEC[section]}


def _reported_units(outcome: run.Outcome) -> dict[str, str]:
    return {name: metric["unit"] for name, metric in outcome.metrics.items()}


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_workload_runs_and_passes_its_checks_at_toy_size(workload):
    outcome = run.Outcome()
    run.measure(workload, inputs.TOY, 5, 0, outcome)
    assert outcome.problems == []
    assert outcome.failed == 0 and outcome.attempted >= 2
    assert _reported_units(outcome) == _units("end_to_end")
    assert all(metric["value"] > 0 for metric in outcome.metrics.values())


@pytest.mark.parametrize("workload", inputs.WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    run.OUT.mkdir(exist_ok=True)
    outcome = run.Outcome()
    path = run.traced(workload, inputs.TOY, 5, outcome)
    assert outcome.problems == [] and outcome.failed == 0
    assert _reported_units(outcome) == _units("per_layer")
    trace = json.loads(path.read_text())
    spans = trace["spans"]
    assert trace["fields"] == ["name", "start_s", "end_s", "parent"]
    for name, start, end, parent in spans:
        assert start <= end
        if parent is not None:
            assert spans[parent][1] <= start and end <= spans[parent][2]
    assert {"scan_csv.round", "certify_mix.round", "freq_grid.round"} <= {span[0] for span in spans}


def test_inputs_repeat_per_seed_and_have_their_make_up():
    assert inputs.certify_inputs(inputs.FULL, 7) == inputs.certify_inputs(inputs.FULL, 7)
    assert inputs.freq_inputs(inputs.FULL, 7) != inputs.freq_inputs(inputs.FULL, 8)
    ks = inputs.certify_inputs(inputs.FULL, 7)
    long_words = [k for k in ks if k.bit_length() >= 64]
    assert all(k % 2 for k in ks) and len(long_words) == inputs.FULL.long_words
    assert len(long_words) / len(ks) > 0.02  # so the top 1% of latencies are all long words
    grid = inputs.freq_inputs(inputs.FULL, 7)
    assert {(3, 4**j) for j in inputs.FULL.four_powers} <= set(grid)
    assert all(10**3 <= samples <= 10**6 for _, samples in grid)
    assert sum(k >= inputs.LARGE_K_FLOOR for k, _ in grid) == inputs.FULL.grid // 2


def test_run_structured_words_reach_the_deep_lemmas():
    rng = random.Random(0)
    cases = {witness.certify(inputs.run_structured_word(rng, 200)).case.name for _ in range(400)}
    for family in ("Lemma2_u2", "Lemma4", "Lemma5", "Lemma6"):
        assert any(case.startswith(family) for case in cases), family


@pytest.fixture(scope="module")
def scan_text():
    buffer = io.StringIO()
    scanner.emit_csv(scanner.scan_theorem(1, TOY_SCAN), buffer)
    return buffer.getvalue()


def _edit_row(text: str, k: int, **fields) -> str:
    lines = text.split("\n")
    row = lines[k].split(",")
    for name, value in fields.items():
        row[checks.SCAN_HEADER.index(name)] = str(value)
    lines[k] = ",".join(row)
    return "\n".join(lines)


def test_scan_check_accepts_the_program_output(scan_text):
    checks.check_scan_csv(scan_text, TOY_SCAN)


@pytest.mark.parametrize(
    "k, fields, message",
    [
        (9, {"f": 8}, "brute force"),  # one altered f, its gap kept consistent below
        (20, {"f": 22, "gap": 2}, "gap not 2 or 3"),
        (12, {"f": 8, "gap": -4}, "k_odd \\+ 4"),
        (7, {"f": 11, "gap": 4}, "exactly at k = 4\\^r - 1"),
        (13, {"f": 14, "gap": 1}, "only at k = 6"),
        (11, {"f": 11, "gap": 0}, "only at k = 1 or 2\\^r \\+ 1"),
        (9, {"zero_min": 99}, "zero_min"),
        (9, {"flags": "GapEquals4"}, "flags"),
    ],
)
def test_scan_check_catches_an_altered_row(scan_text, k, fields, message):
    if "f" in fields and "gap" not in fields:
        fields["gap"] = fields["f"] - k
    with pytest.raises(checks.CheckFailed, match=message):
        checks.check_scan_csv(_edit_row(scan_text, k, **fields), TOY_SCAN)


def test_scan_check_catches_missing_and_reordered_rows(scan_text):
    lines = scan_text.split("\n")
    with pytest.raises(checks.CheckFailed, match="one row per k"):
        checks.check_scan_csv("\n".join(lines[:5] + lines[6:]), TOY_SCAN)
    lines[5], lines[6] = lines[6], lines[5]
    with pytest.raises(checks.CheckFailed, match="one row per k"):
        checks.check_scan_csv("\n".join(lines), TOY_SCAN)


CERTIFIED_K = [1, 6, 51, 2**70 + 2**40 + 1, inputs.run_structured_word(random.Random(3), 300)]


def _certificates():
    return [cli.serialize_certificate(witness.certify(k)) for k in CERTIFIED_K]


def _check_certificates(texts):
    checks.check_certificates(CERTIFIED_K, texts, cli.parse_certificate, cli.serialize_certificate)


def _edit_certificate(text: str, **fields) -> str:
    raw = json.loads(text)
    raw.update(fields)
    return json.dumps(raw, separators=(",", ":"))


def test_certificate_check_accepts_the_program_output():
    _check_certificates(_certificates())


@pytest.mark.parametrize(
    "index, edit, message",
    [
        (2, lambda text: text.replace(",", ", "), "round-trip"),
        (1, lambda text: _edit_certificate(text, shift=2), "shift"),
        (2, lambda text: _edit_certificate(text, k_input=53), "k_input"),
        (2, lambda text: _edit_certificate(text, verified_hit=2), "not a sparse odd-weight"),
        (2, lambda text: _edit_certificate(text, verified_hit=51 + 5), "not a sparse odd-weight"),
        (2, lambda text: _edit_certificate(text, verified_hit=15), "not a sparse odd-weight"),
        (2, lambda text: _edit_certificate(text, candidates=[1]), "not among the candidates"),
    ],
)
def test_certificate_check_catches_a_corrupted_certificate(index, edit, message):
    texts = _certificates()
    texts[index] = edit(texts[index])
    with pytest.raises(checks.CheckFailed, match=message):
        _check_certificates(texts)


def test_odd_weight_count_agrees_on_both_paths():
    for k in (3, 5, 2**32 - 1, 2**32 + 1, 2**61 + 1, 2**63 - 1, 2**100 + 1):
        looped = sum(bin(k * n).count("1") & 1 for n in range(1, 5001))
        assert checks.odd_weight_count(k, 5000) == looped


FREQ_GRID = [(3, 4**5), (5, 2000), (2**61 + 7, 1500)]


def test_frequency_check_accepts_the_program_output():
    records = [scanner.frequency(k, samples) for k, samples in FREQ_GRID]
    checks.check_frequencies(FREQ_GRID, records, scanner.frequency)


def test_frequency_check_catches_an_altered_count():
    records = [scanner.frequency(k, samples) for k, samples in FREQ_GRID]
    record = records[1]
    records[1] = scanner.FrequencyRecord(record.k, record.sample_count, record.ones_frequency + Fraction(1, 2000))
    with pytest.raises(checks.CheckFailed, match="counted"):
        checks.check_frequencies(FREQ_GRID, records, scanner.frequency)


def test_frequency_check_catches_a_break_of_newmans_law():
    records = [scanner.frequency(k, samples) for k, samples in FREQ_GRID]
    records[0] = scanner.FrequencyRecord(3, 4**5, records[0].ones_frequency + Fraction(1, 4**5))
    with pytest.raises(checks.CheckFailed, match="4\\^5"):
        checks.check_frequencies(FREQ_GRID, records, scanner.frequency)


def test_frequency_check_catches_a_doubling_mismatch():
    def skewed(k, samples):
        record = scanner.frequency(k, samples)
        if k % 2:
            return record
        return scanner.FrequencyRecord(k, samples, record.ones_frequency + Fraction(1, samples))

    records = [scanner.frequency(k, samples) for k, samples in FREQ_GRID]
    with pytest.raises(checks.CheckFailed, match="!= frequency"):
        checks.check_frequencies(FREQ_GRID, records, skewed)


def test_rounds_that_disagree_are_flagged_and_failures_counted():
    calls = []

    def drifting(item):
        calls.append(item)
        if item == 2:
            raise ValueError("fault")
        return len(calls) > 3

    outcome = run.Outcome()
    rounds = run.run_rounds([1, 2, 3], drifting, 0, outcome)
    assert rounds.outputs == [False, None, False] and len(rounds.latencies) == 3 and len(rounds.walls) == 2
    assert (outcome.attempted, outcome.failed) == (6, 2)
    assert outcome.problems == ["a round's outputs differ from the first round's"]


def test_chunks_cover_a_round_in_order():
    assert run._chunks([run.CHUNK_S / 2] * 5) == [(0, 2), (2, 4), (4, 5)]
    assert run._chunks([run.CHUNK_S * 3, 0.0]) == [(0, 1), (1, 2)]


def test_rounds_report_each_chunk_and_call_at_its_fastest():
    calls = []

    def slow_in_the_second_round(item):
        calls.append(item)
        time.sleep(0.012 if 4 <= len(calls) <= 6 else 0.003)
        return item

    outcome = run.Outcome()
    rounds = run.run_rounds([1, 2, 3], slow_in_the_second_round, 0, outcome, min_rounds=3)
    assert len(rounds.walls) == 3 and outcome.attempted == 9
    assert all(0.003 <= latency < 0.012 for latency in rounds.latencies)
    assert 0.009 <= rounds.wall < 0.036 and rounds.cpu < rounds.wall


def test_without_the_program_it_fails_and_prints_no_result(tmp_path):
    shutil.copy(inputs.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(inputs.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    command = [sys.executable, "perfbench/run.py", "--workload", "scan_csv", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(command, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""
    assert not (tmp_path / ".perfbench").exists()
