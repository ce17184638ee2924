"""Command-line contract: exact output bytes, exit codes, JSON round-trips."""

import json
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import tmwitness
from tmwitness import cli, scanner
from tmwitness.cli import _build_parser, parse_certificate, run, serialize_certificate
from tmwitness.digitcore import TheoremViolationError
from tmwitness.witness import CaseLabel, certify


def invoke(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_tm_zero(capsys):
    assert invoke(capsys, "tm", "0") == (0, '{"n":0,"t":0}\n', "")


def test_tm_values(capsys):
    assert invoke(capsys, "tm", "5")[1] == '{"n":5,"t":0}\n'
    assert invoke(capsys, "tm", "7")[1] == '{"n":7,"t":1}\n'


def test_sdigits(capsys):
    code, out, _ = invoke(capsys, "sdigits", "--base", "10", "119759")
    assert code == 0
    assert out == '{"base":10,"n":119759,"digit_sum":32}\n'


def test_f_default_cross_checks(capsys):
    assert invoke(capsys, "f", "3") == (
        0,
        '{"k":3,"f":7,"gap":4,"case":"AllOnesEvenLen"}\n',
        "",
    )


@pytest.mark.parametrize("method", ["oracle", "constructive", "both"])
def test_f_methods_agree_here(capsys, method):
    code, out, _ = invoke(capsys, "f", "6", "--method", method)
    assert code == 0
    assert out == '{"k":6,"f":7,"gap":1,"case":"AllOnesEvenLen"}\n'


def test_f_constructive_handles_huge_k(capsys):
    k = str((1 << 80) + 1)
    code, out, _ = invoke(capsys, "f", k, "--method", "constructive")
    assert code == 0
    payload = json.loads(out)
    assert payload["k"] == k
    assert payload["f"] == k
    assert payload["case"] == "Lemma1"


def test_witness_51_exact(capsys):
    code, out, _ = invoke(capsys, "witness", "51")
    assert code == 0
    assert out == (
        '{"k_input":51,"k_odd":51,"shift":0,"case":"Lemma6_tEqU_U2u1_one",'
        '"params":{"length":6,"lead_ones":2,"lead_zeros":2,"gap_zeros":2,'
        '"tail_ones":2,"above_gap_bit":1},"candidates":[1,3,7],'
        '"guarantee":{"triple":3},"verified_hit":7}\n'
    )


def test_witness_single_candidate_shape(capsys):
    _, out, _ = invoke(capsys, "witness", "7")
    assert out == (
        '{"k_input":7,"k_odd":7,"shift":0,"case":"AllOnesOddLen",'
        '"params":{"length":3},"candidates":[1],"guarantee":"direct","verified_hit":1}\n'
    )


def test_witness_reduction_bookkeeping(capsys):
    payload = json.loads(invoke(capsys, "witness", "6")[1])
    assert (payload["k_input"], payload["k_odd"], payload["shift"]) == (6, 3, 1)


def test_witness_big_integers_become_strings(capsys):
    k = (1 << 60) + 1
    payload = json.loads(invoke(capsys, "witness", str(k))[1])
    assert payload["k_input"] == "1152921504606846977"
    assert payload["verified_hit"] == "1152921504606846977"
    assert payload["candidates"] == ["1152921504606846977"]
    assert payload["params"]["length"] == 61


def test_certificate_round_trip():
    for k in (1, 3, 6, 7, 9, 51, 411, 835, (1 << 60) + 1):
        cert = certify(k)
        assert parse_certificate(serialize_certificate(cert)) == cert


def test_zeromin(capsys):
    assert invoke(capsys, "zeromin", "7")[1] == '{"k":7,"zero_min":9}\n'
    assert invoke(capsys, "zeromin", "3")[1] == '{"k":3,"zero_min":1}\n'


def test_zeromin_past_ceiling_exits_3(capsys, monkeypatch):
    # zero_min(7) is 9, past a ceiling of 8
    monkeypatch.setattr("tmwitness.oracle._zero_ceiling", lambda k: 8)
    code, out, err = invoke(capsys, "zeromin", "7")
    assert (code, out) == (3, "")
    assert "theorem violation" in err


# with the oracle walks bounded at 2^10, f(2^10 + 1) = 2^10 + 1 and zero_min(2^11 - 1) = 2^11 + 1 lie past it
_PAST_THE_BOUND = "f of k=1025 stopped at n=1023, short of its proven ceiling 1029; `f --method constructive` gives a witness"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["f", "1025"], _PAST_THE_BOUND),
        (["f", "1025", "--method", "both"], _PAST_THE_BOUND),
        (["f", "1025", "--method", "oracle"], _PAST_THE_BOUND),
        (["zeromin", "2047"], "zero_min of k=2047 stopped at n=1023, short of its proven ceiling 2049"),
    ],
)
def test_walk_past_the_bound_exits_2(capsys, monkeypatch, argv, message):
    monkeypatch.setattr("tmwitness.oracle._WALK_BOUND", 1 << 10)
    assert invoke(capsys, *argv) == (2, "", f"error: the oracle walk for {message}\n")
    assert invoke(capsys, "f", "1025", "--method", "constructive") == (
        0, '{"k":1025,"f":1025,"gap":0,"case":"Lemma1"}\n', ""
    )


@pytest.mark.parametrize("jobs", [1, 2])
def test_scan_stops_at_the_first_walk_past_the_bound(capsys, monkeypatch, tmp_path, small_tasks, jobs):
    # 1025 is the first odd core of 1024..1100 whose walk passes the bound; the
    # cores below 1024 that its even k need are not
    monkeypatch.setattr("tmwitness.oracle._WALK_BOUND", 1 << 10)
    target = tmp_path / "scan.csv"
    target.write_bytes(b"earlier contents\n")
    for argv in (["--csv", str(target)], []):
        code, out, err = invoke(capsys, "scan", "--from", "1024", "--to", "1100", "--jobs", str(jobs), *argv)
        assert (code, err) == (2, f"error: the oracle walk for {_PAST_THE_BOUND}\n")
        assert '"k":1025,' not in out
        assert small_tasks.taken() == (jobs if jobs > 1 else 0)
    assert target.read_bytes() == b"earlier contents\n"
    assert [path.name for path in tmp_path.iterdir()] == ["scan.csv"]


def test_scan_jsonl(capsys):
    code, out, _ = invoke(capsys, "scan", "--from", "1", "--to", "3", "--jobs", "1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    first = json.loads(lines[0])
    assert first == {
        "k": 1,
        "f": 1,
        "gap": 0,
        "case": "AllOnesOddLen",
        "witness": 1,
        "witness_weight": 1,
        "zero_min": 3,
        "flags": ["GapEquals0"],
    }
    assert json.loads(lines[2])["flags"] == ["GapEquals4"]


def test_scan_jsonl_exact_bytes(capsys):
    # negative gaps and empty flag arrays, byte for byte
    assert invoke(capsys, "scan", "--from", "1", "--to", "8", "--jobs", "1") == (
        0,
        '{"k":1,"f":1,"gap":0,"case":"AllOnesOddLen","witness":1,"witness_weight":1,"zero_min":3,"flags":["GapEquals0"]}\n'
        '{"k":2,"f":1,"gap":-1,"case":"AllOnesOddLen","witness":1,"witness_weight":1,"zero_min":3,"flags":[]}\n'
        '{"k":3,"f":7,"gap":4,"case":"AllOnesEvenLen","witness":7,"witness_weight":3,"zero_min":1,"flags":["GapEquals4"]}\n'
        '{"k":4,"f":1,"gap":-3,"case":"AllOnesOddLen","witness":1,"witness_weight":1,"zero_min":3,"flags":[]}\n'
        '{"k":5,"f":5,"gap":0,"case":"Lemma1","witness":5,"witness_weight":2,"zero_min":1,"flags":["GapEquals0"]}\n'
        '{"k":6,"f":7,"gap":1,"case":"AllOnesEvenLen","witness":7,"witness_weight":3,"zero_min":1,"flags":["GapEquals1"]}\n'
        '{"k":7,"f":1,"gap":-6,"case":"AllOnesOddLen","witness":1,"witness_weight":1,"zero_min":9,"flags":[]}\n'
        '{"k":8,"f":1,"gap":-7,"case":"AllOnesOddLen","witness":1,"witness_weight":1,"zero_min":3,"flags":[]}\n',
        "",
    )


def _per_row_jsonl(k_min, k_max):
    """The reference for the scan's JSON lines: each record of scan_theorem by _object, a line each."""
    records = scanner.scan_theorem(k_min, k_max)
    return "".join(cli._object(zip(scanner.THEOREM_HEADER, record)) + "\n" for record in records)


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_scan_jsonl_blocks_equal_the_per_row_encoder_across_workers(capsys, small_tasks, jobs):
    # eight odd cores a task: 256 tasks, on forked workers for jobs > 1
    code, out, err = invoke(capsys, "scan", "--from", "1", "--to", "4096", "--jobs", str(jobs))
    assert (code, err) == (0, "")
    assert small_tasks.taken() == (jobs if jobs > 1 else 0)
    assert out == _per_row_jsonl(1, 4096)


@pytest.mark.parametrize(
    "k_min, k_max",
    [(1000, 1100), (4, 4), (6, 6), (2**53 + 3, 2**53 + 3)],
    ids=["cores-below-from", "lone-even", "gap-1", "2^53+3"],
)
def test_scan_jsonl_blocks_equal_the_per_row_encoder(capsys, k_min, k_max):
    code, out, err = invoke(capsys, "scan", "--from", str(k_min), "--to", str(k_max), "--jobs", "1")
    assert (code, err) == (0, "")
    assert out == _per_row_jsonl(k_min, k_max)


def test_scan_jsonl_quotes_ints_past_2_to_53_only(capsys):
    # k = 2^53 is one past the bound, and its gap 1 - 2^53 is on it
    assert invoke(capsys, "scan", "--from", str(2**53), "--to", str(2**53), "--jobs", "1") == (
        0,
        '{"k":"9007199254740992","f":1,"gap":-9007199254740991,"case":"AllOnesOddLen","witness":1,'
        '"witness_weight":1,"zero_min":3,"flags":[]}\n',
        "",
    )


def test_scan_jsonl_two_flags_on_one_row(capsys, plant):
    # 6 takes zero_min 9 from its core 3, past 6 + 2, beside its gap flag
    plant(zeros={3: 9})
    code, out, err = invoke(capsys, "scan", "--from", "1", "--to", "12", "--jobs", "1")
    assert (code, err) == (0, "")
    assert out == _per_row_jsonl(1, 12)
    assert out.splitlines()[5] == (
        '{"k":6,"f":7,"gap":1,"case":"AllOnesEvenLen","witness":7,"witness_weight":3,"zero_min":9,'
        '"flags":["GapEquals1","ZeroMinExceedsKplus2"]}'
    )


def test_scan_jobs_deterministic(capsys, small_tasks):
    one = invoke(capsys, "scan", "--from", "1", "--to", "60", "--jobs", "1")[1]
    four = invoke(capsys, "scan", "--from", "1", "--to", "60", "--jobs", "4")[1]
    assert one == four
    assert small_tasks.taken() == 4


def test_scan_jobs_default_follows_cpu_affinity(monkeypatch):
    argv = ["scan", "--from", "1", "--to", "2"]
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 2)
    assert _build_parser().parse_args(argv).jobs == 1
    monkeypatch.delattr(os, "sched_getaffinity")
    assert _build_parser().parse_args(argv).jobs == 2
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert _build_parser().parse_args(argv).jobs == 1


def test_scan_csv_writes_file_and_keeps_stdout_quiet(capsys, tmp_path):
    target = tmp_path / "scan.csv"
    code, out, _ = invoke(
        capsys, "scan", "--from", "1", "--to", "5", "--csv", str(target), "--jobs", "1"
    )
    assert code == 0
    assert out == ""
    text = target.read_text(encoding="utf-8")
    assert text.startswith("k,f,gap,case,")
    assert len(text.splitlines()) == 6


def test_scan_violation_leaves_csv_untouched(capsys, monkeypatch, tmp_path):
    real_verify = scanner.verify

    def verify_failing_at_51(k_odd):
        if k_odd == 51:
            raise TheoremViolationError("planted at k=51")
        return real_verify(k_odd)

    monkeypatch.setattr(scanner, "verify", verify_failing_at_51)
    # small tasks, so the rows before k=51 are written before the breach
    monkeypatch.setattr(scanner, "_CORE_CHUNK", 8)
    target = tmp_path / "scan.csv"
    target.write_bytes(b"earlier contents\n")
    code, out, err = invoke(
        capsys, "scan", "--from", "1", "--to", "200", "--jobs", "1", "--csv", str(target)
    )
    assert (code, out) == (3, "")
    assert "planted at k=51" in err
    assert target.read_bytes() == b"earlier contents\n"
    assert [path.name for path in tmp_path.iterdir()] == ["scan.csv"]


def test_scan_violation_in_a_worker_exits_3(capsys, monkeypatch, tmp_path, forks):
    parent, real_verify = os.getpid(), scanner.verify

    def verify_failing_at_51_in_a_worker(k_odd):
        if k_odd == 51 and os.getpid() != parent:
            raise TheoremViolationError("planted at k=51")
        return real_verify(k_odd)

    monkeypatch.setattr(scanner, "verify", verify_failing_at_51_in_a_worker)
    monkeypatch.setattr(scanner, "_CORE_CHUNK", 8)
    target = tmp_path / "scan.csv"
    for argv in (["--csv", str(target)], []):
        code, out, err = invoke(capsys, "scan", "--from", "1", "--to", "200", "--jobs", "2", *argv)
        assert (code, err) == (3, "theorem violation: planted at k=51\n")
        assert '"k":51,' not in out
        assert forks.taken() == 2
    assert not target.exists()


def test_scan_worker_that_dies_exits_1_with_one_line(capsys, monkeypatch, tmp_path, small_tasks):
    parent, real_verify = os.getpid(), scanner.verify

    def verify_dying_at_51_in_a_worker(k_odd):
        if k_odd == 51 and os.getpid() != parent:
            os._exit(1)  # a worker killed in its task, without a word to the parent
        return real_verify(k_odd)

    monkeypatch.setattr(scanner, "verify", verify_dying_at_51_in_a_worker)
    target = tmp_path / "scan.csv"
    target.write_bytes(b"earlier contents\n")
    code, out, err = invoke(capsys, "scan", "--from", "1", "--to", "200", "--jobs", "2", "--csv", str(target))
    assert (code, out) == (1, "")
    assert re.fullmatch(r"i/o error: scan worker \d+ ended without the result of task 3\n", err)
    assert target.read_bytes() == b"earlier contents\n"
    assert [path.name for path in tmp_path.iterdir()] == ["scan.csv"]
    assert small_tasks.taken() == 2


def test_scan_csv_refuses_an_empty_path(capsys):
    code, out, err = invoke(capsys, "scan", "--from", "1", "--to", "3", "--csv", "")
    assert (code, out) == (2, "")
    assert "argument --csv: must name a file" in err


@pytest.mark.parametrize("csv", [False, True])
def test_scan_past_2_to_64_equal_for_jobs_1_and_2(capsys, tmp_path, small_tasks, csv):
    # every column of this range is a list, as its ints pass 2^64; no core here is
    # 2^r + 1, 4^r - 1 or 2^w - 1 with w odd, whose oracle walks run to about k
    k_min, k_max = 2**65 + 2000001, 2**65 + 2000100
    outputs = []
    for jobs in (1, 2):
        target = tmp_path / f"scan-{jobs}.csv"
        argv = ["--csv", str(target)] if csv else []
        code, out, err = invoke(capsys, "scan", "--from", str(k_min), "--to", str(k_max), "--jobs", str(jobs), *argv)
        assert (code, err) == (0, "")
        outputs.append(target.read_bytes() if csv else out)
    assert small_tasks.taken() == 2
    assert outputs[0] == outputs[1]
    if not csv:
        assert outputs[0] == _per_row_jsonl(k_min, k_max)
    assert len(outputs[0].splitlines()) == 100 + csv


def test_scan_csv_unwritable_path_is_io_error(capsys, tmp_path):
    target = tmp_path / "missing" / "scan.csv"
    code, out, err = invoke(capsys, "scan", "--from", "1", "--to", "3", "--csv", str(target))
    assert code == 1
    assert out == ""
    assert "i/o error" in err


def test_weights_jsonl(capsys):
    code, out, _ = invoke(capsys, "weights", "--r-from", "4", "--r-to", "5", "--bit-limit", "24")
    assert code == 0
    assert out == (
        '{"r":4,"k":51,"counterexample":null}\n'
        '{"r":5,"k":99,"counterexample":null}\n'
    )


def test_freq(capsys):
    code, out, _ = invoke(capsys, "freq", "--k", "1", "--samples", "4")
    assert code == 0
    assert out == '{"k":1,"sample_count":4,"ones_numerator":3,"ones_denominator":4}\n'


def test_genbase_both_default(capsys):
    code, out, _ = invoke(capsys, "genbase", "--base", "2", "--mod", "2", "--class", "1", "--k", "3")
    assert code == 0
    assert out == (
        '{"base":2,"mod":2,"class":1,"k":3,"residue":null,"method":"both",'
        '"constructed":7,"minimum":7}\n'
    )


def test_genbase_single_methods(capsys):
    construct = json.loads(
        invoke(capsys, "genbase", "--base", "10", "--mod", "2", "--class", "1", "--k", "7",
               "--method", "construct")[1]
    )
    assert construct["constructed"] == 9
    assert "minimum" not in construct

    minimum = json.loads(
        invoke(capsys, "genbase", "--base", "10", "--mod", "2", "--class", "1", "--k", "7",
               "--method", "oracle")[1]
    )
    assert minimum["minimum"] == 1
    assert "constructed" not in minimum


def test_genbase_residue_construct(capsys):
    code, out, _ = invoke(
        capsys, "genbase", "--base", "2", "--mod", "2", "--class", "1", "--k", "3",
        "--residue", "0"
    )
    assert code == 0
    assert out == (
        '{"base":2,"mod":2,"class":1,"k":3,"residue":0,"method":"construct",'
        '"constructed":84}\n'
    )


def test_genbase_residue_rejects_oracle_method(capsys):
    code, _, err = invoke(
        capsys, "genbase", "--base", "2", "--mod", "2", "--class", "1", "--k", "3",
        "--residue", "1", "--method", "oracle"
    )
    assert code == 2
    assert "construct only" in err


_GENBASE_METHODS = {  # (method flag, residue flag) -> exit code and stdout of base 2, mod 2, class 1, k 3
    (None, None): (0, '"method":"both","constructed":7,"minimum":7}\n'),
    ("construct", None): (0, '"method":"construct","constructed":7}\n'),
    ("oracle", None): (0, '"method":"oracle","minimum":7}\n'),
    ("both", None): (0, '"method":"both","constructed":7,"minimum":7}\n'),
    (None, "0"): (0, '"method":"construct","constructed":84}\n'),
    ("construct", "0"): (0, '"method":"construct","constructed":84}\n'),
    ("oracle", "0"): (2, ""),
    ("both", "0"): (2, ""),
}


@pytest.mark.parametrize("method, residue", list(_GENBASE_METHODS))
def test_genbase_method_and_residue(capsys, method, residue):
    flags = [*(["--method", method] if method else []), *(["--residue", residue] if residue else [])]
    code, tail = _GENBASE_METHODS[method, residue]
    refused = "error: a pinned residue supports --method construct only\n"
    expected = (0, f'{{"base":2,"mod":2,"class":1,"k":3,"residue":{residue or "null"},' + tail, "")
    assert invoke(capsys, "genbase", "--base", "2", "--mod", "2", "--class", "1", "--k", "3", *flags) == (
        expected if code == 0 else (2, "", refused)
    )
    # base 3 breaks the gcd rule as well: a method the residue refuses is named first
    bad = invoke(capsys, "genbase", "--base", "3", "--mod", "2", "--class", "1", "--k", "5", *flags)
    if code:
        assert bad == (2, "", refused)
    else:
        assert bad[:2] == (2, "") and "gcd(base-1, modulus)" in bad[2]


def test_genbase_gcd_violation_is_usage_error(capsys):
    code, _, err = invoke(capsys, "genbase", "--base", "3", "--mod", "2", "--class", "1", "--k", "5")
    assert code == 2
    assert "gcd" in err


@pytest.mark.parametrize("extra", [("--method", "construct"), ("--residue", "0")])
def test_genbase_broken_construction_exits_3(capsys, monkeypatch, extra):
    # no digit sum lands in class 1, so either construction breaks its contract
    monkeypatch.setattr("tmwitness.genbase.sum_digits", lambda base, n: 0)
    code, out, err = invoke(
        capsys, "genbase", "--base", "2", "--mod", "2", "--class", "1", "--k", "3", *extra
    )
    assert (code, out) == (3, "")
    assert "theorem violation" in err


def test_genbase_violation_exit_code(capsys, monkeypatch):
    # the construction gives 7 for k = 3, so a minimum of 10^9 lies above it
    monkeypatch.setattr("tmwitness.oracle.g_min", lambda query: 10**9)
    code, out, err = invoke(capsys, "genbase", "--base", "2", "--mod", "2", "--class", "1", "--k", "3")
    assert (code, out) == (3, "")
    assert err == "theorem violation: oracle and construction disagree at k=3: 1000000000 vs 7\n"


def test_conjecture(capsys):
    code, out, _ = invoke(capsys, "conjecture", "--base", "2", "--mod", "2", "--class", "1",
                          "--max", "64")
    assert code == 0
    assert out == (
        '{"base":2,"modulus":2,"digit_class":1,"k_max":64,"worst_k":3,'
        '"worst_gap":4,"bound":8,"violated":false}\n'
    )


def test_f_both_violation_exit_code(capsys, monkeypatch):
    # f(1) = 1, so an oracle answer of 4 lies above the certificate's hit
    monkeypatch.setattr("tmwitness.oracle.f_exact", lambda k: k + 3)
    code, out, err = invoke(capsys, "f", "1", "--method", "both")
    assert (code, out) == (3, "")
    assert "oracle and construction disagree at k=1" in err


def test_scan_violation_exit_code(capsys, plant):
    plant(fs={3: 5})  # k + 2
    code, _, err = invoke(capsys, "scan", "--from", "3", "--to", "3", "--jobs", "1")
    assert code == 3
    assert "theorem violation" in err


@pytest.mark.parametrize("k, least", [(17, 15), (63, 5)])
def test_scan_member_without_its_gap_exit_code(capsys, plant, k, least):
    # each planted minimum is at most k's constructed hit, so only the gap table catches it
    plant(fs={k: least})
    code, out, err = invoke(capsys, "scan", "--from", "1", "--to", "64", "--jobs", "1")
    assert code == 3
    assert f"characterization breached at k={k}" in err
    assert f"\n{{\"k\":{k}," not in out


@pytest.mark.parametrize("argv", [("witness", "3"), ("scan", "--from", "3", "--to", "3", "--jobs", "1")])
def test_dud_candidate_exit_code(capsys, monkeypatch, argv):
    # doubling keeps k = 3's even weight, so the only candidate misses
    monkeypatch.setattr("tmwitness.witness.construct_candidates", lambda k, case, params: ((2,), None))
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (3, "")
    assert "no constructed candidate" in err


@pytest.mark.parametrize(
    "argv",
    [
        [],
        ["f"],
        ["f", "0"],
        ["f", "-5"],
        ["tm", "-1"],
        ["f", "3", "--method", "psychic"],
        ["scan", "--from", "5", "--to", "4"],
        ["scan", "--from", "1"],
        ["freq", "--k", "1", "--samples", "0"],
        ["nonsense"],
        ["f", "3", "--unknown-flag"],
        ["weights", "--r-from", "10", "--r-to", "5", "--bit-limit", "8"],
    ],
)
def test_usage_errors(capsys, argv):
    code, _, _ = invoke(capsys, *argv)
    assert code == 2


@pytest.mark.parametrize(
    ("argv", "text"),
    [(["tm", "abc"], "abc"), (["sdigits", "--base", "abc", "5"], "abc"), (["witness", "xyz"], "xyz")],
)
def test_non_numeric_argument_says_invalid_int(capsys, argv, text):
    code, out, err = invoke(capsys, *argv)
    assert (code, out) == (2, "")
    assert f"invalid int value: {text!r}" in err


# None marks where the huge argument goes
@pytest.mark.parametrize(
    "argv",
    [
        ["witness", None],
        ["tm", None],
        ["scan", "--from", "1", "--to", None],
        ["sdigits", "--base", None, "5"],
        ["weights", "--r-from", None, "--r-to", "5", "--bit-limit", "8"],
        ["weights", "--r-from", "4", "--r-to", None, "--bit-limit", "8"],
        ["genbase", "--base", None, "--mod", "2", "--class", "1", "--k", "7"],
        ["genbase", "--base", "10", "--mod", None, "--class", "1", "--k", "7"],
        ["genbase", "--base", "10", "--mod", "2", "--class", None, "--k", "7"],
        ["genbase", "--base", "10", "--mod", "2", "--class", "1", "--k", "7", "--residue", None],
        ["conjecture", "--base", None, "--mod", "2", "--class", "1", "--max", "64"],
        ["conjecture", "--base", "2", "--mod", None, "--class", "1", "--max", "64"],
        ["conjecture", "--base", "2", "--mod", "2", "--class", None, "--max", "64"],
    ],
)
def test_argument_past_the_digit_limit_is_refused_briefly(capsys, argv):
    # 2^15000 - 1 has 4,516 decimal digits, past CPython's int-from-text limit
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        text = str(2**15000 - 1)
    finally:
        sys.set_int_max_str_digits(limit)
    code, out, err = invoke(capsys, *[text if arg is None else arg for arg in argv])
    assert (code, out) == (2, "")
    assert len(err.encode()) < 300
    assert text[:20] not in err
    assert f"limited to {limit:,} digits" in err


def package_env() -> dict:
    """The environment with the package under test first on PYTHONPATH."""
    source_root = str(Path(tmwitness.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source_root, inherited])))


def fresh_process(*args):
    """Run a fresh interpreter with args, importing the package under test."""
    return subprocess.run([sys.executable, *args], capture_output=True, text=True, timeout=60, env=package_env())


def module_process(*argv):
    """Run `python -m tmwitness` in a fresh process on the package under test."""
    return fresh_process("-m", "tmwitness", *argv)


def test_console_script_end_to_end():
    # the installed `tmwitness` script is pip's wrapper around cli.main, the
    # same call `python -m tmwitness` makes; the declaration itself is pinned
    # by test_console_script_declared
    done = module_process("tm", "5")
    assert done.returncode == 0
    assert done.stdout == '{"n":5,"t":0}\n'
    assert done.stderr == ""
    assert module_process("f", "0").returncode == 2


def modules_loaded_by(code: str) -> set[str]:
    """The modules a fresh interpreter loads to run code, past those it started with.

    The interpreter's own start, such as site, may load some of the modules
    asked about, so only the ones code adds count.
    """
    done = fresh_process("-c", f"import sys\nbefore = set(sys.modules)\n{code}\nprint(*set(sys.modules) - before)")
    assert done.returncode == 0, done.stderr
    return set(done.stdout.splitlines()[-1].split())


_POOL = {"concurrent.futures", "multiprocessing", "dataclasses"}
_LIBRARY = {"argparse", "json", "logging", *_POOL}  # a library import loads no CLI parser, pool or logging
_SCAN_MODULES = {"cli", "digitcore", "witness", "oracle", "scanner"}


def _run(*argv):
    return f"from tmwitness.cli import run\nassert run({list(argv)!r}) == 0"


# each entry point: the code a fresh interpreter runs, the tmwitness modules it
# loads (all of them), and other modules it must load and must not
_ENTRY_POINTS = [
    ("import tmwitness", set(), set(), _LIBRARY),
    ("from tmwitness import certify", {"digitcore", "witness"}, set(), _LIBRARY),
    # cli and its four names load it on first use, also through import *
    (
        "import tmwitness\nassert tmwitness.cli.run is tmwitness.run\n"
        "from tmwitness import *\nassert main is tmwitness.cli.main",
        {"cli", "digitcore", "witness", "oracle", "scanner", "genbase"}, {"argparse"}, _POOL,
    ),
    (_run("tm", "5"), {"cli", "digitcore"}, set(), {"fractions", *_POOL}),
    (_run("witness", "51"), {"cli", "digitcore", "witness"}, set(), _POOL),
    # --method both holds the oracle to the certificate without the scan
    (_run("f", "51"), {"cli", "digitcore", "witness", "oracle"}, set(), _POOL),
    # 1..5000 is three tasks, which forked workers run, so it loads no pool either
    (_run("scan", "--from", "1", "--to", "5000", "--jobs", "2", "--csv", "{csv}"), _SCAN_MODULES, set(),
     {"fractions", *_POOL}),
    (_run("freq", "--k", "3", "--samples", "1000"), _SCAN_MODULES, {"fractions"}, _POOL),
]


def test_imports_stay_lazy(tmp_path):
    for code, ours, present, absent in _ENTRY_POINTS:
        loaded = modules_loaded_by(code.replace("{csv}", str(tmp_path / "scan.csv")))
        assert {name.removeprefix("tmwitness.") for name in loaded if name.startswith("tmwitness.")} == ours, code
        assert present <= loaded, code
        assert not loaded & absent, code


def test_no_entry_point_loads_typing(tmp_path):
    # under -S, as site may load typing itself, through a .pth file
    for code, *_ in _ENTRY_POINTS:
        code = code.replace("{csv}", str(tmp_path / "scan.csv"))
        done = fresh_process("-S", "-c", f"{code}\nimport sys\nprint('typing' in sys.modules)")
        assert (done.returncode, done.stdout.splitlines()[-1:]) == (0, ["False"]), (code, done.stderr)


def test_star_import_binds_the_public_names_alone():
    done = fresh_process("-c", "before = set(globals())\nfrom tmwitness import *\n"
                         "print(*sorted(set(globals()) - before - {'before'}))")
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == _PUBLIC


def test_dir_lists_every_public_name():
    done = fresh_process("-c", "import tmwitness\nprint(*dir(tmwitness))")
    assert done.returncode == 0, done.stderr
    names = done.stdout.split()
    assert {*_PUBLIC, "cli", "digitcore", "genbase", "oracle", "scanner", "witness"} <= set(names)
    assert len(set(names)) == len(names)


def test_unknown_name_is_an_attribute_error_naming_the_package():
    with pytest.raises(AttributeError, match="module 'tmwitness' has no attribute 'certfy'"):
        tmwitness.certfy
    assert not hasattr(tmwitness, "certfy")
    assert not hasattr(tmwitness, "__wrapped__")


def test_a_resolved_name_is_bound_on_the_package():
    done = fresh_process("-c", "import tmwitness\nassert 'certify' not in vars(tmwitness)\n"
                         "certify = tmwitness.certify\nassert vars(tmwitness)['certify'] is certify\n"
                         "assert certify is tmwitness.witness.certify")
    assert done.returncode == 0, done.stderr


# each subcommand in a fresh process, as the in-process tests run with oracle
# and scanner already loaded by conftest and so cannot see an import a command misses
@pytest.mark.parametrize(
    "argv, out",
    [
        ("tm 7", '{"n":7,"t":1}\n'),
        ("sdigits --base 10 119759", '{"base":10,"n":119759,"digit_sum":32}\n'),
        *[(f"f 51 --method {method}", '{"k":51,"f":7,"gap":-44,"case":"Lemma6_tEqU_U2u1_one"}\n')
          for method in ("oracle", "constructive", "both")],
        ("witness 7", '{"k_input":7,"k_odd":7,"shift":0,"case":"AllOnesOddLen","params":{"length":3},'
                      '"candidates":[1],"guarantee":"direct","verified_hit":1}\n'),
        ("zeromin 7", '{"k":7,"zero_min":9}\n'),
        ("scan --from 3 --to 6 --jobs 2",
         '{"k":3,"f":7,"gap":4,"case":"AllOnesEvenLen","witness":7,"witness_weight":3,"zero_min":1,'
         '"flags":["GapEquals4"]}\n'
         '{"k":4,"f":1,"gap":-3,"case":"AllOnesOddLen","witness":1,"witness_weight":1,"zero_min":3,"flags":[]}\n'
         '{"k":5,"f":5,"gap":0,"case":"Lemma1","witness":5,"witness_weight":2,"zero_min":1,"flags":["GapEquals0"]}\n'
         '{"k":6,"f":7,"gap":1,"case":"AllOnesEvenLen","witness":7,"witness_weight":3,"zero_min":1,'
         '"flags":["GapEquals1"]}\n'),
        ("weights --r-from 4 --r-to 5 --bit-limit 24",
         '{"r":4,"k":51,"counterexample":null}\n{"r":5,"k":99,"counterexample":null}\n'),
        ("freq --k 3 --samples 100", '{"k":3,"sample_count":100,"ones_numerator":21,"ones_denominator":100}\n'),
        ("genbase --base 2 --mod 2 --class 1 --k 3",
         '{"base":2,"mod":2,"class":1,"k":3,"residue":null,"method":"both","constructed":7,"minimum":7}\n'),
        ("genbase --base 2 --mod 2 --class 1 --k 3 --residue 0",
         '{"base":2,"mod":2,"class":1,"k":3,"residue":0,"method":"construct","constructed":84}\n'),
        ("conjecture --base 2 --mod 2 --class 1 --max 64",
         '{"base":2,"modulus":2,"digit_class":1,"k_max":64,"worst_k":3,"worst_gap":4,"bound":8,'
         '"violated":false}\n'),
    ],
)
def test_every_subcommand_in_a_fresh_process(argv, out):
    done = module_process(*argv.split())
    assert (done.returncode, done.stdout, done.stderr) == (0, out, "")


def test_scan_csv_over_an_existing_file_in_a_fresh_process(tmp_path):
    # the replaced file keeps its mode, through the shutil that _write_csv loads
    path = tmp_path / "scan.csv"
    path.write_text("old\n")
    path.chmod(0o640)
    done = module_process("scan", "--from", "3", "--to", "6", "--jobs", "2", "--csv", str(path))
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert path.read_text() == (
        "k,f,gap,case,witness,witness_weight,zero_min,flags\n3,7,4,AllOnesEvenLen,7,3,1,GapEquals4\n"
        "4,1,-3,AllOnesOddLen,1,1,3,\n5,5,0,Lemma1,5,2,1,GapEquals0\n6,7,1,AllOnesEvenLen,7,3,1,GapEquals1\n"
    )
    assert path.stat().st_mode & 0o777 == 0o640


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="needs process groups")
def test_an_interrupted_scan_ends_in_one_line_and_dies_by_sigint(tmp_path):
    # SIGINT to the scan's process group, as a terminal's Ctrl-C sends it, once a
    # block of rows is in the temporary file, so the workers are running
    path = tmp_path / "scan.csv"
    path.write_bytes(b"earlier contents\n")
    header = len(",".join(scanner.THEOREM_HEADER)) + 1
    argv = [sys.executable, "-m", "tmwitness", "scan", "--from", "1", "--to", "4194304", "--jobs", "2", "--csv", path]
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, env=package_env(),
                          start_new_session=True) as scan:
        deadline = time.monotonic() + 60
        while not any(file.suffix == ".tmp" and file.stat().st_size > header for file in tmp_path.iterdir()):
            assert scan.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        os.killpg(scan.pid, signal.SIGINT)
        out, err = scan.communicate(timeout=60)
    assert (scan.returncode, out, err) == (-signal.SIGINT, "", "interrupted\n")
    assert path.read_bytes() == b"earlier contents\n"
    assert [file.name for file in tmp_path.iterdir()] == ["scan.csv"]
    with pytest.raises(ProcessLookupError):  # no worker is left in the scan's process group
        os.killpg(scan.pid, 0)


# the package's public names: its five modules' __all__ and cli's four
_PUBLIC = [
    "CaseLabel", "ConjectureReport", "FrequencyRecord", "GenBaseQuery", "RunDecomposition", "ScanRecord",
    "THEOREM_HEADER", "TheoremViolationError", "UnsupportedCaseError", "WeightFamilyRecord", "WitnessCertificate",
    "certify", "classify", "conjecture_scan", "construct_candidates", "corollary_construct", "emit_csv",
    "f_and_zero_mins", "f_exact", "frequency", "g_min", "lower_slice", "main", "min_weight_witness",
    "parse_certificate", "prop_construct", "reduce_to_odd", "run", "run_decompose", "scan_theorem",
    "scan_weight_family", "serialize_certificate", "shifted_difference_digit_sum", "sum_digits", "thue_morse",
    "to_word", "upper_slice", "verify", "word_shape", "zero_min",
]


def test_package_exports_each_public_name_once():
    assert sorted(tmwitness.__all__) == _PUBLIC
    assert len(set(tmwitness.__all__)) == len(tmwitness.__all__)
    modules = tmwitness.digitcore, tmwitness.genbase, tmwitness.oracle, tmwitness.scanner, tmwitness.witness, cli
    for name in tmwitness.__all__:
        (module,) = [module for module in modules if name in module.__all__]
        assert getattr(tmwitness, name) is getattr(module, name)


def test_console_script_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"tmwitness": "tmwitness.cli:main"}


_SAFE = 2**53 - 1
_K80 = 2**80 + 1  # f(k) = k here, so it goes to constructive paths only
_B53 = 2**53 + 1


def _encode_int(value: int):
    return value if abs(value) <= _SAFE else str(value)


def _reference_emit(payload: dict) -> str:
    """The flat-payload emitter before cli._object: ints past 2^53 - 1 as strings, then JSONEncoder."""
    return json.JSONEncoder(separators=(",", ":")).encode(
        {name: _encode_int(v) if isinstance(v, int) else v for name, v in payload.items()}
    )


_EDGES = [sign * (2**53 + offset) for sign in (1, -1) for offset in (-2, -1, 0, 1, 2)]
_PAYLOAD_VALUES = st.one_of(
    st.sampled_from([0, *_EDGES]),
    st.integers(-(2**200), 2**200),
    st.sampled_from([None, True, False]),
    st.sampled_from([case.name for case in CaseLabel]),
    st.lists(st.sampled_from(["GapEquals0", "GapEquals1", "GapEquals4"]), max_size=3).map(tuple),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.from_regex(r"[a-z_][a-z0-9_]{0,11}", fullmatch=True), _PAYLOAD_VALUES))
def test_object_matches_reference_emitter(payload):
    assert cli._object(payload.items()) == _reference_emit(payload)


def _numbers(value):
    if isinstance(value, dict):
        return [n for item in value.values() for n in _numbers(item)]
    if isinstance(value, list):
        return [n for item in value for n in _numbers(item)]
    return [value] if isinstance(value, int) and not isinstance(value, bool) else []


@pytest.mark.parametrize(
    "argv, strings",
    [
        (("tm", str(_K80)), [{"n": _K80}]),
        (("sdigits", "--base", str(_B53), "5"), [{"base": _B53}]),
        (("f", str(_K80), "--method", "constructive"), [{"k": _K80, "f": _K80}]),
        (("zeromin", str(_K80)), [{"k": _K80}]),
        (
            ("scan", "--from", str(2**60), "--to", str(2**60), "--jobs", "1"),
            [{"k": 2**60, "gap": 1 - 2**60}],
        ),
        (
            ("scan", "--from", str(2**60 + 3), "--to", str(2**60 + 3), "--jobs", "1"),
            [{"k": 2**60 + 3, "gap": -(2**60 + 2)}],
        ),
        (
            ("weights", "--r-from", "60", "--r-to", "61", "--bit-limit", "6"),
            [{"k": 3 * 2**60 + 3}, {"k": 3 * 2**61 + 3}],
        ),
        (("freq", "--k", str(_K80), "--samples", "5"), [{"k": _K80}]),
        (
            ("genbase", "--base", str(_B53), "--mod", "1", "--class", "0", "--k", "1"),
            [{"base": _B53, "constructed": _B53 - 1}],
        ),
        (
            ("conjecture", "--base", str(_B53), "--mod", "1", "--class", "0", "--max", "2"),
            [{"base": _B53, "bound": _B53}],
        ),
    ],
    ids=["tm", "sdigits", "f", "zeromin", "scan-even", "scan-odd", "weights", "freq", "genbase",
         "conjecture"],
)
def test_every_command_strings_ints_past_2_to_53(capsys, argv, strings):
    code, out, err = invoke(capsys, *argv)
    assert (code, err) == (0, "")
    payloads = [json.loads(line) for line in out.splitlines()]
    assert len(payloads) == len(strings)
    for payload, expected in zip(payloads, strings):
        assert all(abs(number) <= _SAFE for number in _numbers(payload))
        stringified = {
            name: int(value)
            for name, value in payload.items()
            if isinstance(value, str) and value.lstrip("-").isdigit()
        }
        assert stringified == expected
