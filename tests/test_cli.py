"""Command-line contract: exact output bytes, exit codes, JSON round-trips."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tmwitness
from tmwitness.cli import _build_parser, parse_certificate, run, serialize_certificate
from tmwitness.witness import certify


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


def test_zeromin_overflow_is_null(capsys, monkeypatch):
    monkeypatch.setattr("tmwitness.oracle.zero_min", lambda k: None)
    assert invoke(capsys, "zeromin", "7")[1] == '{"k":7,"zero_min":null}\n'


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


def test_scan_jobs_deterministic(capsys):
    one = invoke(capsys, "scan", "--from", "1", "--to", "60", "--jobs", "1")[1]
    four = invoke(capsys, "scan", "--from", "1", "--to", "60", "--jobs", "4")[1]
    assert one == four


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


def test_genbase_gcd_violation_is_usage_error(capsys):
    code, _, err = invoke(capsys, "genbase", "--base", "3", "--mod", "2", "--class", "1", "--k", "5")
    assert code == 2
    assert "gcd" in err


def test_genbase_violation_exit_code(capsys, monkeypatch):
    monkeypatch.setattr("tmwitness.oracle.g_min", lambda query: 10**9)
    code, _, err = invoke(capsys, "genbase", "--base", "2", "--mod", "2", "--class", "1", "--k", "3")
    assert code == 3
    assert "theorem violation" in err


def test_conjecture(capsys):
    code, out, _ = invoke(capsys, "conjecture", "--base", "2", "--mod", "2", "--class", "1",
                          "--max", "64")
    assert code == 0
    assert out == (
        '{"base":2,"modulus":2,"digit_class":1,"k_max":64,"worst_k":3,'
        '"worst_gap":4,"bound":8,"violated":false}\n'
    )


def test_scan_violation_exit_code(capsys, monkeypatch):
    monkeypatch.setattr("tmwitness.scanner.oracle.f_exact", lambda k: k + 2)
    code, _, err = invoke(capsys, "scan", "--from", "3", "--to", "3", "--jobs", "1")
    assert code == 3
    assert "theorem violation" in err


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
    ],
)
def test_usage_errors(capsys, argv):
    code, _, _ = invoke(capsys, *argv)
    assert code == 2


def module_process(*argv):
    """Run `python -m tmwitness` in a fresh process on the package under test."""
    source_root = str(Path(tmwitness.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [source_root, inherited])))
    return subprocess.run(
        [sys.executable, "-m", "tmwitness", *argv],
        capture_output=True,
        text=True,
        timeout=60,
        env=env,
    )


def test_console_script_end_to_end():
    # the installed `tmwitness` script is pip's wrapper around cli.main, the
    # same call `python -m tmwitness` makes; the declaration itself is pinned
    # by test_console_script_declared
    done = module_process("tm", "5")
    assert done.returncode == 0
    assert done.stdout == '{"n":5,"t":0}\n'
    assert done.stderr == ""
    assert module_process("f", "0").returncode == 2


def test_console_script_declared():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as handle:
        scripts = tomllib.load(handle)["project"]["scripts"]
    assert scripts == {"tmwitness": "tmwitness.cli:main"}
