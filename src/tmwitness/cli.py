"""Command-line surface: every operation, machine-readable output, strict flags.

Output is JSON on standard output (one object, or one object per line for
scans), with CSV reserved for bulk scan output via --csv. Integers larger
than 2^53 - 1 are rendered as decimal strings so double-precision JSON
consumers are never silently corrupted; parsers here accept both forms.

Exit codes: 0 success, 1 I/O error, 2 usage error, 3 theorem-violation abort.
"""

import argparse
import json
import os
import sys
from dataclasses import asdict
from typing import Any, Sequence

from . import genbase, oracle, scanner, witness
from .digitcore import TheoremViolationError, reduce_to_odd, sum_digits, thue_morse

__all__ = ["run", "main", "serialize_certificate", "parse_certificate"]

_JSON_SAFE_MAX = 2**53 - 1


def _encode_int(value: int):
    return value if abs(value) <= _JSON_SAFE_MAX else str(value)


def _decode_int(value) -> int:
    return int(value) if isinstance(value, str) else value


# one compact encoder for every payload; json.dumps would build a new one per call
_dump = json.JSONEncoder(separators=(",", ":")).encode


def serialize_certificate(certificate: witness.WitnessCertificate) -> str:
    """Stable-order JSON for a certificate.

    Field order is fixed: k_input, k_odd, shift, case, params, candidates,
    guarantee, verified_hit. The guarantee is the string "direct" for a
    single-candidate claim or {"triple": m} with the pivot multiplier.
    """
    if certificate.triple_pivot is None:
        guarantee: Any = "direct"
    else:
        guarantee = {"triple": _encode_int(certificate.triple_pivot)}
    return _dump(
        {
            "k_input": _encode_int(certificate.k_input),
            "k_odd": _encode_int(certificate.k_odd),
            "shift": certificate.shift,
            "case": certificate.case.name,
            "params": {name: _encode_int(value) for name, value in certificate.params.items()},
            "candidates": [_encode_int(c) for c in certificate.candidates],
            "guarantee": guarantee,
            "verified_hit": _encode_int(certificate.verified_hit),
        }
    )


def parse_certificate(text: str) -> witness.WitnessCertificate:
    """Inverse of serialize_certificate; accepts bare and string-encoded integers."""
    raw = json.loads(text)
    guarantee = raw["guarantee"]
    pivot = None if guarantee == "direct" else _decode_int(guarantee["triple"])
    return witness.WitnessCertificate(
        k_input=_decode_int(raw["k_input"]),
        k_odd=_decode_int(raw["k_odd"]),
        shift=raw["shift"],
        case=witness.CaseLabel[raw["case"]],
        params={name: _decode_int(value) for name, value in raw["params"].items()},
        candidates=tuple(_decode_int(c) for c in raw["candidates"]),
        triple_pivot=pivot,
        verified_hit=_decode_int(raw["verified_hit"]),
    )


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tmwitness",
        description="Small witnesses for odd binary weight along multiples of k, "
        "with oracles, digit-class generalizations, and range scans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("tm", help="weight parity of n")
    cmd.add_argument("n", type=_natural)

    cmd = sub.add_parser("sdigits", help="digit sum of n in a base")
    cmd.add_argument("--base", type=int, required=True)
    cmd.add_argument("n", type=_natural)

    cmd = sub.add_parser("f", help="least n whose product with k has odd weight")
    cmd.add_argument("k", type=_positive)
    cmd.add_argument(
        "--method",
        choices=("oracle", "constructive", "both"),
        default="both",
        help="oracle: brute force the minimum; constructive: certificate hit; "
        "both: brute force cross-checked against the certificate (default)",
    )

    cmd = sub.add_parser("witness", help="verified witness certificate for k")
    cmd.add_argument("k", type=_positive)

    cmd = sub.add_parser("zeromin", help="least n whose product with k has even weight")
    cmd.add_argument("k", type=_positive)

    cmd = sub.add_parser("scan", help="verified per-k records over a range")
    cmd.add_argument("--from", dest="k_min", type=_positive, required=True)
    cmd.add_argument("--to", dest="k_max", type=_positive, required=True)
    cmd.add_argument("--csv", dest="csv_path", help="write CSV to this path instead of JSON lines")
    cmd.add_argument("--jobs", type=_positive, default=_usable_cpus())

    cmd = sub.add_parser("weights", help="sparse-multiplier sweep over k = 3*2^r + 3")
    cmd.add_argument("--r-from", dest="exponent_min", type=int, required=True)
    cmd.add_argument("--r-to", dest="exponent_max", type=int, required=True)
    cmd.add_argument("--bit-limit", dest="bit_limit", type=_positive, required=True)

    cmd = sub.add_parser("freq", help="exact hit frequency over an initial segment")
    cmd.add_argument("--k", type=_positive, required=True)
    cmd.add_argument("--samples", type=_positive, required=True)

    cmd = sub.add_parser("genbase", help="digit-class witness in an arbitrary base")
    cmd.add_argument("--base", type=int, required=True)
    cmd.add_argument("--mod", dest="modulus", type=int, required=True)
    cmd.add_argument("--class", dest="digit_class", type=int, required=True)
    cmd.add_argument("--k", type=_positive, required=True)
    cmd.add_argument("--residue", type=int, default=None)
    cmd.add_argument("--method", choices=("construct", "oracle", "both"), default=None)

    cmd = sub.add_parser("conjecture", help="scan the witness gap against the heuristic bound")
    cmd.add_argument("--base", type=int, required=True)
    cmd.add_argument("--mod", dest="modulus", type=int, required=True)
    cmd.add_argument("--class", dest="digit_class", type=int, required=True)
    cmd.add_argument("--max", dest="k_max", type=_positive, required=True)

    return parser


def _emit(payload: dict) -> None:
    """Print a flat payload as one compact JSON line, each int past 2^53 - 1 as a string.

    bools and None pass through: _encode_int returns a bool as it is.
    """
    print(_dump({name: _encode_int(v) if isinstance(v, int) else v for name, v in payload.items()}))


def _run_f(args) -> int:
    if args.method == "oracle":
        value = oracle.f_exact(args.k)
        case = witness.classify(reduce_to_odd(args.k)[0])[0]
    elif args.method == "constructive":
        certificate = witness.certify(args.k)
        value, case = certificate.verified_hit, certificate.case
    else:
        value, certificate = scanner.checked_least(args.k)
        case = certificate.case
    _emit({"k": args.k, "f": value, "gap": value - args.k, "case": case.name})
    return 0


def _run_genbase(args) -> int:
    method = args.method
    if args.residue is not None:
        if method in ("oracle", "both"):
            raise ValueError("a pinned residue supports --method construct only")
        method = "construct"
    elif method is None:
        method = "both"
    query = genbase.GenBaseQuery(args.base, args.modulus, args.digit_class, args.k, args.residue)
    payload = {
        "base": args.base,
        "mod": query.modulus,
        "class": query.digit_class,
        "k": args.k,
        "residue": args.residue,
        "method": method,
    }
    if args.residue is not None:
        payload["constructed"] = genbase.corollary_construct(query)
    else:
        if method in ("construct", "both"):
            payload["constructed"] = genbase.prop_construct(query)
        if method in ("oracle", "both"):
            payload["minimum"] = oracle.g_min(query)
        if method == "both" and payload["minimum"] > payload["constructed"]:
            raise TheoremViolationError(
                f"oracle minimum {payload['minimum']} exceeds "
                f"constructed witness {payload['constructed']}"
            )
    _emit(payload)
    return 0


def _dispatch(args) -> int:
    if args.command == "tm":
        _emit({"n": args.n, "t": thue_morse(args.n)})
    elif args.command == "sdigits":
        _emit({"base": args.base, "n": args.n, "digit_sum": sum_digits(args.base, args.n)})
    elif args.command == "f":
        return _run_f(args)
    elif args.command == "witness":
        print(serialize_certificate(witness.certify(args.k)))
    elif args.command == "zeromin":
        _emit({"k": args.k, "zero_min": oracle.zero_min(args.k)})
    elif args.command == "scan":
        rows = scanner.scan_rows(args.k_min, args.k_max, jobs=args.jobs)
        if args.csv_path:
            scanner.emit_csv(rows, args.csv_path)
        else:
            # the flags tuple encodes as a JSON array
            for row in rows:
                _emit(dict(zip(scanner.THEOREM_HEADER, row)))
    elif args.command == "weights":
        for record in scanner.scan_weight_family(args.exponent_min, args.exponent_max, args.bit_limit):
            _emit({"r": record.exponent, "k": record.k, "counterexample": record.counterexample})
    elif args.command == "freq":
        record = scanner.frequency(args.k, args.samples)
        fraction = record.ones_frequency
        _emit(
            {
                "k": record.k,
                "sample_count": record.sample_count,
                "ones_numerator": fraction.numerator,
                "ones_denominator": fraction.denominator,
            }
        )
    elif args.command == "genbase":
        return _run_genbase(args)
    elif args.command == "conjecture":
        report = genbase.conjecture_scan(args.base, args.modulus, args.digit_class, args.k_max)
        _emit(asdict(report))  # the report's field order is the payload's key order
    else:
        raise AssertionError(f"unhandled command {args.command}")
    return 0


def run(argv: Sequence[str] | None = None) -> int:
    """Parse argv and execute; returns the process exit code instead of exiting."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as stop:
        code = stop.code
        return code if isinstance(code, int) else 2
    try:
        return _dispatch(args)
    except TheoremViolationError as violation:
        print(f"theorem violation: {violation}", file=sys.stderr)
        return 3
    except ValueError as bad:
        print(f"error: {bad}", file=sys.stderr)
        return 2
    except OSError as failure:
        print(f"i/o error: {failure}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))
