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
from typing import Any, Sequence

from . import genbase, oracle, scanner, witness
from .digitcore import TheoremViolationError, sum_digits, thue_morse

__all__ = ["run", "main", "serialize_certificate", "parse_certificate"]

_JSON_SAFE_MAX = 2**53 - 1


def _encode_int(value: int):
    return value if abs(value) <= _JSON_SAFE_MAX else str(value)


def _decode_int(value) -> int:
    return int(value) if isinstance(value, str) else value


def _dump(payload: Any) -> str:
    return json.dumps(payload, separators=(",", ":"))


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


def _scan_payload(record: scanner.ScanRecord) -> dict:
    return {
        "k": _encode_int(record.k),
        "f": _encode_int(record.f),
        "gap": _encode_int(record.gap),
        "case": record.case.name,
        "witness": _encode_int(record.witness),
        "witness_weight": record.witness_weight,
        "zero_min": None if record.zero_min is None else _encode_int(record.zero_min),
        "flags": sorted(record.flags),
    }


def _run_f(args) -> int:
    if args.method == "oracle":
        value = oracle.f_exact(args.k)
        case = witness.classify(witness.reduce_to_odd(args.k)[0])[0]
    else:
        certificate = witness.certify(args.k)
        case = certificate.case
        if args.method == "constructive":
            value = certificate.verified_hit
        else:
            value = oracle.f_exact(args.k)
            if not value <= certificate.verified_hit <= certificate.k_odd + 4:
                raise TheoremViolationError(
                    f"oracle {value} vs construction {certificate.verified_hit} at k={args.k}"
                )
    print(
        _dump(
            {
                "k": _encode_int(args.k),
                "f": _encode_int(value),
                "gap": _encode_int(value - args.k),
                "case": case.name,
            }
        )
    )
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
        "k": _encode_int(args.k),
        "residue": None if args.residue is None else _encode_int(args.residue),
        "method": method,
    }
    if args.residue is not None:
        payload["constructed"] = _encode_int(genbase.corollary_construct(query))
    else:
        constructed = minimum = None
        if method in ("construct", "both"):
            constructed = genbase.prop_construct(query)
            payload["constructed"] = _encode_int(constructed)
        if method in ("oracle", "both"):
            minimum = oracle.g_min(query)
            payload["minimum"] = _encode_int(minimum)
        if constructed is not None and minimum is not None and minimum > constructed:
            raise TheoremViolationError(
                f"oracle minimum {minimum} exceeds constructed witness {constructed}"
            )
    print(_dump(payload))
    return 0


def _dispatch(args) -> int:
    if args.command == "tm":
        print(_dump({"n": _encode_int(args.n), "t": thue_morse(args.n)}))
        return 0
    if args.command == "sdigits":
        print(
            _dump(
                {
                    "base": args.base,
                    "n": _encode_int(args.n),
                    "digit_sum": _encode_int(sum_digits(args.base, args.n)),
                }
            )
        )
        return 0
    if args.command == "f":
        return _run_f(args)
    if args.command == "witness":
        print(serialize_certificate(witness.certify(args.k)))
        return 0
    if args.command == "zeromin":
        value = oracle.zero_min(args.k)
        print(
            _dump({"k": _encode_int(args.k), "zero_min": None if value is None else _encode_int(value)})
        )
        return 0
    if args.command == "scan":
        records = scanner.scan_theorem(args.k_min, args.k_max, jobs=args.jobs)
        if args.csv_path:
            scanner.emit_csv(records, args.csv_path)
        else:
            for record in records:
                print(_dump(_scan_payload(record)))
        return 0
    if args.command == "weights":
        for record in scanner.scan_weight_family(args.exponent_min, args.exponent_max, args.bit_limit):
            print(
                _dump(
                    {
                        "r": record.exponent,
                        "k": _encode_int(record.k),
                        "counterexample": None
                        if record.counterexample is None
                        else _encode_int(record.counterexample),
                    }
                )
            )
        return 0
    if args.command == "freq":
        record = scanner.frequency(args.k, args.samples)
        print(
            _dump(
                {
                    "k": _encode_int(record.k),
                    "sample_count": _encode_int(record.sample_count),
                    "ones_numerator": _encode_int(record.ones_frequency.numerator),
                    "ones_denominator": _encode_int(record.ones_frequency.denominator),
                }
            )
        )
        return 0
    if args.command == "genbase":
        return _run_genbase(args)
    if args.command == "conjecture":
        report = genbase.conjecture_scan(args.base, args.modulus, args.digit_class, args.k_max)
        print(
            _dump(
                {
                    "base": report.base,
                    "modulus": report.modulus,
                    "digit_class": report.digit_class,
                    "k_max": _encode_int(report.k_max),
                    "worst_k": _encode_int(report.worst_k),
                    "worst_gap": _encode_int(report.worst_gap),
                    "bound": _encode_int(report.bound),
                    "violated": report.violated,
                }
            )
        )
        return 0
    raise AssertionError(f"unhandled command {args.command}")


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
