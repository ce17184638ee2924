"""Command-line surface: every operation, machine-readable output, strict flags.

Output is JSON on standard output (one object, or one object per line for
scans), with CSV reserved for bulk scan output via --csv. Integers larger
than 2^53 - 1 are rendered as decimal strings so double-precision JSON
consumers are never silently corrupted; parsers here accept both forms.

Exit codes: 0 success, 1 I/O error, 2 usage error, 3 theorem-violation abort. An
interrupt prints one stderr line and ends the process by SIGINT.
"""

import argparse
import gc
import json
import os
import sys
from collections.abc import Sequence

# each command imports the sibling modules it runs, so `tm 5` loads neither the oracles nor the scan
from .digitcore import TheoremViolationError, frequency, reduce_to_odd, sum_digits, thue_morse

__all__ = ["run", "main", "serialize_certificate", "parse_certificate"]

_JSON_SAFE_MAX = 2**53 - 1


def _decode_int(value) -> int:
    return int(value) if isinstance(value, str) else value


# one compact encoder for every value but an int; json.dumps would build a new one per call
_dump = json.JSONEncoder(separators=(",", ":")).encode


def _int_text(value: int) -> str:
    return str(value) if abs(value) <= _JSON_SAFE_MAX else f'"{value}"'


def _object(pairs) -> str:
    """Flat JSON object of identifier-named pairs: ints (not bools) by _int_text, the rest by _dump."""
    # type(v) is int, not isinstance: a bool is an int, and the check is cheaper
    return "{" + ",".join([
        f'"{name}":{_int_text(v) if type(v) is int else _dump(v)}' for name, v in pairs
    ]) + "}"


def serialize_certificate(certificate: "WitnessCertificate") -> str:
    """Compact JSON for any WitnessCertificate, consistent or not, in fixed field order.

    k_input, k_odd, shift, case, params, candidates, guarantee ("direct" or
    {"triple": m}), verified_hit. Ints but shift past 2^53 - 1 in size are strings.
    Each is converted once: k_input reuses k_odd's text, the hit or pivot a
    candidate's, on equal value. Past CPython's 4,300-digit int limit: ValueError.
    """
    c, values, pivot = certificate, certificate.candidates, certificate.triple_pivot
    k_odd, texts = _int_text(c.k_odd), [_int_text(value) for value in values]
    hit = texts[values.index(c.verified_hit)] if c.verified_hit in values else _int_text(c.verified_hit)
    guarantee = '"direct"' if pivot is None else (
        f'{{"triple":{texts[values.index(pivot)] if pivot in values else _int_text(pivot)}}}')
    # case._name_, as the name property is a Python-level call
    return (
        f'{{"k_input":{k_odd if c.k_input == c.k_odd else _int_text(c.k_input)},"k_odd":{k_odd},'
        f'"shift":{c.shift},"case":"{c.case._name_}","params":{_object(c.params.items())},'
        f'"candidates":[{",".join(texts)}],"guarantee":{guarantee},"verified_hit":{hit}}}'
    )


def parse_certificate(text: str) -> "WitnessCertificate":
    """Inverse of serialize_certificate; accepts bare and string-encoded integers."""
    from .witness import CaseLabel, WitnessCertificate

    raw = json.loads(text)
    guarantee = raw["guarantee"]
    pivot = None if guarantee == "direct" else _decode_int(guarantee["triple"])
    return WitnessCertificate(
        k_input=_decode_int(raw["k_input"]),
        k_odd=_decode_int(raw["k_odd"]),
        shift=raw["shift"],
        case=CaseLabel[raw["case"]],
        params={name: _decode_int(value) for name, value in raw["params"].items()},
        candidates=tuple(_decode_int(c) for c in raw["candidates"]),
        triple_pivot=pivot,
        verified_hit=_decode_int(raw["verified_hit"]),
    )


def _integer(text: str) -> int:
    """int(text), refusing an argument past CPython's digit limit by that reason, not by echoing it."""
    try:
        return int(text)
    except ValueError:
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
        if 0 < limit < len(text):
            raise argparse.ArgumentTypeError(
                f"{len(text):,} characters; integer arguments are limited to {limit:,} digits"
            ) from None
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


def _natural(text: str) -> int:
    value = _integer(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be nonnegative")
    return value


def _positive(text: str) -> int:
    value = _integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _file(text: str) -> str:
    if not text:
        raise argparse.ArgumentTypeError("must name a file")
    return text


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
    cmd.add_argument("--base", type=_integer, required=True)
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
    cmd.add_argument("--csv", dest="csv_path", type=_file, help="write CSV to this path instead of JSON lines")
    cmd.add_argument(
        "--jobs",
        type=_positive,
        default=_usable_cpus(),
        help="forked worker processes (default: the usable CPUs); without os.fork "
        "the scan runs in this process and the flag has no effect",
    )

    cmd = sub.add_parser("weights", help="sparse-multiplier sweep over k = 3*2^r + 3")
    cmd.add_argument("--r-from", dest="exponent_min", type=_integer, required=True)
    cmd.add_argument("--r-to", dest="exponent_max", type=_integer, required=True)
    cmd.add_argument("--bit-limit", dest="bit_limit", type=_positive, required=True)

    cmd = sub.add_parser("freq", help="exact hit frequency over an initial segment")
    cmd.add_argument("--k", type=_positive, required=True)
    cmd.add_argument("--samples", type=_positive, required=True)

    cmd = sub.add_parser("genbase", help="digit-class witness in an arbitrary base")
    cmd.add_argument("--base", type=_integer, required=True)
    cmd.add_argument("--mod", dest="modulus", type=_integer, required=True)
    cmd.add_argument("--class", dest="digit_class", type=_integer, required=True)
    cmd.add_argument("--k", type=_positive, required=True)
    cmd.add_argument("--residue", type=_integer, default=None)
    cmd.add_argument("--method", choices=("construct", "oracle", "both"), default=None)

    cmd = sub.add_parser("conjecture", help="scan the witness gap against the heuristic bound")
    cmd.add_argument("--base", type=_integer, required=True)
    cmd.add_argument("--mod", dest="modulus", type=_integer, required=True)
    cmd.add_argument("--class", dest="digit_class", type=_integer, required=True)
    cmd.add_argument("--max", dest="k_max", type=_positive, required=True)

    return parser


def _emit(payload: dict) -> None:
    print(_object(payload.items()))


def _run_f(args) -> int:
    from . import witness

    if args.method == "oracle":
        from . import oracle

        value = oracle.f_exact(args.k)
        case = witness.classify(reduce_to_odd(args.k)[0])[0]
    elif args.method == "constructive":
        certificate = witness.certify(args.k)
        value, case = certificate.verified_hit, certificate.case
    else:
        from . import oracle

        certificate = witness.certify(args.k)
        value, case = oracle.f_exact(args.k), certificate.case
        oracle._check_agreement(args.k, value, certificate.verified_hit)
    _emit({"k": args.k, "f": value, "gap": value - args.k, "case": case.name})
    return 0


def _run_genbase(args) -> int:
    from . import genbase, oracle

    pinned = args.residue is not None
    method = args.method or ("construct" if pinned else "both")
    if pinned and method != "construct":
        raise ValueError("a pinned residue supports --method construct only")
    query = genbase.GenBaseQuery(args.base, args.modulus, args.digit_class, args.k, args.residue)
    payload = {
        "base": args.base,
        "mod": query.modulus,
        "class": query.digit_class,
        "k": args.k,
        "residue": args.residue,
        "method": method,
    }
    if method != "oracle":
        payload["constructed"] = (genbase.corollary_construct if pinned else genbase.prop_construct)(query)
    if method != "construct":
        payload["minimum"] = oracle.g_min(query)
    if method == "both":
        oracle._check_agreement(args.k, payload["minimum"], payload["constructed"])
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
        from . import witness

        print(serialize_certificate(witness.certify(args.k)))
    elif args.command == "zeromin":
        from . import oracle

        _emit({"k": args.k, "zero_min": oracle.zero_min(args.k)})
    elif args.command == "scan":
        from . import scanner

        if args.csv_path:
            scanner.scan_csv(args.k_min, args.k_max, args.csv_path, jobs=args.jobs)
        else:
            # a row's JSON line, keyed by THEOREM_HEADER: the case quoted, every other cell filled as _object writes it
            line = "{%s}\n" % ",".join(
                f'"{name}":"%s"' if name == "case" else f'"{name}":%s' for name in scanner.THEOREM_HEADER)
            for block in scanner._blocks(args.k_min, args.k_max, args.jobs):
                if 2 * block[0][-1] + 1 > _JSON_SAFE_MAX:  # no value of a row passes zero_min <= 2k + 1
                    block = [list(map(_int_text, cells)) if type(cells[0]) is int else cells for cells in block]
                # most rows have no flags, and a _dump call takes about 1 us
                sys.stdout.write(scanner._block_text(block, line, lambda f: _dump(f) if f else "[]"))
    elif args.command == "weights":
        from . import oracle

        for record in oracle.scan_weight_family(args.exponent_min, args.exponent_max, args.bit_limit):
            _emit({"r": record.exponent, "k": record.k, "counterexample": record.counterexample})
    elif args.command == "freq":
        record = frequency(args.k, args.samples)
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
        from . import genbase

        report = genbase.conjecture_scan(args.base, args.modulus, args.digit_class, args.k_max)
        _emit(report._asdict())  # the report's field order is the payload's key order
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
    """run() on the command line's arguments, exiting with its code; an interrupt prints one line."""
    try:
        code = run(sys.argv[1:])
        # the objects left are freed with the process, so the collection at exit need not walk them
        gc.freeze()
        sys.exit(code)
    except KeyboardInterrupt:
        pass  # leaving the handler frees the traceback, so a scan's generators close and reap their workers
    import signal

    signal.signal(signal.SIGINT, signal.SIG_DFL)  # a second interrupt ends the process at once
    try:
        sys.stdout.flush()  # the rows already written, as a normal exit would
    except OSError:
        pass
    print("interrupted", file=sys.stderr)
    os.kill(os.getpid(), signal.SIGINT)  # death by SIGINT, as a shell expects of an interrupted command
