"""Correctness checks of the benchmark's outputs, made apart from the program.

Every check recomputes what it needs by brute force here (binary weights are
counted with ``bin(x).count("1")`` or numpy's popcount, never with the
program's helpers) or tests a property the theorem says the output must have.
A failed check raises CheckFailed naming the first bad output.
"""

import csv
import io
import json
from fractions import Fraction

SCAN_HEADER = ["k", "f", "gap", "case", "witness", "witness_weight", "zero_min", "flags"]
NUMPY_LIMIT = 2**63
HALF_WORD = 2**32


class CheckFailed(Exception):
    """An output disagrees with an independent computation or a required property."""


def _weight(value: int) -> int:
    return bin(value).count("1")


def _odd_part(k: int) -> int:
    return k >> ((k & -k).bit_length() - 1)


def least_odd_multiplier(k: int) -> int:
    """Least n >= 1 with k*n of odd binary weight, by plain search."""
    n = 1
    while _weight(k * n) % 2 == 0:
        n += 1
    return n


def least_even_multiplier(k: int) -> int | None:
    """Least n in 1..4k with k*n of even binary weight, or None."""
    for n in range(1, 4 * k + 1):
        if _weight(k * n) % 2 == 0:
            return n
    return None


def _four_power_minus_one(k: int) -> bool:
    m = k + 1
    return m >= 4 and m & (m - 1) == 0 and (m.bit_length() - 1) % 2 == 0


def _two_power_plus_one(k: int) -> bool:
    return k >= 5 and (k - 1) & (k - 2) == 0


def check_scan_csv(text: str, k_max: int) -> None:
    """The scan CSV of 1..k_max: one row per k, ascending, each row re-derived here."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows or rows[0] != SCAN_HEADER:
        raise CheckFailed(f"scan CSV header is {rows[:1]}")
    body = rows[1:]
    if [row[0] for row in body] != [str(k) for k in range(1, k_max + 1)]:
        raise CheckFailed(f"scan CSV does not hold one row per k in 1..{k_max}, ascending")
    for row in body:
        k, f, gap = int(row[0]), int(row[1]), int(row[2])
        if gap != f - k or f > _odd_part(k) + 4 or gap in (2, 3):
            raise CheckFailed(f"k={k}: f={f} with gap {gap} breaks f <= k_odd + 4, gap not 2 or 3")
        if (gap == 4) != _four_power_minus_one(k):
            raise CheckFailed(f"k={k}: gap {gap}, but gap 4 occurs exactly at k = 4^r - 1")
        if gap == 1 and k != 6:
            raise CheckFailed(f"k={k}: gap 1 occurs only at k = 6")
        if gap == 0 and not (k == 1 or _two_power_plus_one(k)):
            raise CheckFailed(f"k={k}: gap 0 occurs only at k = 1 or 2^r + 1")
        least = least_odd_multiplier(k)
        if f != least:
            raise CheckFailed(f"k={k}: f={f}, brute force gives {least}")
        zero = least_even_multiplier(k)
        flags = {4: "GapEquals4", 1: "GapEquals1", 0: "GapEquals0"}
        expected_flags = {flags[gap]} if gap in flags else set()
        if zero is None or zero > k + 2:
            expected_flags.add("ZeroMinExceedsKplus2")
        expected = [str(f), str(_weight(f)), "" if zero is None else str(zero), "|".join(sorted(expected_flags))]
        if [row[4], row[5], row[6], row[7]] != expected:
            raise CheckFailed(f"k={k}: witness, weight, zero_min, flags {row[4:]} != {expected}")


def check_certificates(ks, texts, parse, serialize) -> None:
    """Serialized certificates: round trip, k_odd * 2^shift = k, and a valid hit.

    parse and serialize are the program's parse_certificate and
    serialize_certificate; everything else is read with json and counted here.
    """
    if len(ks) != len(texts):
        raise CheckFailed(f"{len(texts)} certificates for {len(ks)} inputs")
    for k, text in zip(ks, texts):
        if text is None:
            continue  # a failed operation, counted apart
        if serialize(parse(text)) != text:
            raise CheckFailed(f"k={k}: certificate does not round-trip through parse_certificate")
        raw = json.loads(text)
        k_input, k_odd, hit = (int(raw[name]) for name in ("k_input", "k_odd", "verified_hit"))
        if k_input != k or k_odd % 2 == 0 or k_odd << raw["shift"] != k:
            raise CheckFailed(f"k={k}: k_input {k_input}, k_odd {k_odd}, shift {raw['shift']}")
        if not 1 <= hit <= k_odd + 4 or _weight(hit) > 3 or _weight(k_odd * hit) % 2 == 0:
            raise CheckFailed(f"k={k}: hit {hit} is not a sparse odd-weight multiplier <= k_odd + 4")
        if hit not in [int(candidate) for candidate in raw["candidates"]]:
            raise CheckFailed(f"k={k}: hit {hit} is not among the candidates")


def odd_weight_count(k: int, samples: int) -> int:
    """How many n in 1..samples give k*n of odd binary weight, counted here.

    With numpy, k*n is held in two uint64 parts, k_low*n and k_high*n, with
    k = k_high * 2^32 + k_low: the weight of k*n is that of the low 32 bits
    of k_low*n plus that of k_high*n + (k_low*n >> 32), which fits in 64
    bits while (k_high + 1) * samples < 2^63. Beyond that, a plain loop.
    """
    if samples < HALF_WORD and ((k >> 32) + 1) * samples < NUMPY_LIMIT:
        import numpy

        multipliers = numpy.arange(1, samples + 1, dtype=numpy.uint64)
        low = multipliers * numpy.uint64(k % HALF_WORD)
        high = multipliers * numpy.uint64(k >> 32) + (low >> numpy.uint64(32))
        weights = numpy.bitwise_count(low % numpy.uint64(HALF_WORD)) + numpy.bitwise_count(high)
        return int((weights & 1).sum())
    hits = 0
    product = 0
    for _ in range(samples):
        product += k
        hits += bin(product).count("1") & 1
    return hits


def check_frequencies(grid, records, frequency) -> None:
    """Frequency records against independent counts, Newman's k = 3 law and f(2k) = f(k).

    frequency is the program's scanner.frequency, called again here for 2k.
    """
    if len(grid) != len(records):
        raise CheckFailed(f"{len(records)} frequencies for {len(grid)} inputs")
    for (k, samples), record in zip(grid, records):
        if record is None:
            continue  # a failed operation, counted apart
        j = (samples.bit_length() - 1) // 2
        if k == 3 and samples == 4**j:
            law = Fraction(1, 2) - Fraction(2, 3) * Fraction(3, 4) ** j
            if record.ones_frequency != law:
                raise CheckFailed(f"frequency(3, 4^{j}) = {record.ones_frequency}, not {law}")
        fraction = Fraction(odd_weight_count(k, samples), samples)
        if (record.k, record.sample_count, record.ones_frequency) != (k, samples, fraction):
            raise CheckFailed(f"frequency({k}, {samples}) = {record}, counted {fraction}")
        doubled = frequency(2 * k, samples).ones_frequency
        if doubled != record.ones_frequency:
            raise CheckFailed(f"frequency({2 * k}, {samples}) = {doubled} != frequency({k}, {samples})")
