"""Digit-class witnesses in an arbitrary base, and the gap-conjecture scanner.

The problem solved here: given a base b, a modulus r with gcd(b-1, r) = 1, a
digit class c, and a coefficient k, produce n with the base-b digit sum of
k*n congruent to c mod r; or, with a pinned residue a, produce n congruent
to a mod k whose own digit sum lands in the class. Both constructions carry
explicit size bounds and are re-verified on every call. A witness, or a
conjecture scan's bound, with more digits than CPython prints is refused with
ValueError before it is built, its size read from its exponent.
"""

import math
import sys
from collections import namedtuple

from . import oracle
from .digitcore import TheoremViolationError, sum_digits

__all__ = [
    "GenBaseQuery",
    "ConjectureReport",
    "prop_construct",
    "corollary_construct",
    "conjecture_scan",
]


class GenBaseQuery(namedtuple("GenBaseQuery", "base modulus digit_class k residue", defaults=(None,))):
    """One instance of the digit-class problem.

    residue is None unless pinned. digit_class is normalized into [0, modulus)
    at construction. Queries with gcd(base-1, modulus) != 1 are rejected
    outright: digit sums of multiples then miss entire residue classes, so
    neither the constructions nor any search-termination bound apply.
    Construction validates, by position or by keyword; _make and _replace
    build the tuple as given, unchecked.
    """

    __slots__ = ()

    def __new__(cls, base: int, modulus: int, digit_class: int, k: int, residue: int | None = None):
        if base < 2:
            raise ValueError("base must be at least 2")
        if modulus < 1:
            raise ValueError("modulus must be positive")
        if k < 1:
            raise ValueError("k must be positive")
        if math.gcd(base - 1, modulus) != 1:
            raise ValueError(f"gcd(base-1, modulus) must be 1; got gcd({base - 1}, {modulus}) != 1")
        if residue is not None and not 0 <= residue < k:
            raise ValueError("residue must lie in [0, k)")
        return super().__new__(cls, base, modulus, digit_class % modulus, k, residue)


ConjectureReport = namedtuple("ConjectureReport", "base modulus digit_class k_max worst_k worst_gap bound violated")
ConjectureReport.__doc__ = """Worst observed gap between the least digit-class witness and k over a range.

bound is base^(modulus + digit_class) with the class already normalized;
violated records the comparison and nothing more, since the bound is a
conjecture, not a theorem.
"""


def _refuse_past_print_limit(what: str, digits: int) -> None:
    """Raise ValueError when a number of this many decimal digits, estimated from its exponent, could not be printed.

    The limit is CPython's on int-to-text conversion, sys.get_int_max_str_digits().
    A witness or bound past it would fail only once built and printed, and
    building it can take longer than any caller waits.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    if 0 < limit < digits:
        raise ValueError(f"the {what} would have about {digits:,} digits, past the {limit:,}-digit limit on printing")


def _scale_exponent(query: GenBaseQuery) -> int:
    # least exponent with k <= base^exponent, floored at 1 so n stays positive
    exponent = 1
    while query.base**exponent < query.k:
        exponent += 1
    return exponent


def _pick_exponent(query: GenBaseQuery, target: int) -> int:
    """Least t in a window of `modulus` consecutive exponents with (base-1)*t in the target class.

    As gcd(base-1, modulus) = 1, t is target / (base-1) mod modulus, so
    finding it costs one modular inverse at any modulus.
    """
    start = _scale_exponent(query)
    wanted = target % query.modulus
    try:
        residue = wanted * pow(query.base - 1, -1, query.modulus) % query.modulus
    except ValueError:  # base-1 has no inverse: a query built unchecked, with gcd(base-1, modulus) != 1
        raise TheoremViolationError(f"no exponent in the window reaches class {wanted} for {query}") from None
    return start + (residue - start) % query.modulus


def prop_construct(query: GenBaseQuery) -> int:
    """Constructed n = base^t - 1 whose product with k has its digit sum in the class.

    The result is always below base^modulus * k. Requires a query without a
    pinned residue; the residue form lives in corollary_construct.
    """
    if query.residue is not None:
        raise ValueError("queries with a pinned residue go to corollary_construct")
    t = _pick_exponent(query, query.digit_class)
    _refuse_past_print_limit("witness", math.ceil(t * math.log10(query.base)))
    n = query.base**t - 1
    if sum_digits(query.base, query.k * n) % query.modulus != query.digit_class:
        raise TheoremViolationError(f"construction broke its digit-class contract for {query}")
    return n


def corollary_construct(query: GenBaseQuery) -> int:
    """Constructed n with n = residue (mod k) and its own digit sum in the class.

    Returns k * base^s * (base^t - 1) + residue, which stays below
    base^(modulus+1) * k^3. The residue's digits sit wholly below the shifted
    block, so the exponent t is selected against digit_class minus the
    residue's digit sum. Selecting against the residue itself would only work
    when the residue and its digit sum agree mod modulus.
    """
    if query.residue is None:
        raise ValueError("corollary_construct needs a pinned residue")
    scale = _scale_exponent(query)
    residue_digits = sum_digits(query.base, query.residue)
    t = _pick_exponent(query, query.digit_class - residue_digits)
    _refuse_past_print_limit("witness", math.ceil(math.log10(query.k) + (scale + t) * math.log10(query.base)))
    n = query.k * query.base**scale * (query.base**t - 1) + query.residue
    if (
        n % query.k != query.residue
        or sum_digits(query.base, n) % query.modulus != query.digit_class
    ):
        raise TheoremViolationError(f"construction broke its contract for {query}")
    return n


def conjecture_scan(base: int, modulus: int, digit_class: int, k_max: int) -> ConjectureReport:
    """Scan k = 1..k_max, recording the worst gap between the least witness and k.

    The worst gap is compared against base^(modulus + digit_class); the least
    k attaining the worst gap is reported. A true comparison failure is data
    (violated = True), not an error.
    """
    if k_max < 1:
        raise ValueError("k_max must be positive")
    first = GenBaseQuery(base, modulus, digit_class, 1)
    _refuse_past_print_limit("bound", math.floor((modulus + first.digit_class) * math.log10(base)) + 1)
    wanted, worst_gap, worst_k = first.digit_class, oracle.g_min(first) - 1, 1
    for k in range(2, k_max + 1):
        gap = oracle.g_min(GenBaseQuery(base, modulus, wanted, k)) - k
        if gap > worst_gap:
            worst_gap, worst_k = gap, k
    bound = base ** (modulus + wanted)
    return ConjectureReport(base, modulus, wanted, k_max, worst_k, worst_gap, bound, worst_gap > bound)
