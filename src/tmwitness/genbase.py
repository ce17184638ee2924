"""Digit-class witnesses in an arbitrary base, and the gap-conjecture scanner.

The problem solved here: given a base b, a modulus r with gcd(b-1, r) = 1, a
digit class c, and a coefficient k, produce n with the base-b digit sum of
k*n congruent to c mod r; or, with a pinned residue a, produce n congruent
to a mod k whose own digit sum lands in the class. Both constructions carry
explicit size bounds and are re-verified on every call.
"""

import math
from typing import NamedTuple

from . import oracle
from .digitcore import TheoremViolationError, sum_digits

__all__ = [
    "GenBaseQuery",
    "ConjectureReport",
    "prop_construct",
    "corollary_construct",
    "conjecture_scan",
]


# GenBaseQuery's fields, apart, as a NamedTuple class body may not define __new__
class _QueryFields(NamedTuple):
    base: int
    modulus: int
    digit_class: int
    k: int
    residue: int | None = None


class GenBaseQuery(_QueryFields):
    """One instance of the digit-class problem.

    digit_class is normalized into [0, modulus) at construction. Queries with
    gcd(base-1, modulus) != 1 are rejected outright: digit sums of multiples
    then miss entire residue classes, so neither the constructions nor any
    search-termination bound apply. Construction validates, by position or
    by keyword; _make and _replace build the tuple as given, unchecked.
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


class ConjectureReport(NamedTuple):
    """Worst observed gap between the least digit-class witness and k over a range.

    bound is base^(modulus + digit_class) with the class already normalized;
    violated records the comparison and nothing more, since the bound is a
    conjecture, not a theorem.
    """

    base: int
    modulus: int
    digit_class: int
    k_max: int
    worst_k: int
    worst_gap: int
    bound: int
    violated: bool


def _scale_exponent(query: GenBaseQuery) -> int:
    # least exponent with k <= base^exponent, floored at 1 so n stays positive
    exponent = 1
    while query.base**exponent < query.k:
        exponent += 1
    return exponent


def _pick_exponent(query: GenBaseQuery, target: int) -> int:
    """Least t in a window of `modulus` consecutive exponents with (base-1)*t in the target class."""
    start = _scale_exponent(query)
    wanted = target % query.modulus
    for t in range(start, start + query.modulus):
        if (query.base - 1) * t % query.modulus == wanted:
            return t
    raise TheoremViolationError(f"no exponent in the window reaches class {wanted} for {query}")


def prop_construct(query: GenBaseQuery) -> int:
    """Constructed n = base^t - 1 whose product with k has its digit sum in the class.

    The result is always below base^modulus * k. Requires a query without a
    pinned residue; the residue form lives in corollary_construct.
    """
    if query.residue is not None:
        raise ValueError("queries with a pinned residue go to corollary_construct")
    t = _pick_exponent(query, query.digit_class)
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
    wanted = GenBaseQuery(base, modulus, digit_class, 1).digit_class
    worst_gap: int | None = None
    worst_k = 1
    for k in range(1, k_max + 1):
        gap = oracle.g_min(GenBaseQuery(base, modulus, wanted, k)) - k
        if worst_gap is None or gap > worst_gap:
            worst_gap, worst_k = gap, k
    bound = base ** (modulus + wanted)
    assert worst_gap is not None
    return ConjectureReport(base, modulus, wanted, k_max, worst_k, worst_gap, bound, worst_gap > bound)
