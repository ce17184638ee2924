"""Brute-force searches that establish ground truth independently of any construction.

Every search here walks candidates in strictly ascending order, so a returned
value is the minimum by construction. min_weight_witness walks only the odd
candidates below a proven bound, since no other can be least. The witness
machinery is tested against this module, never the other way around.
"""

import math
from typing import TYPE_CHECKING

from .digitcore import TheoremViolationError, reduce_to_odd, thue_morse

if TYPE_CHECKING:
    from .genbase import GenBaseQuery

__all__ = [
    "f_exact",
    "zero_min",
    "f_and_zero_min",
    "min_weight_witness",
    "g_min",
]


def _f_ceiling(k: int) -> int:
    # the paper's theorem: some n <= k_odd + 4 works
    return reduce_to_odd(k)[0] + 4


def _zero_ceiling(k: int) -> int:
    # with w = k.bit_length(), k * (2^w + 1) is two copies of k that do not
    # overlap, so its weight 2 * s2(k) is even
    return (1 << k.bit_length()) + 1


def _walk(k: int, parity: int, limit: int, start: int = 1) -> int:
    """Least n in start..limit whose product with k has the given weight parity.

    Exhausting limit, a proven ceiling, is a contradiction and raises
    TheoremViolationError.
    """
    product = k * (start - 1)
    for n in range(start, limit + 1):
        product += k
        if product.bit_count() & 1 == parity:
            return n
    if parity:
        raise TheoremViolationError(f"no multiplier up to {limit} works for k={k}")
    raise TheoremViolationError(f"no even-weight multiple of k={k} up to n={limit}")


def f_exact(k: int) -> int:
    """Least n >= 1 whose product with k has odd binary weight; at most k_odd + 4."""
    if k < 1:
        raise ValueError("k must be positive")
    return _walk(k, 1, _f_ceiling(k))


def zero_min(k: int) -> int:
    """Least n >= 1 whose product with k has even binary weight; at most 2^w + 1 <= 2k + 1.

    Here w = k.bit_length(), and n = 2^w + 1 always works, so exhausting that
    ceiling is a contradiction and raises TheoremViolationError.
    """
    if k < 1:
        raise ValueError("k must be positive")
    return _walk(k, 0, _zero_ceiling(k))


def f_and_zero_min(k: int) -> tuple[int, int]:
    """(f_exact(k), zero_min(k)) from one walk.

    n = 1 settles one of the two, as k has either odd weight (f = 1) or even
    weight (zero_min = 1); the other is walked for from n = 2 up to its own
    ceiling.
    """
    if k < 1:
        raise ValueError("k must be positive")
    if k.bit_count() & 1:
        return 1, _walk(k, 0, _zero_ceiling(k), 2)
    return _walk(k, 1, _f_ceiling(k), 2), 1


def min_weight_witness(k: int, weight_cap: int, n_bit_limit: int) -> int | None:
    """Least n below 2^n_bit_limit with at most weight_cap set bits and odd product weight.

    The candidates are 1, then for d = 1, 2, ... the odd 2^d + 1 and
    2^d + 2^e + 1 (1 <= e < d), in ascending order, so the first hit is the
    least. Two facts leave every other n out without losing the least one:
    - an even n is never least, as k * (n / 2) has the same weight;
    - when 2^j divides a and k * b < 2^j, the products k * a and k * b do
      not overlap, so k * (a + b) has weight s2(k * a) + s2(k * b).
    With w = k.bit_length(), the second makes 2^d + 1 of even weight for
    d >= w, and a hit 2^d + 2^e + 1 with e >= w, or with d > w + e, leaves
    1, 2^(d-e) + 1 or 2^e + 1 as a smaller hit. So 2^d + 1 is tried only for
    d < w, and 2^d + 2^e + 1 only for e < w and d < 2w.
    Returns None when no such multiplier exists below the bit limit; once
    n_bit_limit >= w for a cap of at most 2, or >= 2w for a cap of 3, None
    means that no such multiplier exists at all.
    """
    if weight_cap not in (1, 2, 3):
        raise ValueError("weight cap must be 1, 2, or 3")
    if k < 1:
        raise ValueError("k must be positive")
    if n_bit_limit < 1:
        raise ValueError("bit limit must be positive")
    if thue_morse(k):
        return 1
    width = k.bit_length()
    for d in range(1, min(n_bit_limit, (weight_cap - 1) * width)):
        pair = (k << d) + k  # k * (2^d + 1); a shift and an add cost a quarter of a product at 4,000 bits
        if d < width and thue_morse(pair):
            return (1 << d) | 1
        if weight_cap == 3:
            for e in range(1, min(d, width)):
                if thue_morse(pair + (k << e)):
                    return (1 << d) | (1 << e) | 1
    return None


def g_min(query: "GenBaseQuery") -> int:
    """Least n >= 1 whose product with k has its base-b digit sum in the wanted class.

    Digits are extracted by repeated division even for base 2, keeping this
    code path independent of the bit-counting machinery it is used to check.
    """
    base, modulus, k = query.base, query.modulus, query.k
    wanted = query.digit_class % modulus
    if math.gcd(base - 1, modulus) != 1:
        raise ValueError("termination needs gcd(base-1, modulus) = 1")
    # below base^modulus * k a digit-class witness provably exists
    limit = base**modulus * k
    product = 0
    for n in range(1, limit + 1):
        product += k
        value = product
        total = 0
        while value:
            value, digit = divmod(value, base)
            total += digit
        if total % modulus == wanted:
            return n
    raise TheoremViolationError(
        f"no multiplier up to {limit} reaches digit class {wanted} for k={k}"
    )
