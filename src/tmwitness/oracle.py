"""Brute-force searches that establish ground truth independently of any construction.

Every search here walks candidates in strictly ascending order, so a returned
value is the minimum by construction. The witness machinery is tested against
this module, never the other way around.
"""

import heapq
import math
from typing import TYPE_CHECKING, Iterator

from .digitcore import TheoremViolationError, reduce_to_odd, thue_morse

if TYPE_CHECKING:
    from .genbase import GenBaseQuery

__all__ = [
    "f_exact",
    "zero_min",
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


def f_exact(k: int) -> int:
    """Least n >= 1 whose product with k has odd binary weight; at most k_odd + 4."""
    if k < 1:
        raise ValueError("k must be positive")
    limit = _f_ceiling(k)
    product = 0
    for n in range(1, limit + 1):
        product += k
        if product.bit_count() & 1:
            return n
    raise TheoremViolationError(f"no multiplier up to {limit} works for k={k}")


def zero_min(k: int) -> int:
    """Least n >= 1 whose product with k has even binary weight; at most 2^w + 1 <= 2k + 1.

    Here w = k.bit_length(), and n = 2^w + 1 always works, so exhausting that
    ceiling is a contradiction and raises TheoremViolationError.
    """
    if k < 1:
        raise ValueError("k must be positive")
    limit = _zero_ceiling(k)
    product = 0
    for n in range(1, limit + 1):
        product += k
        if product.bit_count() & 1 == 0:
            return n
    raise TheoremViolationError(f"no even-weight multiple of k={k} up to n={limit}")


def _sparse_values(weight: int, bit_limit: int) -> Iterator[int]:
    # ascending within the class: top bit outermost, recursing strictly below it
    if weight == 1:
        for position in range(bit_limit):
            yield 1 << position
        return
    for top in range(weight - 1, bit_limit):
        high = 1 << top
        for rest in _sparse_values(weight - 1, top):
            yield high | rest


def min_weight_witness(k: int, weight_cap: int, n_bit_limit: int) -> int | None:
    """Least n below 2^n_bit_limit with at most weight_cap set bits and odd product weight.

    Each weight class is streamed in increasing numeric order and the classes
    are merged, so the first hit is the least sparse witness overall. Returns
    None when no such multiplier exists below the bit limit.
    """
    if weight_cap not in (1, 2, 3):
        raise ValueError("weight cap must be 1, 2, or 3")
    if k < 1:
        raise ValueError("k must be positive")
    if n_bit_limit < 1:
        raise ValueError("bit limit must be positive")
    streams = [_sparse_values(weight, n_bit_limit) for weight in range(1, weight_cap + 1)]
    for n in heapq.merge(*streams):
        if thue_morse(k * n):
            return n
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
