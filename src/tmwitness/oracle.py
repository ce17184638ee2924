"""Brute-force searches that establish ground truth independently of any construction.

Every search here walks candidates in strictly ascending order, so a returned
value is the minimum by construction. Every walk for a weight parity skips
the even n, or, a block of n at a time, never meets one first: an even
n = 2m is never least, as s2(k * 2m) = s2(k * m), so the least n of either
parity of s2(k * n) is odd. min_weight_witness also walks only below a
proven bound; scan_weight_family runs it over the paper's family of k that
no sparse n serves. Every other walk stops at a module bound when its
proven ceiling lies past it, _WALK_BOUND for f and zero_min and
_G_MIN_BOUND for g_min, and raises ValueError there. The witness machinery
is tested against this module, never the other way around: every path that
runs both, the scan, `f` and `genbase`, holds the construction to it
through _check_agreement here.
"""

import math
from collections import namedtuple
from collections.abc import Sequence
from itertools import compress
from operator import not_

from .digitcore import TheoremViolationError, _parity_blocks, reduce_to_odd, thue_morse

__all__ = [
    "f_exact",
    "zero_min",
    "f_and_zero_mins",
    "min_weight_witness",
    "WeightFamilyRecord",
    "scan_weight_family",
    "g_min",
]


def _f_ceiling(k: int) -> int:
    # the paper's theorem: some n <= k_odd + 4 works
    return reduce_to_odd(k)[0] + 4


def _g_ceiling(base: int, modulus: int, k: int) -> int:
    # below base^modulus * k a digit-class witness provably exists
    return base**modulus * k


def _zero_ceiling(k: int) -> int:
    # with w = k.bit_length(), k * (2^w + 1) is two copies of k that do not
    # overlap, so its weight 2 * s2(k) is even
    return (1 << k.bit_length()) + 1


# a batch's open k are walked one by one once no more than this many are left: 2, 8,
# 32 and 128 took within 8% of each other over the 32 batches of 1..2^16 (best of 7,
# one process on a 2-core x86-64 box); with 0, a batch whose last open k walks far
# (f = 1641 near 40,000) took 5x as long, as each step of that walk is a list pass
_FEW_OPEN = 8


# a walk stops at this n when its proven ceiling lies past it: 2^16 blocks, which
# f(2^61 + 1) and zero_min(2^61 - 1) walk in 0.4 and 1.2 s on a 2-core x86-64 box,
# where one odd n at a time took 11-12 s; the longest walk that anything here runs,
# to 4^13 + 3, stays below 2^27, and f(2^61 + 1) would take 2^33 times as long
_WALK_BOUND = 1 << 28

# a lone walk takes this many odd n one at a time, then blocks of 2^_WALK_LANES_LOG n.
# The 403 lone walks of the scan of 1..2^16, 117,833 odd n one at a time, took
# 10-12 ms; with 128, 256, 512, 1024 and 2048 odd n first, 3.1, 2.6, 2.5, 2.6 and
# 3.1 ms, and over 1..2^20's 5970, with 256, 512 and 1024, 27, 27 and 36 ms against
# 184 ms (best of 7, one process on a 2-core x86-64 box, Python 3.11). Building the
# first block of 2^12 lanes for a 17-bit k costs as much as about 1000 odd n do
_SCALAR_WALK = 512
# 2^10, 2^11, 2^12, 2^13, 2^14 and 2^16 lanes took 2.6, 2.5, 2.5, 2.8, 3.2 and
# 4.7 ms over those walks, and 27-46 ms over 1..2^20's, least at 2^12: more lanes
# walk a long search faster (f(2^24 + 1) 39, 20, 10, 5.0, 2.7 and 0.8 ms), but every
# walk past the scalar prefix pays for building a larger first block
_WALK_LANES_LOG = 12


def _walk(k: int, parity: int, limit: int, start: int = 1) -> int:
    """Least odd n in start..limit, start odd, whose product with k has the given weight parity.

    No n below start may be such an n. The first _SCALAR_WALK odd n are
    tried one by one, and the rest in blocks of 2^_WALK_LANES_LOG
    consecutive n from the first not yet tried up to the walk's top (see
    digitcore._parity_blocks), where the first nonzero word's lowest lane is
    the least hit. Even lanes do no harm: as s2(2m) = s2(m) and no n below
    start hits, the least hit of either parity is odd. Exhausting limit, a
    proven ceiling, is a contradiction and raises TheoremViolationError. A
    walk that reaches _WALK_BOUND below its ceiling stops there and raises
    ValueError.
    """
    step = 2 * k
    product = k * (start - 2)
    top, low = min(limit, _WALK_BOUND), start + 2 * _SCALAR_WALK
    for n in range(start, min(top + 1, low), 2):
        product += step
        if product.bit_count() & 1 == parity:
            return n
    if low <= top:  # a walk that ends in its scalar prefix builds no block
        for base, hits in _parity_blocks(reduce_to_odd(k)[0], _WALK_LANES_LOG, low, top, parity):
            if hits:
                return base + (hits & -hits).bit_length() - 1
    if limit > top:
        least, hint = ("f", "; `f --method constructive` gives a witness") if parity else ("zero_min", "")
        raise ValueError(
            f"the oracle walk for {least} of k={k} stopped at n={(top - 1) | 1}, "
            f"short of its proven ceiling {limit}{hint}"
        )
    if parity:
        raise TheoremViolationError(f"no multiplier up to {limit} works for k={k}")
    raise TheoremViolationError(f"no even-weight multiple of k={k} up to n={limit}")


def _check_agreement(k: int, least: int, constructed: int) -> None:
    """Raise unless the oracle's least n is at most the constructed witness."""
    if least > constructed:
        raise TheoremViolationError(f"oracle and construction disagree at k={k}: {least} vs {constructed}")


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


def f_and_zero_mins(ks: Sequence[int]) -> tuple[list[int], list[int]]:
    """([f_exact(k) for k in ks], [zero_min(k) for k in ks]), from one walk over the batch.

    n = 1 settles one of the two for each k, as k has either odd weight
    (f = 1) or even weight (zero_min = 1), and leaves the other open. Then,
    for n = 3, 5, ..., the open k take one pass of products and weights, and
    those whose product has the wanted parity are settled at n.
    Once no more than _FEW_OPEN are left, or the passes reach _WALK_BOUND,
    each is walked alone from the next n up to its own proven ceiling, and
    raises as _walk does. The passes read no ceiling, as a ceiling is a
    proven bound: a k settled in a pass has its least n, and the scan holds
    each f to the construction's hit as well.
    """
    if min(ks, default=1) < 1:
        raise ValueError("k must be positive")
    fs, zeros = [1] * len(ks), [1] * len(ks)
    weights = list(map(int.bit_count, ks))
    for parity, column, ceiling in ((1, fs, _f_ceiling), (0, zeros, _zero_ceiling)):
        places = [at for at, weight in enumerate(weights) if weight & 1 != parity]
        walking = [ks[at] for at in places]
        n = 1
        while len(places) > _FEW_OPEN and n + 2 <= _WALK_BOUND:
            n += 2
            hits = [(k * n).bit_count() & 1 for k in walking]  # faster than a chain of map()s here
            misses = list(map(not_, hits))
            if not parity:
                hits, misses = misses, hits
            for at in compress(places, hits):
                column[at] = n
            places, walking = list(compress(places, misses)), list(compress(walking, misses))
        for at, k in zip(places, walking):
            column[at] = _walk(k, parity, ceiling(k), n + 2)
    return fs, zeros


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


WeightFamilyRecord = namedtuple("WeightFamilyRecord", "exponent k counterexample")
WeightFamilyRecord.__doc__ = "Sparse-multiplier sweep result for k = 3 * 2^exponent + 3; counterexample may be None."


def scan_weight_family(exponent_min: int, exponent_max: int, bit_limit: int) -> list[WeightFamilyRecord]:
    """Check k = 3 * 2^exponent + 3 for multipliers with at most two set bits.

    Every product of such a k with a sparse n below 2^bit_limit is expected
    to have even weight; a hit is returned as a counterexample in the record,
    never raised. Once bit_limit is at least k's width, exponent + 2, a None
    counterexample means that no such n exists at all: past that width,
    k * (2^d + 1) is two copies of k that do not overlap, of even weight.
    """
    if not 4 <= exponent_min <= exponent_max:  # the family starts at exponent 4
        raise ValueError("need 4 <= exponent_min <= exponent_max")
    import logging

    log = logging.getLogger(__name__)
    records = []
    for exponent in range(exponent_min, exponent_max + 1):
        k = 3 * 2**exponent + 3
        hit = min_weight_witness(k, 2, bit_limit)
        if hit is not None:
            log.warning("sparse counterexample for exponent %d: k=%d, n=%d", exponent, k, hit)
        records.append(WeightFamilyRecord(exponent, k, hit))
    return records


# g_min stops at this n when its proven ceiling lies past it: up to 2^20, one n took
# 1.3-4.4 us at base 2 and 0.5-1.5 us at base 10 (best of 3 in one process and a loaded
# run, a 2-core x86-64 box, Python 3.11), so a walk to the bound takes 1.4-4.6 s, where
# _WALK_BOUND would take up to 20 min; the tests' and README's conjecture scans stay below 2^13
_G_MIN_BOUND = 1 << 20


def g_min(query: "GenBaseQuery") -> int:
    """Least n >= 1 whose product with k has its base-b digit sum in the wanted class.

    Digits are extracted by repeated division even for base 2, keeping this
    code path independent of the bit-counting machinery it is used to check.
    Exhausting the proven ceiling base^modulus * k raises
    TheoremViolationError; a walk that reaches _G_MIN_BOUND below its
    ceiling stops there and raises ValueError. The ceiling is compared with
    the bound by its bit length first, and built only when the walk may
    reach it: 10^modulus alone takes 0.3-0.9 s at modulus 10^6.
    """
    base, modulus, k = query.base, query.modulus, query.k
    wanted = query.digit_class % modulus
    if math.gcd(base - 1, modulus) != 1:
        raise ValueError("termination needs gcd(base-1, modulus) = 1")
    if modulus * (base.bit_length() - 1) + k.bit_length() > _G_MIN_BOUND.bit_length():
        limit = math.inf  # the ceiling is at least 2^(that sum - 1), past the bound, and is not built
    else:
        limit = _g_ceiling(base, modulus, k)
    top = min(limit, _G_MIN_BOUND)
    product = 0
    for n in range(1, top + 1):
        product += k
        value = product
        total = 0
        while value:
            value, digit = divmod(value, base)
            total += digit
        if total % modulus == wanted:
            return n
    if limit > top:
        raise ValueError(
            f"the oracle walk for g_min of k={k} in digit class {wanted} mod {modulus} stopped at n={top}, "
            f"short of its proven ceiling {base}^{modulus} * {k}; `genbase --method construct` gives a witness"
        )
    raise TheoremViolationError(
        f"no multiplier up to {limit} reaches digit class {wanted} for k={k}"
    )
