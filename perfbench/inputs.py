"""Seeded inputs for the three benchmark workloads.

The same workload, scale and seed always give the same inputs. Sizes that
set a latency percentile are drawn stratified (one draw per equal-width
stratum), so the top percentiles land on inputs of nearly the same size
whatever the seed.

Run as a script (``python3 perfbench/inputs.py <workload> <seed>``) this file
is the set-up probe: a fresh interpreter that imports tmwitness and builds
one workload's full-scale inputs, timed from outside by run.py.
"""

import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("scan_csv", "certify_mix", "freq_grid")
SMALL_K = (1, 3, 5, 7)
LARGE_K_FLOOR = 2**60


@dataclass(frozen=True)
class Scale:
    """Input sizes of one benchmark configuration."""

    scan_to: int  # scan_csv scans 1..scan_to
    sweep: int  # contiguous odd k per certify_mix round
    long_words: int  # long words per certify_mix round, half random, half run-structured
    long_bits: tuple[int, int]  # inclusive bit-length range of the long words
    sweep_floor: int  # the sweep starts at a random odd k in [sweep_floor, 2 * sweep_floor)
    grid: int  # stratified (k, N) points per freq_grid round
    samples: tuple[int, int]  # N range of the stratified points
    four_powers: range  # j with N = 4^j added for every k in SMALL_K


FULL = Scale(
    scan_to=2**16,
    sweep=20_000,
    long_words=800,
    long_bits=(64, 4096),
    sweep_floor=2**18,
    grid=240,
    samples=(10**3, 10**6),
    four_powers=range(5, 10),
)
TOY = Scale(
    scan_to=300,
    sweep=200,
    long_words=8,
    long_bits=(64, 256),
    sweep_floor=2**10,
    grid=12,
    samples=(10**3, 10**4),
    four_powers=range(5, 7),
)


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def _stratified(rng: random.Random, count: int) -> list[float]:
    """One uniform draw in each of count equal strata of [0, 1), ascending."""
    return [(index + rng.random()) / count for index in range(count)]


def _ones(width: int) -> int:
    return (1 << width) - 1


def run_structured_word(rng: random.Random, bits: int) -> int:
    """An odd word built run by run to reach the deep Lemma 2/4/5/6 cases.

    Layout, most significant first: lead ones, lead zeros, random inner bits
    (starting with 1, ending with 0), mid ones, gap zeros, tail ones. The tail
    is even, since an odd tail is always Lemma 1; the lead equals the tail
    four times in five, which is what Lemmas 2 (gap 1) and 4-6 (wider gaps)
    need.
    """
    tail = rng.choice((2, 2, 4, 4, 6, 8, 12, 16))
    lead = tail if rng.random() < 0.8 else rng.randint(1, 2 * tail)
    gap = 1 if rng.random() < 0.4 else rng.randint(2, 2 * tail + 1)
    below = rng.randint(1, 2 * tail)
    mid = rng.randint(1, tail + 1)
    inner = max(2, bits - (lead + below + mid + gap + tail))
    word = _ones(lead) << below
    word = (word << inner) | ((rng.getrandbits(inner) | 1 << (inner - 1)) & ~1)
    word = (word << mid) | _ones(mid)
    return ((word << gap) << tail) | _ones(tail)


def certify_inputs(scale: Scale, seed: int) -> list[int]:
    """One certify_mix round: a contiguous sweep of odd k and a few long words, shuffled."""
    rng = _rng("certify_mix", seed)
    start = 2 * rng.randrange(scale.sweep_floor // 2, scale.sweep_floor) + 1
    items = list(range(start, start + 2 * scale.sweep, 2))
    low, high = scale.long_bits
    half = scale.long_words // 2
    for draw in _stratified(rng, half):
        bits = low + int((high - low) * draw)
        items.append(rng.getrandbits(bits) | 1 << (bits - 1) | 1)
    for draw in _stratified(rng, scale.long_words - half):
        items.append(run_structured_word(rng, low + int((high - low) * draw)))
    rng.shuffle(items)
    return items


def freq_inputs(scale: Scale, seed: int) -> list[tuple[int, int]]:
    """One freq_grid round of (k, N) calls, shuffled.

    N = lo * (hi/lo)^(x^2) over stratified x, so most calls are short and a
    round still holds the long ones a p99 needs. Small and large k alternate
    across the strata. Every k in SMALL_K also runs at N = 4^j.
    """
    rng = _rng("freq_grid", seed)
    low, high = scale.samples
    items = []
    for index, draw in enumerate(_stratified(rng, scale.grid)):
        samples = round(low * (high / low) ** (draw * draw))
        if index % 2:
            k = rng.randrange(LARGE_K_FLOOR, 4 * LARGE_K_FLOOR) | 1
        else:
            k = rng.choice(SMALL_K + (rng.randrange(9, 2**12, 2),))
        items.append((k, samples))
    items.extend((k, 4**j) for k in SMALL_K for j in scale.four_powers)
    rng.shuffle(items)
    return items


def build(workload: str, scale: Scale, seed: int):
    """The inputs of one round of a workload."""
    if workload == "scan_csv":
        # one contiguous range from 1, as the characterization is re-proved per k
        return scale.scan_to
    if workload == "certify_mix":
        return certify_inputs(scale, seed)
    if workload == "freq_grid":
        return freq_inputs(scale, seed)
    raise ValueError(f"unknown workload {workload!r}")


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    import tmwitness  # noqa: F401  (set-up includes the package import)

    build(sys.argv[1], FULL, int(sys.argv[2]))
