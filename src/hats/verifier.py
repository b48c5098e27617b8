"""Exhaustive and sampled verification that a strategy wins.

One sweep loop serves all three entry points.  Each block of consecutive
indices gets its colors from a source as one (V, n) uint64 matrix (row i
for vertex i), pushes them through the strategies' vectorized path and
returns its histogram of correct counts and lowest counterexample.
Worker threads run the blocks and the calling thread merges the results
in block order, so memory stays at one block per worker and the first
counterexample merged is the lowest-index one; the sweep stops there.
Exhaustive sources decode assignment indices (mixed radix, first vertex
least significant) as uint64, so ``limit`` is clamped to 2**64.  The
report names the lowest-index counterexample, sets ``checked`` to its
index + 1, and is identical across chunk sizes and job counts.

Sampled verification draws colors with the Philox counter-based
generator so reports are reproducible: sample s of vertex i consumes the
two 64-bit words at stream positions 2*(s*V + i) and 2*(s*V + i) + 1,
and the color is their 128-bit value reduced modulo the hatness, exactly
in uint64 for hatnesses up to 2**32 (larger ones raise CapacityError).
A counterexample found by sampling disproves the strategy; a clean run
is evidence only, never a proof.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .core import Assignment, CapacityError, ContractError, Game
from .strategy import Strategy

DEFAULT_LIMIT = 2 ** 64
MAX_JOBS = 256
CHUNK = 1 << 16
SAMPLE_BLOCK = 1 << 14
PHILOX_DRAW = 1 << 11  # samples drawn at once: keeps the raw words small next to the colors


@dataclass
class VerifyReport:
    mode: str  # "exhaustive" or "sampled"
    checked: int
    counterexample: Optional[Assignment]
    min_correct: int
    seconds: float

    def to_json(self) -> dict:
        return {
            "mode": self.mode,
            "checked": self.checked,
            "counterexample": self.counterexample,
            "min_correct": self.min_correct,
            "seconds": round(self.seconds, 6),
        }

    def dumps(self) -> str:
        return json.dumps(self.to_json(), indent=2)


def resolve_jobs(jobs: Optional[int]) -> int:
    if jobs is None:
        env = os.environ.get("HATS_JOBS")
        if not env:
            return min(os.cpu_count() or 1, MAX_JOBS)
        try:
            jobs = int(env)
        except ValueError:
            raise ContractError(f"HATS_JOBS must be an integer, got {env!r}") from None
    if not 1 <= jobs <= MAX_JOBS:
        raise ContractError(f"jobs must be in [1, {MAX_JOBS}], got {jobs}")
    return int(jobs)


def _index_space(game: Game, limit: int, what: str) -> int:
    """The color space, refused above ``limit`` or the uint64 index range;
    a ``limit`` below 1 is a usage error."""
    if limit < 1:
        raise ContractError(f"limit must be at least 1, got {limit}")
    total = game.color_space
    limit = min(limit, DEFAULT_LIMIT)
    if total > limit:
        raise CapacityError(
            f"too large for {what}: {total} assignments exceeds limit {limit}", total
        )
    return total


def _decode_chunk(game: Game, lo: int, size: int) -> np.ndarray:
    idx = np.arange(lo, lo + size, dtype=np.uint64)
    colors = np.zeros((len(game.hat_tuple), size), dtype=np.uint64)
    place = 1
    for row, h in zip(colors, game.hat_tuple):
        if place >= lo + size:  # above every index, and may be 2**64: rows stay 0
            break
        np.floor_divide(idx, np.uint64(place), out=row)
        if place * h < lo + size:  # else every digit is below h, which may be 2**64
            np.remainder(row, np.uint64(h), out=row)
        place *= h
    return colors


def _sample_block(game: Game, seed: int, lo: int, size: int) -> np.ndarray:
    """Colors for samples [lo, lo+size) of the seeded Philox stream.

    Block starts must keep the word offset divisible by four (Philox
    advances in four-word counter steps); SAMPLE_BLOCK guarantees that.
    """
    nverts = len(game.graph.vertices)
    bits = np.random.Philox(key=seed, counter=2 * nverts * lo // 4)
    hats = np.array(game.hat_tuple, dtype=np.uint64)[:, None]
    carry = np.array([2 ** 64 % h for h in game.hat_tuple], dtype=np.uint64)[:, None]
    colors = np.empty((nverts, size), dtype=np.uint64)
    for start in range(0, size, PHILOX_DRAW):
        part = colors[:, start:start + PHILOX_DRAW]
        # Word k of vertex i in sample s, as (k, i, s) views of the draw.
        raw = bits.random_raw(2 * part.size).reshape(-1, nverts, 2).transpose(2, 1, 0)
        np.remainder((raw[0] % hats) * carry + raw[1] % hats, hats, out=part)
    return colors


def _correct_counts(strategy: Strategy, colors: np.ndarray) -> np.ndarray:
    counts = np.zeros(colors.shape[1], dtype=np.int32)
    for guess, color in zip(strategy._guess_rows(colors), colors):
        counts += guess == color
    return counts


def _in_order(run_block: Callable, starts, workers: int):
    """``run_block`` of every start, in start order.  Several workers keep
    up to ``2 * workers`` blocks submitted; closing cancels those not
    yet started."""
    if workers == 1:
        yield from map(run_block, starts)
        return
    pool = ThreadPoolExecutor(max_workers=workers)
    window = deque()
    try:
        for lo in starts:
            window.append(pool.submit(run_block, lo))
            if len(window) == 2 * workers:
                yield window.popleft().result()
        while window:
            yield window.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def _sweep(game: Game, strategy: Strategy, source: Callable, total: int, size: int,
           jobs: Optional[int], stop_at_zero: bool):
    """Histogram of correct counts over the blocks of [0, total) swept,
    and, with ``stop_at_zero``, (index, assignment) of the lowest index
    nobody guesses, where the sweep ends, or None.

    ``source(lo, n)`` gives the (V, n) colors at indices lo .. lo + n - 1.
    """
    if strategy.game != game:
        raise ContractError("strategy was built for a different game")
    if size < 1:
        raise ContractError(f"block size must be positive, got {size}")
    verts = game.graph.vertices

    def run_block(lo: int):
        # A call of its own frees the block's arrays before the next draw.
        colors = source(lo, min(size, total - lo))
        counts = _correct_counts(strategy, colors)
        local = np.bincount(counts, minlength=len(verts) + 1)
        zero = None
        if local[0]:
            row = int(np.argmin(counts))
            zero = (lo + row, {v: int(c) for v, c in zip(verts, colors[:, row])})
        return local, zero

    hist = np.zeros(len(verts) + 1, dtype=np.int64)
    workers = min(resolve_jobs(jobs), -(-total // size))
    with closing(_in_order(run_block, range(0, total, size), workers)) as results:
        for local, zero in results:
            hist += local
            if zero and stop_at_zero:
                return hist, zero
    return hist, None


def _verify(mode: str, game: Game, strategy: Strategy, source: Callable, total: int,
            size: int, jobs: Optional[int]) -> VerifyReport:
    start = time.perf_counter()
    hist, zero = _sweep(game, strategy, source, total, size, jobs, stop_at_zero=True)
    return VerifyReport(
        mode=mode,
        checked=total if zero is None else zero[0] + 1,
        counterexample=None if zero is None else zero[1],
        min_correct=int(np.flatnonzero(hist)[0]),
        seconds=time.perf_counter() - start,
    )


def verify_exhaustive(game: Game, strategy: Strategy, *,
                      limit: int = DEFAULT_LIMIT,
                      jobs: Optional[int] = None,
                      chunk: int = CHUNK) -> VerifyReport:
    """Sweep every assignment; report the lowest-index counterexample.

    Raises CapacityError when the color space exceeds ``limit``, which is
    clamped to 2**64.  With no counterexample the report's ``checked``
    equals the full color space and ``min_correct`` is the exact minimum
    number of simultaneously correct guesses over all assignments; with
    one, ``checked`` is its index + 1 and ``min_correct`` is 0.
    """
    total = _index_space(game, limit, "exhaustive verification")
    return _verify("exhaustive", game, strategy, partial(_decode_chunk, game),
                   total, chunk, jobs)


def verify_sampled(game: Game, strategy: Strategy, samples: int, seed: int, *,
                   jobs: Optional[int] = None) -> VerifyReport:
    """Check uniformly sampled assignments; deterministic given the seed.

    Sampling digit by digit is the same distribution as drawing a uniform
    index and decoding it, but works for games whose color space exceeds
    any integer width.  A counterexample is a definitive disproof; zero
    counterexamples leaves the verdict unknown.  ``checked`` is
    ``samples``, or the counterexample's sample number + 1.  The seed
    must lie in [0, 2**128); hatnesses above 2**32 raise CapacityError.
    """
    if samples < 1:
        raise ContractError("need at least one sample")
    if not 0 <= seed < 2 ** 128:
        raise ContractError(f"seed must be in [0, 2**128), got {seed}")
    top = max(game.hat_tuple)
    if top > 2 ** 32:
        raise CapacityError(
            f"hatness {top} is too large for sampling: exact up to 2**32", top
        )
    return _verify("sampled", game, strategy, partial(_sample_block, game, seed),
                   samples, SAMPLE_BLOCK, jobs)


def win_histogram(game: Game, strategy: Strategy, *,
                  limit: int = DEFAULT_LIMIT,
                  jobs: Optional[int] = None,
                  chunk: int = CHUNK) -> dict[int, int]:
    """Distribution of the number of correct guesses over all assignments.

    Bucket 0 is empty exactly when the strategy wins.
    """
    total = _index_space(game, limit, "a win histogram")
    hist, _ = _sweep(game, strategy, partial(_decode_chunk, game), total, chunk, jobs,
                     stop_at_zero=False)
    return {count: int(freq) for count, freq in enumerate(hist) if freq}
