"""Exhaustive and sampled verification that a strategy wins.

One sweep loop serves all three entry points.  Worker threads pull the
starts of blocks of consecutive indices from one shared cursor, get the
block's colors from a source and push them through the strategies'
vectorized path; memory stays at one block per worker.  Exhaustive
sources decode assignment indices (mixed radix, first vertex least
significant) as uint64, so ``limit`` is clamped to 2**64.  Once a
counterexample is known no block is drawn: every undrawn block starts
above it.  The report therefore names the lowest-index counterexample,
sets ``checked`` to its index + 1, and is identical across chunk sizes
and job counts.

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
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import partial
from typing import Callable, Mapping, Optional

import numpy as np

from .core import Assignment, CapacityError, ContractError, Game
from .strategy import Strategy

DEFAULT_LIMIT = 2 ** 64
CHUNK = 1 << 16
SAMPLE_BLOCK = 1 << 14


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
        if env:
            try:
                jobs = int(env)
            except ValueError:
                raise ContractError(f"HATS_JOBS must be an integer, got {env!r}") from None
        else:
            jobs = os.cpu_count() or 1
    return max(1, int(jobs))


def _index_space(game: Game, limit: int, what: str) -> int:
    """The color space, refused above ``limit`` or the uint64 index range."""
    total = game.color_space
    limit = min(limit, DEFAULT_LIMIT)
    if total > limit:
        raise CapacityError(
            f"too large for {what}: {total} assignments exceeds limit {limit}", total
        )
    return total


def _decode_chunk(game: Game, lo: int, size: int) -> dict[str, np.ndarray]:
    idx = np.arange(lo, lo + size, dtype=np.uint64)
    colors = {}
    place = 1
    for v, h in zip(game.graph.vertices, game.hat_tuple):
        colors[v] = (idx // np.uint64(place)) % np.uint64(h)
        place *= h
    return colors


def _sample_block(game: Game, seed: int, lo: int, size: int) -> dict[str, np.ndarray]:
    """Colors for samples [lo, lo+size) of the seeded Philox stream.

    Block starts must keep the word offset divisible by four (Philox
    advances in four-word counter steps); SAMPLE_BLOCK guarantees that.
    """
    nverts = len(game.graph.vertices)
    word_offset = 2 * nverts * lo
    bits = np.random.Philox(key=seed)
    if word_offset:
        bits.advance(word_offset // 4)
    raw = bits.random_raw(2 * nverts * size).reshape(size, nverts, 2)
    colors = {}
    for i, (v, h) in enumerate(zip(game.graph.vertices, game.hat_tuple)):
        hu = np.uint64(h)
        carry = np.uint64((2 ** 64) % h)
        colors[v] = ((raw[:, i, 0] % hu) * carry + raw[:, i, 1] % hu) % hu
    return colors


def _correct_counts(game: Game, strategy: Strategy,
                    colors: Mapping[str, np.ndarray]) -> np.ndarray:
    guesses = strategy.guesses_batch(colors)
    counts = None
    for v in game.graph.vertices:
        eq = guesses[v] == colors[v]
        counts = eq.astype(np.int32) if counts is None else counts + eq
    return counts


def _sweep(game: Game, strategy: Strategy, source: Callable, total: int, size: int,
           jobs: Optional[int], stop_at_zero: bool):
    """Histogram of correct counts over the blocks of [0, total) swept,
    and (index, assignment) of the lowest index nobody guesses, or None.

    ``source(lo, n)`` gives the colors at indices lo .. lo + n - 1.
    """
    if strategy.game != game:
        raise ContractError("strategy was built for a different game")
    if size < 1:
        raise ContractError(f"block size must be positive, got {size}")
    verts = game.graph.vertices
    hist = np.zeros(len(verts) + 1, dtype=np.int64)
    lock = threading.Lock()
    cursor = 0
    zero = None

    def run_block(lo: int) -> None:
        # A call of its own frees the block's arrays before the next draw.
        nonlocal zero
        colors = source(lo, min(size, total - lo))
        counts = _correct_counts(game, strategy, colors)
        local = np.bincount(counts, minlength=len(hist))
        found = None
        if local[0]:
            row = int(np.argmin(counts))
            found = (lo + row, {v: int(colors[v][row]) for v in verts})
        with lock:
            hist[:] += local
            if found and (zero is None or found[0] < zero[0]):
                zero = found

    def work() -> None:
        nonlocal cursor
        try:
            while True:
                with lock:
                    if cursor >= total or (stop_at_zero and zero is not None):
                        return
                    lo, cursor = cursor, cursor + size
                run_block(lo)
        finally:
            # Returning means nothing is left to draw; raising must stop all.
            with lock:
                cursor = total

    workers = min(resolve_jobs(jobs), -(-total // size))
    if workers == 1:
        work()
        return hist, zero
    # The calling thread only waits: sharing the blocks with it measured
    # about 10% slower on the trefoil sweep at two jobs.
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(work) for _ in range(workers)]
        try:
            for future in futures:
                future.result()
        finally:
            with lock:
                cursor = total
    return hist, zero


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
