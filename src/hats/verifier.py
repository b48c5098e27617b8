"""Exhaustive and sampled verification that a strategy wins.

One sweep loop serves all three entry points.  A source hands each block
of consecutive indices to the strategy's per-block hook
(``Strategy._correct_counts``), which counts the correct guesses in each
column with its compiled program; the block returns its histogram of
those counts and its lowest counterexample.  Worker threads run the
blocks and the calling thread merges the results in block order, so
memory stays at one block per worker and the first counterexample merged
is the lowest-index one; the sweep stops there.  The report names the
lowest-index counterexample, sets ``checked`` to its index + 1, and is
identical across chunk sizes and job counts.

Exhaustive sources read the assignment index (mixed radix, first vertex
least significant, so ``limit`` is clamped to 2**64) as periodic rows:
row i's color at index t is (t // place_i) % h_i, which repeats every
place_i * h_i indices.  Each row whose period is at most TILE_PERIOD, and
each digit a program reads of it, is one tile per sweep in the narrowest
unsigned dtype, one period plus one block long, so a block reads it as a
slice.  A row with a longer period is built per block from the runs of
equal quotients t // place_i, with np.repeat.  No tile grows with the
color space.  The leading rows whose hatnesses multiply to P at most
TILE_PERIOD (and at most one block) settle every sage whose own row and
inputs lie among them, as a function of t mod P; the correct guesses of
those sages are counted once per sweep, and each block evaluates only the
rest.  Tiles and those counts are one period repeated with np.tile, made
by the sweep's first block, which runs in the calling thread before any
worker starts.  The program's rows stay in the narrow dtypes of its forms
(see ``strategy``), so a block compares narrow guesses with narrow
colors.  A counterexample is decoded exactly from its index.

Sampled verification draws colors with the Philox counter-based
generator so reports are reproducible: sample s of vertex i consumes the
two 64-bit words at stream positions 2*(s*V + i) and 2*(s*V + i) + 1,
and the color is their 128-bit value reduced modulo the hatness, exactly
in uint64 for hatnesses up to 2**32 (larger ones raise CapacityError),
and kept in the narrowest unsigned dtype that holds every color.
A counterexample found by sampling disproves the strategy; a clean run
is evidence only, never a proof.
"""

from __future__ import annotations

import itertools
import json
import operator
import os
import time
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .core import Assignment, CapacityError, ContractError, Game, assignment_at, require_int
from .strategy import Program, Strategy, _narrow, _steps

DEFAULT_LIMIT = 2 ** 64
MAX_JOBS = 256
CHUNK = 1 << 16
SAMPLE_BLOCK = 1 << 14
PHILOX_DRAW = 1 << 11  # samples drawn at once: keeps the raw words small next to the colors
# Longest period of a row read from a tile, and of the leading rows whose
# sages are counted once per sweep: a tile stays within one default block
# plus one block.
TILE_PERIOD = CHUNK


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
    if not 1 <= require_int("jobs", jobs) <= MAX_JOBS:
        raise ContractError(f"jobs must be in [1, {MAX_JOBS}], got {jobs}")
    return int(jobs)


def _index_space(game: Game, limit: int, what: str) -> int:
    """The color space, refused above ``limit`` or the uint64 index range;
    a ``limit`` below 1 is a usage error."""
    if require_int("limit", limit) < 1:
        raise ContractError(f"limit must be at least 1, got {limit}")
    total = game.color_space
    limit = min(limit, DEFAULT_LIMIT)
    if total > limit:
        raise CapacityError(
            f"too large for {what}: {total} assignments exceeds limit {limit}", total
        )
    return total


def _tally(counts: np.ndarray, rows, values: dict) -> np.ndarray:
    """Add to ``counts`` the correct guesses of each (form, colors) row."""
    for form, color in rows:
        counts += form(values, len(counts)) == color
    return counts


def _tiled(period: np.ndarray, length: int) -> np.ndarray:
    """``period`` repeated to ``length`` entries."""
    return np.tile(period, -(-length // len(period)))[:length]


class _Periodic:
    """The exhaustive index as periodic rows, for one sweep in blocks of at
    most ``size`` indices.  Tiles are built when a block first reads them
    (a sweep's first block, in the calling thread) and shared by every
    worker.  The first ``prefix`` rows repeat with period P =
    places[prefix].
    """

    def __init__(self, game: Game, size: int):
        self.game, self.size = game, size
        self.places = (1, *itertools.accumulate(game.hat_tuple, operator.mul))
        self.count_dtype = np.min_scalar_type(len(game.hat_tuple))
        self.prefix = 0
        while self.prefix < len(game.hat_tuple) and self.places[self.prefix + 1] <= min(TILE_PERIOD, size):
            self.prefix += 1
        self.period = self.places[self.prefix]
        self._tiles, self._hoisted = {}, {}

    def block(self, lo: int, n: int) -> _Slice:
        return _Slice(self, lo, n)

    def digit(self, digit, lo: int, n: int) -> np.ndarray:
        """A digit's values at indices lo .. lo + n - 1, narrow unsigned."""
        row, steps = digit
        place, h = self.places[row], self.game.hat_tuple[row]
        if place * h <= TILE_PERIOD:
            tile = self._tiles.get(digit)
            if tile is None:
                lut = _narrow(_steps(np.arange(h, dtype=np.uint64), steps))
                tile = self._tiles.setdefault(digit, _tiled(np.repeat(lut, place), place * h + self.size))
            start = lo % (place * h)
            return tile[start:start + n]
        # Quotients first .. last, each held for a run of up to ``place`` indices.
        first, last = lo // place, (lo + n - 1) // place
        runs = np.arange(last - first + 1, dtype=np.uint64) + np.uint64(first)
        if last >= h:  # else every quotient is its own color, and h may be 2**64
            runs %= np.uint64(h)
        lengths = np.full(len(runs), min(place, n), dtype=np.intp)
        lengths[0] = min(n, (first + 1) * place - lo)
        if last > first:
            lengths[-1] = lo + n - last * place
        return np.repeat(_narrow(_steps(runs, steps)), lengths)

    def hoisted(self, program: Program) -> tuple[Optional[np.ndarray], frozenset]:
        """The rows of the sages settled by the prefix rows, and their
        correct guesses at every index mod P, tiled to P + size (None when
        there are none)."""
        got = self._hoisted.get(program)
        if got is None:
            k = self.prefix
            rows = frozenset(i for i, form in enumerate(program.forms[:k])
                             if all(row < k for row, _ in form.digits))
            tile = None
            if rows:
                block = self.block(0, self.period)
                counts = _tally(np.zeros(self.period, self.count_dtype),
                                ((program.forms[i], block[i, ()]) for i in sorted(rows)), block)
                tile = _tiled(counts, self.period + self.size)
            got = self._hoisted.setdefault(program, (tile, rows))
        return got


class _Slice(dict):
    """Indices lo .. lo + n - 1 of an exhaustive sweep, as the digits its
    forms read; each is made when first read."""

    def __init__(self, source: _Periodic, lo: int, n: int):
        super().__init__()
        self.source, self.lo, self.n = source, lo, n

    def __missing__(self, digit) -> np.ndarray:
        self[digit] = got = self.source.digit(digit, self.lo, self.n)
        return got

    @property
    def colors(self) -> list[np.ndarray]:
        return [self[i, ()] for i in range(len(self.source.game.hat_tuple))]

    def count(self, program: Program) -> np.ndarray:
        tile, hoisted = self.source.hoisted(program)
        if tile is None:
            counts = np.zeros(self.n, self.source.count_dtype)
        else:
            start = self.lo % self.source.period
            counts = tile[start:start + self.n].copy()
        rows = ((form, self[i, ()]) for i, form in enumerate(program.forms) if i not in hoisted)
        return _tally(counts, rows, self)

    def assignment(self, col: int) -> Assignment:
        return assignment_at(self.source.game, self.lo + col)


class _Drawn:
    """A block of drawn colors: row i of the (V, n) unsigned ``colors`` is
    vertex i's."""

    def __init__(self, game: Game, colors: np.ndarray):
        self.game, self.colors, self.n = game, colors, colors.shape[1]

    def count(self, program: Program) -> np.ndarray:
        counts = np.zeros(self.n, np.min_scalar_type(len(self.colors)))
        return _tally(counts, zip(program.forms, self.colors), program.values(self.colors))

    def assignment(self, col: int) -> Assignment:
        return {v: int(c) for v, c in zip(self.game.graph.vertices, self.colors[:, col])}


def decode_block(game: Game, lo: int, size: int) -> np.ndarray:
    """The (V, size) uint64 colors at indices lo .. lo + size - 1, read
    the way the exhaustive sweep reads them."""
    return np.array(_Periodic(game, size).block(lo, size).colors, dtype=np.uint64)


def _sample_block(game: Game, seed: int, lo: int, size: int) -> np.ndarray:
    """Colors for samples [lo, lo+size) of the seeded Philox stream, one
    row per vertex, in the narrowest unsigned dtype that holds them.

    Block starts must keep the word offset divisible by four (Philox
    advances in four-word counter steps); SAMPLE_BLOCK guarantees that.
    """
    nverts = len(game.graph.vertices)
    bits = np.random.Philox(key=seed, counter=2 * nverts * lo // 4)
    hats = np.array(game.hat_tuple, dtype=np.uint64)[:, None]
    carry = np.array([2 ** 64 % h for h in game.hat_tuple], dtype=np.uint64)[:, None]
    colors = np.empty((nverts, size), dtype=np.min_scalar_type(max(game.hat_tuple) - 1))
    for start in range(0, size, PHILOX_DRAW):
        part = colors[:, start:start + PHILOX_DRAW]
        # Word k of vertex i in sample s, as (k, i, s) views of the draw.
        raw = bits.random_raw(2 * part.size).reshape(-1, nverts, 2).transpose(2, 1, 0)
        np.remainder((raw[0] % hats) * carry + raw[1] % hats, hats, out=part)
    return colors


def _in_order(run_block: Callable, starts, workers: int):
    """``run_block`` of every start, in start order.  The first block runs
    in the calling thread, so what a sweep makes once (the compiled
    program, tiles, hoisted counts) is made there, before any worker
    starts.  Several workers then keep up to ``2 * workers`` blocks
    submitted; closing cancels those not yet started."""
    starts = iter(starts)
    yield from map(run_block, itertools.islice(starts, 1))
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

    ``source(lo, n)`` gives the block of indices lo .. lo + n - 1.
    """
    if strategy.game != game:
        raise ContractError("strategy was built for a different game")
    if size < 1:
        raise ContractError(f"block size must be positive, got {size}")
    verts = game.graph.vertices

    def run_block(lo: int):
        # A call of its own frees the block's arrays before the next draw.
        block = source(lo, min(size, total - lo))
        counts = strategy._correct_counts(block)
        local = np.bincount(counts, minlength=len(verts) + 1)
        zero = None
        if local[0]:
            col = int(np.argmin(counts))
            zero = (lo + col, block.assignment(col))
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
    total, chunk = _index_space(game, limit, "exhaustive verification"), require_int("chunk", chunk)
    return _verify("exhaustive", game, strategy, _Periodic(game, min(chunk, total)).block,
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
    samples, seed = require_int("samples", samples), require_int("seed", seed)
    if samples < 1:
        raise ContractError("need at least one sample")
    if not 0 <= seed < 2 ** 128:
        raise ContractError(f"seed must be in [0, 2**128), got {seed}")
    top = max(game.hat_tuple)
    if top > 2 ** 32:
        raise CapacityError(
            f"hatness {top} is too large for sampling: exact up to 2**32", top
        )
    def source(lo: int, n: int) -> _Drawn:
        return _Drawn(game, _sample_block(game, seed, lo, n))

    return _verify("sampled", game, strategy, source, samples, SAMPLE_BLOCK, jobs)


def win_histogram(game: Game, strategy: Strategy, *,
                  limit: int = DEFAULT_LIMIT,
                  jobs: Optional[int] = None,
                  chunk: int = CHUNK) -> dict[int, int]:
    """Distribution of the number of correct guesses over all assignments.

    Bucket 0 is empty exactly when the strategy wins.
    """
    total, chunk = _index_space(game, limit, "a win histogram"), require_int("chunk", chunk)
    hist, _ = _sweep(game, strategy, _Periodic(game, min(chunk, total)).block, total, chunk,
                     jobs, stop_at_zero=False)
    return {count: int(freq) for count, freq in enumerate(hist) if freq}
