"""Exhaustive and sampled verification that a strategy wins.

One sweep loop serves all three entry points.  A source hands each block
of consecutive indices to the strategy's per-block hook
(``Strategy._correct_counts``), which counts the correct guesses at each
assignment with its compiled program.  A verify sweep reduces each block
to its least count and its first assignment nobody guesses; a histogram
sweep to its histogram of counts.  An exhaustive block holds up to
``chunk`` assignments, CHUNK = 2**19 by default.  The calling thread runs
the first block and times it; when the other blocks would take less than
_SERIAL_SECONDS at that pace, it runs them too, and otherwise worker
threads run them.  The calling thread merges the results in block order, so memory stays at one
block per worker and the first counterexample merged is the lowest-index
one; the sweep stops there.  The report names the lowest-index
counterexample, sets ``checked`` to its index + 1, and is identical across
chunk sizes and job counts, so whether workers start cannot change it.

Exhaustive sources read the assignment index (mixed radix, first vertex
least significant, so ``limit`` is clamped to 2**64) as a box plan.  The
leading rows whose hatnesses multiply to P at most one block are full
axes; the next row is cut into runs of block // P colors; each row above
it is fixed within a block and decoded from the block's start as a Python
int.  A block is a box, an array with one axis per full row and one for
the run, so no index is ever divided and no row is tiled: a digit of a
full row is its hatness's arange along its axis, one of the run is the
run's colors, one of a fixed row is a single element, and each form
broadcasts over only the axes it reads.  The axes are laid out with the
rows most sages read outermost, so a row broadcast against a whole block
runs numpy's inner loop over the other rows; a block's counts are read in
index order through a transpose.  What reads only full rows is the same
in every block and is made once per sweep by its first block, which runs
in the calling thread before any worker starts: the full rows' digits,
the correct guesses of the sages that read nothing else, and each part of
a form that reads nothing else (see ``strategy._settled``).  The
program's rows stay in the narrow dtypes of its forms (see
``strategy``), so a block compares narrow guesses with narrow colors.  A
counterexample is decoded exactly from its index.

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
from typing import Callable, Iterator, Optional

import numpy as np

from .core import Assignment, CapacityError, ContractError, Game, assignment_at, require_int
from .strategy import Program, Strategy, _narrow, _settled, _steps

DEFAULT_LIMIT = 2 ** 64
MAX_JOBS = 256
CHUNK = 1 << 19
SAMPLE_BLOCK = 1 << 14
PHILOX_DRAW = 1 << 11  # samples drawn at once: keeps the raw words small next to the colors
_SERIAL_SECONDS = 0.05  # a sweep whose blocks after its first take less runs in one thread


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
            # The CPUs this process may run on, which taskset or a cpuset
            # can make fewer than the machine's.
            if hasattr(os, "sched_getaffinity"):
                cpus = len(os.sched_getaffinity(0))
            else:
                cpus = os.cpu_count() or 1
            return min(cpus, MAX_JOBS)
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


def _summed(parts, dtype) -> np.ndarray:
    """The sum of ``parts`` (correct-guess indicators, or sums of them) in
    ``dtype``, in their broadcast shape, or a one-element 0.  Parts of one
    shape are summed at that shape; the sums are then added to a
    one-element 0, smallest first."""
    groups = {}
    for part in parts:
        same = groups.get(part.shape)
        groups[part.shape] = part if same is None else np.add(same, part, dtype=dtype)
    total = np.zeros(1, dtype)
    for part in sorted(groups.values(), key=np.size):
        total = np.add(total, part, dtype=dtype)
    return total


class _Boxes:
    """The exhaustive index space as box-shaped blocks of at most ``size``
    indices.  Rows 0 .. k-1, whose hatnesses multiply to P = places[k] <=
    size, are full axes; row k is cut into runs of ``width`` = size // P
    colors, its axis; each row above k is fixed within a block, and a full
    row of hatness 1 takes no axis.  A block's indices are consecutive.
    Its axes are laid out with the rows that most sages read outermost
    (ties in index order), so that a row broadcast against a whole block
    runs numpy's inner loop over the rows it does not vary on; ``order``
    reads the axes in index order.

    The full rows' digits, the correct guesses of the sages that read only
    full rows, and each part of a form that reads only full rows, are the
    same in every block: they are made once per sweep, by its first
    block."""

    def __init__(self, game: Game, size: int):
        hats, graph = game.hat_tuple, game.graph
        self.game, self.total = game, game.color_space
        self.places = (1, *itertools.accumulate(hats, operator.mul))
        k = 0
        while k < len(hats) and self.places[k + 1] <= size:
            k += 1
        self.split, self.width = k, size // self.places[k]
        rows = [r for r in reversed(range(k + 1)) if r == k or hats[r] > 1]  # k may be len(hats)
        read = {r: len(graph.adjacency[graph.vertices[r]]) if r < len(hats) else 0 for r in rows}
        layout = sorted(rows, key=read.get, reverse=True)
        self.axis = {r: a for a, r in enumerate(layout)}
        self.order = tuple(self.axis[r] for r in rows)
        self.shape = tuple(1 if r == k else hats[r] for r in layout)
        self.blocks = 1 if k == len(hats) else self.total // self.places[k + 1] * -(-hats[k] // self.width)
        self.count_dtype = np.min_scalar_type(len(hats))
        self._full, self._hoisted = {}, {}

    def run(self, lo: int) -> tuple[int, int]:
        """The first color of the split row in the block at ``lo``, and how
        many it holds."""
        if self.split == len(self.game.hat_tuple):
            return 0, 1
        h = self.game.hat_tuple[self.split]
        first = lo // self.places[self.split] % h
        return first, min(self.width, h - first)

    def starts(self) -> Iterator[int]:
        lo = 0
        while lo < self.total:
            yield lo
            lo += self.run(lo)[1] * self.places[self.split]

    def block(self, lo: int) -> _Box:
        return _Box(self, lo)

    def along(self, row: int, colors: np.ndarray, steps) -> np.ndarray:
        """A digit of ``colors`` of ``row``, narrow, along the row's axis."""
        shape = [1] * len(self.shape)
        if row in self.axis:
            shape[self.axis[row]] = -1
        return _narrow(_steps(colors, steps)).reshape(shape)

    def full(self, digit) -> np.ndarray:
        """A full row's digit, made once per sweep."""
        got = self._full.get(digit)
        if got is None:
            row, steps = digit
            colors = np.arange(self.game.hat_tuple[row], dtype=np.uint64)
            got = self._full.setdefault(digit, self.along(row, colors, steps))
        return got

    def hoisted(self, program: Program) -> tuple[np.ndarray, tuple]:
        """How many sages that read only full rows guess right (a row that
        broadcasts to the full rows' shape), and (row, form) of each other
        sage, with the parts that read only full rows made."""
        got = self._hoisted.get(program)
        if got is None:
            values = self.block(0)

            def known(form) -> Optional[np.ndarray]:
                return form(values) if all(row < self.split for row, _ in form.digits) else None

            hits, rest = [], []
            for i, form in enumerate(program.forms):
                row = known(form) if i < self.split else None
                if row is None:
                    rest.append((i, _settled(form, known)))
                else:
                    hits.append(row == values[i, ()])
            counts = _summed(hits, self.count_dtype)
            got = self._hoisted.setdefault(program, (counts, tuple(rest)))
        return got


class _Box(dict):
    """The block of an exhaustive sweep that starts at index ``lo``, as the
    digits its forms read; each is made when first read.  A digit of a full
    row lies along its axis, one of the split row is the block's run of its
    colors along that row's axis, and one of a fixed row is one element."""

    def __init__(self, boxes: _Boxes, lo: int):
        super().__init__(boxes._full)
        self.boxes, self.lo, self.order = boxes, lo, boxes.order
        self.first, run = boxes.run(lo)
        shape = list(boxes.shape)
        shape[boxes.axis[boxes.split]] = run
        self.shape = tuple(shape)

    def __missing__(self, digit) -> np.ndarray:
        row, steps = digit
        boxes = self.boxes
        if row < boxes.split:
            got = boxes.full(digit)
        elif row == boxes.split:
            got = boxes.along(row, np.arange(self.shape[boxes.axis[row]], dtype=np.uint64)
                              + np.uint64(self.first), steps)
        else:
            color = self.lo // boxes.places[row] % boxes.game.hat_tuple[row]
            got = boxes.along(row, np.array([color], dtype=np.uint64), steps)
        self[digit] = got
        return got

    @property
    def colors(self) -> list[np.ndarray]:
        return [self[i, ()] for i in range(len(self.boxes.game.hat_tuple))]

    def count(self, program: Program) -> np.ndarray:
        counts, rest = self.boxes.hoisted(program)
        hits = [form(self) == self[i, ()] for i, form in rest]
        return _summed([counts, *hits], self.boxes.count_dtype)

    def assignment(self, col: int) -> Assignment:
        return assignment_at(self.boxes.game, self.lo + col)


class _Drawn:
    """A block of drawn colors: row i of the (V, n) unsigned ``colors`` is
    vertex i's."""

    def __init__(self, game: Game, colors: np.ndarray):
        self.game, self.colors, self.shape, self.order = game, colors, colors.shape[1:], (0,)

    def count(self, program: Program) -> np.ndarray:
        values = program.values(self.colors)
        hits = (form(values) == color for form, color in zip(program.forms, self.colors))
        return _summed(hits, np.min_scalar_type(len(self.colors)))

    def assignment(self, col: int) -> Assignment:
        return {v: int(c) for v, c in zip(self.game.graph.vertices, self.colors[:, col])}


class _Samples:
    """Samples 0 .. total - 1 of the seeded Philox stream, in blocks of
    SAMPLE_BLOCK."""

    def __init__(self, game: Game, seed: int, total: int):
        self.game, self.seed, self.total = game, seed, total
        self.blocks = -(-total // SAMPLE_BLOCK)

    def starts(self) -> range:
        return range(0, self.total, SAMPLE_BLOCK)

    def block(self, lo: int) -> _Drawn:
        return _Drawn(self.game, _sample_block(self.game, self.seed, lo, min(SAMPLE_BLOCK, self.total - lo)))


def decode_block(game: Game, lo: int, size: int) -> np.ndarray:
    """The (V, size) uint64 colors at indices lo .. lo + size - 1, decoded
    exactly: row i is index // place_i % h_i, and 0 where place_i is 2**64
    or more."""
    index = np.arange(size, dtype=np.uint64) + np.uint64(lo)
    colors = np.zeros((len(game.hat_tuple), size), dtype=np.uint64)
    place = 1
    for row, h in zip(colors, game.hat_tuple):
        if place < 2 ** 64:
            np.floor_divide(index, np.uint64(place), out=row)
            if h < 2 ** 64:  # else the quotient is below h already
                row %= np.uint64(h)
        place *= h
    return colors


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


def _in_order(run_block: Callable, starts, workers: int, blocks: int):
    """``run_block`` of every start, in start order, of ``blocks`` starts.
    The first block runs in the calling thread, so what a sweep makes once
    (the compiled program, full-row digits, hoisted counts) is made there,
    before any worker starts.  If the other blocks would take less than
    _SERIAL_SECONDS at the first block's pace, they run there too: a
    worker would cost more than it saves.  Otherwise several workers keep
    up to ``2 * workers`` blocks submitted; closing cancels those not yet
    started."""
    starts = iter(starts)
    began = time.perf_counter()
    first = [run_block(lo) for lo in itertools.islice(starts, 1)]
    if (time.perf_counter() - began) * (blocks - 1) < _SERIAL_SECONDS:
        workers = 1
    yield from first
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


def _sweep(game: Game, strategy: Strategy, source, jobs: Optional[int], tally: Callable):
    """``tally(lo, block, counts)`` of each block of ``source``, in index
    order, where ``counts`` holds how many sages guess right at each
    assignment of the block, in the block's shape."""
    if not isinstance(strategy, Strategy) or strategy.game != game:
        raise ContractError(f"expected a Strategy built for this game, got {type(strategy).__name__}")

    def run_block(lo: int):
        # A call of its own frees the block's arrays before the next draw.
        block = source.block(lo)
        return tally(lo, block, np.broadcast_to(strategy._correct_counts(block), block.shape))

    return _in_order(run_block, source.starts(), min(resolve_jobs(jobs), source.blocks), source.blocks)


def _least(lo: int, block, counts: np.ndarray) -> tuple:
    """A block's least count, and (index, assignment) of its first
    assignment that nobody guesses, or None."""
    least = int(counts.min())
    if least:
        return least, None
    col = int(np.argmin(counts.transpose(block.order)))
    return 0, (lo + col, block.assignment(col))


def _bincount(lo: int, block, counts: np.ndarray) -> np.ndarray:
    """A block's histogram of counts."""
    return np.bincount(counts.reshape(-1))


def _verify(mode: str, game: Game, strategy: Strategy, source, jobs: Optional[int]) -> VerifyReport:
    start = time.perf_counter()
    low, zero = len(game.hat_tuple), None
    with closing(_sweep(game, strategy, source, jobs, _least)) as results:
        for least, zero in results:
            low = min(low, least)
            if zero:
                break
    return VerifyReport(
        mode=mode,
        checked=source.total if zero is None else zero[0] + 1,
        counterexample=None if zero is None else zero[1],
        min_correct=low,
        seconds=time.perf_counter() - start,
    )


def _boxes(game: Game, limit: int, chunk: int, what: str) -> _Boxes:
    total, chunk = _index_space(game, limit, what), require_int("chunk", chunk)
    if chunk < 1:
        raise ContractError(f"block size must be positive, got {chunk}")
    return _Boxes(game, min(chunk, total))


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
    return _verify("exhaustive", game, strategy, _boxes(game, limit, chunk, "exhaustive verification"), jobs)


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
    return _verify("sampled", game, strategy, _Samples(game, seed, samples), jobs)


def win_histogram(game: Game, strategy: Strategy, *,
                  limit: int = DEFAULT_LIMIT,
                  jobs: Optional[int] = None,
                  chunk: int = CHUNK) -> dict[int, int]:
    """Distribution of the number of correct guesses over all assignments.

    Bucket 0 is empty exactly when the strategy wins.
    """
    boxes = _boxes(game, limit, chunk, "a win histogram")
    hist = np.zeros(len(game.hat_tuple) + 1, dtype=np.int64)
    with closing(_sweep(game, strategy, boxes, jobs, _bincount)) as results:
        for local in results:
            hist[:len(local)] += local
    return {count: int(freq) for count, freq in enumerate(hist) if freq}
