import itertools
import json
import math
import os
import random
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from hats.constructors import game_26666, windmill
from hats.core import (
    CapacityError,
    ContractError,
    Game,
    Graph,
    assignment_at,
    assignment_index,
    complete_graph,
)
from hats.strategy import Strategy, TableStrategy, clique_strategy, k5minus_strategy
from hats.verifier import (
    CHUNK,
    MAX_JOBS,
    SAMPLE_BLOCK,
    VerifyReport,
    decode_block,
    _Boxes,
    verify_exhaustive,
    verify_sampled,
    win_histogram,
)
from conftest import naive_verify


def clique(hats):
    names = tuple(f"v{i}" for i in range(len(hats)))
    return Game(complete_graph(names), dict(zip(names, hats)))


def all_zeros_strategy(game):
    tables = {}
    for v in game.graph.vertices:
        patterns = 1
        for u in game.graph.adjacency[v]:
            patterns *= game.h(u)
        tables[v] = (0,) * patterns
    return TableStrategy(game, tables)


class AlwaysWrong(Strategy):
    """Guesses one above the true color, so nobody is ever right."""

    def __init__(self, game):
        self.game = game

    def _guesses(self, colors):
        return [(row + 1) % h for row, h in zip(colors, self.game.hat_tuple)]

    def _correct_counts(self, block):
        return sum(guess == row for guess, row in zip(self._guesses(block.colors), block.colors))


class NeverRight(AlwaysWrong):
    """Guesses one above the true color without wrapping, so even a sage
    of hatness 1 is wrong."""

    def _guesses(self, colors):
        return [row + 1 for row in colors]


def without_seconds(report):
    doc = report.to_json()
    del doc["seconds"]
    return doc


def losing_k2_23_pair():
    """The [2, 3] edge game with the [2, 2] guessing rule carried over:
    a legal strategy, but the game is losing so a counterexample exists."""
    game = clique([2, 3])
    return game, TableStrategy(game, {"v0": (0, 1, 0), "v1": (1, 0)})


CORPUS = []


def _build_corpus():
    if CORPUS:
        return CORPUS
    for hats in ([2, 2], [2, 3, 6], [3, 3, 3], [2, 4, 4], [1, 5]):
        game = clique(hats)
        CORPUS.append((f"clique{hats}", game, clique_strategy(game)))
    game, strategy = losing_k2_23_pair()
    CORPUS.append(("k2-23-carried", game, strategy))
    for hats in ([2, 2], [2, 3]):
        game = clique(hats)
        CORPUS.append((f"zeros{hats}", game, all_zeros_strategy(game)))
    g26666 = game_26666()
    CORPUS.append(("26666", g26666.game, g26666.strategy))
    w32 = windmill(3, 2)
    CORPUS.append(("windmill32", w32.game, w32.strategy))
    return CORPUS


class TestVerifyExhaustive:
    def test_k5minus_sweep(self):
        game, strategy = k5minus_strategy()
        report = verify_exhaustive(game, strategy, jobs=1)
        assert report.mode == "exhaustive"
        assert report.checked == 16464
        assert report.counterexample is None
        assert report.min_correct == 1

    def test_26666_sweep(self):
        composed = game_26666()
        report = verify_exhaustive(composed.game, composed.strategy, jobs=1)
        assert report.checked == 2592
        assert report.counterexample is None

    def test_losing_game_yields_counterexample(self):
        game, strategy = losing_k2_23_pair()
        report = verify_exhaustive(game, strategy, jobs=1)
        assert report.counterexample is not None
        assert report.min_correct == 0
        guesses = strategy.guesses(report.counterexample)
        assert all(guesses[v] != report.counterexample[v] for v in game.graph.vertices)

    def test_capacity_error(self):
        game = clique([100, 100, 100])
        strategy = clique_strategy(clique([2, 2]))
        with pytest.raises(CapacityError) as err:
            verify_exhaustive(game, all_zeros_strategy(game), limit=10 ** 4)
        assert err.value.size == 10 ** 6

    def test_game_strategy_mismatch(self):
        game = clique([2, 2])
        other = clique_strategy(clique([2, 3, 6]))
        with pytest.raises(ContractError):
            verify_exhaustive(game, other)

    @pytest.mark.parametrize("entry", ["verify_exhaustive", "verify_sampled", "win_histogram", "evaluate"])
    def test_missing_or_foreign_strategy_refused(self, entry):
        # A losing build has no strategy; a build is not a strategy either.
        from hats.constructors import clique_game
        from hats.strategy import evaluate

        losing = clique_game([2, 3])
        assert losing.strategy is None
        game = losing.game
        calls = {"verify_exhaustive": lambda s: verify_exhaustive(game, s, jobs=1),
                 "verify_sampled": lambda s: verify_sampled(game, s, 16, seed=0, jobs=1),
                 "win_histogram": lambda s: win_histogram(game, s, jobs=1),
                 "evaluate": lambda s: evaluate(s, {v: 0 for v in game.graph.vertices})}
        for strategy in (None, losing):
            with pytest.raises(ContractError, match="expected a Strategy"):
                calls[entry](strategy)

    def test_report_serialization(self):
        game, strategy = k5minus_strategy()
        report = verify_exhaustive(game, strategy, jobs=1)
        doc = json.loads(report.dumps())
        assert set(doc) == {"mode", "checked", "counterexample", "min_correct", "seconds"}
        assert doc["mode"] == "exhaustive"
        assert doc["checked"] == 16464
        assert doc["counterexample"] is None
        assert doc["min_correct"] == 1


class TestOracleAgreement:
    @pytest.mark.parametrize("name,game,strategy", _build_corpus(),
                             ids=[c[0] for c in _build_corpus()])
    def test_parallel_matches_naive(self, name, game, strategy):
        assert game.color_space <= 10 ** 4
        reference = naive_verify(game, strategy)
        for jobs, chunk in ((1, 1 << 16), (4, 64), (2, 7)):
            report = verify_exhaustive(game, strategy, jobs=jobs, chunk=chunk)
            if reference.counterexample_index is None:
                assert report.counterexample is None
                assert report.min_correct == reference.min_correct
            else:
                assert report.counterexample is not None
                found = assignment_index(game, report.counterexample)
                assert found == reference.counterexample_index
                assert report.min_correct == 0

    @pytest.mark.parametrize("name,game,strategy", _build_corpus(),
                             ids=[c[0] for c in _build_corpus()])
    def test_histogram_matches_naive(self, name, game, strategy):
        reference = naive_verify(game, strategy)
        hist = win_histogram(game, strategy, jobs=2, chunk=128)
        assert hist == reference.histogram

    def test_chunk_invariance(self):
        zeros = clique([3, 3, 3, 3])  # first counterexample: all ones, index 40
        for game, strategy in (losing_k2_23_pair(), (zeros, all_zeros_strategy(zeros))):
            reports = [
                without_seconds(verify_exhaustive(game, strategy, jobs=j, chunk=c))
                for j, c in ((1, 6), (1, 1), (2, 2), (3, 5), (1, 4), (2, 7), (1, 64))
            ]
            assert all(r == reports[0] for r in reports)
            found = assignment_index(game, reports[0]["counterexample"])
            assert reports[0]["checked"] == found + 1
        assert reports[0]["checked"] == 41

    def test_shared_cursor_under_contention(self):
        # More workers than cores and a tiny switch interval: a block merged
        # twice, skipped or out of order would change the results.
        game, strategy = k5minus_strategy()
        zeros = clique([3, 3, 3, 3])
        results = []

        def sweep():
            results.append(win_histogram(game, strategy, jobs=8, chunk=16))
            results.append(without_seconds(verify_exhaustive(
                zeros, all_zeros_strategy(zeros), jobs=8, chunk=1)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            thread = threading.Thread(target=sweep)
            thread.start()
            thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not thread.is_alive()
        hist, report = results
        assert hist == win_histogram(game, strategy, jobs=1)
        assert sum(hist.values()) == 16464
        assert report["checked"] == 41


class TestBoundedSweep:
    def test_full_uint64_index_range_stops_at_first_block(self):
        # 2**64 assignments: the sweep must draw blocks lazily, not list them.
        game = clique([2] * 64)
        report = verify_exhaustive(game, AlwaysWrong(game), jobs=2)
        assert report.checked == 1
        assert report.counterexample == {v: 0 for v in game.graph.vertices}

    def test_color_space_of_exactly_2_64(self):
        # In the first game, the last sage's place value is 2**64, above
        # every index and outside uint64: its row decodes to zeros.  In the
        # second, a hatness of 2**64 (outside uint64) is above every digit.
        for hats in ([2] * 64 + [1], [1, 2 ** 64]):
            game = clique(hats)
            report = verify_exhaustive(game, NeverRight(game), jobs=2)
            assert report.checked == 1
            lo = 2 ** 64 - 16
            colors = decode_block(game, lo, 16)
            for col in range(16):
                decoded = {v: int(c) for v, c in zip(game.graph.vertices, colors[:, col])}
                assert decoded == assignment_at(game, lo + col)

    def test_allocation_bounded_by_one_block(self):
        # A block holds one narrow row per vertex; no array may grow with
        # the 2**64 color space.  One uint64 (V, CHUNK) color matrix would be
        # twice the bound.
        game = clique([2] * 64)
        tracemalloc.start()
        try:
            report = verify_exhaustive(game, AlwaysWrong(game), jobs=1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.checked == 1
        assert peak <= 4 * len(game.hat_tuple) * CHUNK

    def test_limit_clamped_to_uint64_index_range(self):
        game = clique([2] * 65)
        with pytest.raises(CapacityError) as err:
            verify_exhaustive(game, AlwaysWrong(game), limit=2 ** 70, jobs=2)
        assert err.value.size == 2 ** 65

    @pytest.mark.parametrize("value", [True, 2.5, "2"])
    @pytest.mark.parametrize("name", ["samples", "seed", "jobs", "limit", "chunk", "max_nodes"])
    def test_non_integer_arguments_refused(self, name, value):
        from hats.solver import SearchBudget

        game = clique([2, 2])
        strategy = clique_strategy(game)
        calls = {
            "samples": [lambda x: verify_sampled(game, strategy, x, 0)],
            "seed": [lambda x: verify_sampled(game, strategy, 4, x)],
            "jobs": [lambda x: verify_exhaustive(game, strategy, jobs=x),
                     lambda x: verify_sampled(game, strategy, 4, 0, jobs=x)],
            "limit": [lambda x: verify_exhaustive(game, strategy, limit=x),
                      lambda x: win_histogram(game, strategy, limit=x)],
            "chunk": [lambda x: verify_exhaustive(game, strategy, chunk=x),
                      lambda x: win_histogram(game, strategy, chunk=x)],
            "max_nodes": [lambda x: SearchBudget(max_nodes=x)],
        }
        for call in calls[name]:
            with pytest.raises(ContractError, match=f"{name} must be an integer"):
                call(value)

    def test_nonpositive_chunk_refused(self):
        game = clique([2, 2])
        with pytest.raises(ContractError):
            verify_exhaustive(game, clique_strategy(game), chunk=0)

    @pytest.mark.parametrize("limit", [0, -1])
    def test_nonpositive_limit_refused(self, limit):
        game = clique([2, 2])
        with pytest.raises(ContractError, match="limit"):
            verify_exhaustive(game, clique_strategy(game), limit=limit)
        with pytest.raises(ContractError, match="limit"):
            win_histogram(game, clique_strategy(game), limit=limit)


@st.composite
def bounded_hats(draw):
    """1 to 6 hatnesses with a product of at most 2**64, mixing 1, small
    ones, ones around 2**16 and one that may fill the index range."""
    hats = draw(st.lists(st.sampled_from([1, 2, 3, 6, 7, 255, 256, 300, 1 << 16, (1 << 16) + 1]),
                         min_size=1, max_size=5))
    while math.prod(hats) > 2 ** 64:
        hats.pop()
    top = draw(st.sampled_from([None, 2 ** 40, 2 ** 64 // math.prod(hats)]))
    if top is not None and top * math.prod(hats) <= 2 ** 64:
        hats.insert(draw(st.integers(0, len(hats))), top)
    return hats


def _plan(hats, chunk):
    """The box plan of clique(hats) at ``chunk`` (clamped to the color
    space, as the sweep clamps it), and its P, the size of the full rows."""
    boxes = _Boxes(clique(hats), min(chunk, math.prod(hats)))
    return boxes, boxes.places[boxes.split]


def _block_of(boxes, t):
    """The block that holds index t: it starts at t with the full rows'
    digits zeroed and the split row's color rounded down to a multiple of
    the width."""
    full = boxes.places[boxes.split]
    if boxes.split == len(boxes.game.hat_tuple):
        return boxes.block(0)
    run = t // full % boxes.game.hat_tuple[boxes.split]
    return boxes.block(t - t % full - run % boxes.width * full)


def _raveled(block, x):
    """``x`` broadcast to ``block``, its axes in index order, raveled: the
    value at each index of the block, in index order."""
    return np.broadcast_to(x, block.shape).transpose(block.order).reshape(-1)


SIZES = st.sampled_from([1, 7, 64, 1 << 16])


@st.composite
def plan_cases(draw):
    hats = draw(st.one_of(
        st.just([1, 2 ** 64]),
        st.just([2] * 64 + [1]),  # the last row's place is 2**64
        st.just([3, 2 ** 20, 2, 5]),  # a split row of 2**20 colors
        bounded_hats(),
    ))
    _, period = _plan(hats, 1 << 16)
    return hats, draw(st.one_of(SIZES, st.sampled_from([max(period - 1, 1), period, period + 1])))


@st.composite
def decode_cases(draw):
    hats, chunk = draw(plan_cases())
    total = math.prod(hats)
    lo = draw(st.one_of(st.integers(0, total - 1), st.integers(max(0, total - 40), total - 1)))
    n = draw(st.integers(1, min(total - lo, 48)))
    steps = draw(st.lists(st.tuples(st.integers(1, 7), st.one_of(st.none(), st.integers(1, 7))),
                          max_size=2))
    return hats, chunk, lo, n, tuple(steps)


class TestPeriodicDecode:
    """Each row, and each digit a program reads of it, along a full axis, as
    the split row's run or as a fixed row's one color, must equal the exact
    decode of every index of the block it belongs to."""

    @given(decode_cases())
    @example(([1, 2 ** 64], 1 << 16, 2 ** 64 - 16, 16, ((1, 7),)))
    @example(([2] * 64 + [1], 7, 2 ** 64 - 7, 7, ((2, None),)))
    def test_colors_and_digits_match_assignment_at(self, case):
        hats, chunk, lo, n, steps = case
        game = clique(hats)
        boxes, _ = _plan(hats, chunk)
        want = [assignment_at(game, lo + col) for col in range(n)]
        decoded = decode_block(game, lo, n)
        blocks = {}
        for t in range(lo, lo + n):
            block = _block_of(boxes, t)
            blocks.setdefault(block.lo, (block, []))[1].append(t)
        for block, indices in blocks.values():
            assert block.lo <= indices[0] and indices[-1] < block.lo + math.prod(block.shape)
            cols = [t - block.lo for t in indices]
            for i, v in enumerate(game.graph.vertices):
                color, digit = block[i, ()], block[i, steps]
                assert color.dtype.kind == digit.dtype.kind == "u"
                expect = [want[t - lo][v] for t in indices]
                assert [int(c) for c in _raveled(block, color)[cols]] == expect
                for div, mod in steps:
                    expect = [x // div if mod is None else x // div % mod for x in expect]
                assert [int(x) for x in _raveled(block, digit)[cols]] == expect
        for i, v in enumerate(game.graph.vertices):
            assert [int(c) for c in decoded[i]] == [a[v] for a in want]

    @given(plan_cases())
    @example(([1, 2 ** 64], 1 << 16))
    @example(([2] * 64 + [1], 7))
    @example(([3, 2 ** 20, 2, 5], 1 << 16))
    def test_blocks_cover_the_index_range_once_in_order(self, case):
        # Every block starts where the one before it ends, holds at most
        # chunk indices, and the last ends at the color space; a plan too
        # long to walk is walked for its first blocks.
        hats, chunk = case
        boxes, _ = _plan(hats, chunk)
        total, end, seen = math.prod(hats), 0, 0
        for lo in itertools.islice(boxes.starts(), 4096):
            assert lo == end
            block = boxes.block(lo)
            size = math.prod(block.shape)
            assert 1 <= size <= chunk
            assert _block_of(boxes, lo + size - 1).lo == lo
            end, seen = lo + size, seen + 1
        if boxes.blocks <= 4096:
            assert (end, seen) == (total, boxes.blocks)
        else:
            assert seen == 4096 and end < total


def _batch_reference(game, strategy, size=CHUNK):
    """Histogram and lowest zero of the uint64 batch path, decoding every
    index exactly: independent of the box plan and hoisting."""
    hist, zero = {}, None
    for lo in range(0, game.color_space, size):
        colors = decode_block(game, lo, min(size, game.color_space - lo))
        counts = sum(g == c for g, c in zip(strategy.guesses_batch(colors), colors))
        for count, freq in enumerate(np.bincount(counts)):
            if freq:
                hist[count] = hist.get(count, 0) + int(freq)
        if zero is None and (counts == 0).any():
            zero = lo + int(np.argmin(counts))
    return hist, zero


def _tabulated(strategy):
    """``strategy`` as a TableStrategy, from its batch path over each
    vertex's neighbor patterns (every other row at 0)."""
    game, tables = strategy.game, {}
    for i, v in enumerate(game.graph.vertices):
        near = [game.graph.index[u] for u in game.graph.adjacency[v]]
        spans = [game.hat_tuple[j] for j in near]
        patterns = np.arange(math.prod(spans), dtype=np.uint64)
        colors = np.zeros((len(game.hat_tuple), len(patterns)), dtype=np.uint64)
        for j, h in zip(near, spans):
            colors[j], patterns = patterns % np.uint64(h), patterns // np.uint64(h)
        tables[v] = tuple(int(g) for g in strategy.guesses_batch(colors)[i])
    return TableStrategy(game, tables)


def _planted(strategy, hoisted):
    """``strategy`` tabulated, then wrong at the lowest assignment whose only
    correct guess came from a hoisted row: only that row could have saved it."""
    game = strategy.game
    table = _tabulated(strategy)
    colors = decode_block(game, 0, game.color_space)
    correct = np.array([g == c for g, c in zip(strategy.guesses_batch(colors), colors)])
    lone = [(col, int(np.argmax(correct[:, col]))) for col in np.flatnonzero(correct.sum(axis=0) == 1)]
    col, row = next((col, row) for col, row in lone if row in hoisted)
    v = game.graph.vertices[row]
    assignment = assignment_at(game, int(col))
    tables = dict(table.tables)
    cells = list(tables[v])
    cells[table.pattern_index(v, assignment)] = (assignment[v] + 1) % game.h(v)
    tables[v] = tuple(cells)
    return TableStrategy(game, tables), int(col)


def _hoisted(boxes, program):
    """The rows of the sages the plan counts once per sweep."""
    _, rest = boxes.hoisted(program)
    return set(range(len(program.forms))) - {i for i, _ in rest}


class TestPeriodicSweep:
    """Sages that read only full rows are counted once per sweep; reports
    and histograms must still equal the oracles for block sizes around P
    (the full rows' size) and for blocks cut from the split row."""

    @staticmethod
    def _check(game, strategy, reference, chunks):
        for chunk in chunks:
            for jobs in (1, 2):
                report = verify_exhaustive(game, strategy, jobs=jobs, chunk=chunk)
                if reference.counterexample_index is None:
                    assert report.counterexample is None
                    assert report.checked == game.color_space
                else:
                    assert report.counterexample == reference.counterexample
                    assert report.checked == reference.counterexample_index + 1
                assert report.min_correct == reference.min_correct
                assert win_histogram(game, strategy, jobs=jobs, chunk=chunk) == reference.histogram

    @pytest.mark.parametrize("seed", [2, 23, 27, 37, 42, 44, 45, 48, 53, 58])
    def test_random_compositions_match_naive(self, seed):
        from test_strategy import random_composition

        composed = random_composition(random.Random(seed))
        game, strategy = composed.game, composed.strategy
        assert game.color_space <= 3000
        boxes = _Boxes(game, 64)
        period = boxes.places[boxes.split]
        assert _hoisted(boxes, strategy._program)
        reference = naive_verify(game, strategy)
        assert _batch_reference(game, strategy) == (reference.histogram, reference.counterexample_index)
        chunks = sorted({1, 7, max(period - 1, 1), period, period + 1, 1 << 16})
        self._check(game, strategy, reference, chunks)

    def test_planted_counterexample_only_a_hoisted_sage_could_save(self):
        from hats.dsl import elaborate, parse

        composed = elaborate(parse("product(clique[2,3,6]@v2, clique[2,3,6]@v0)"))
        game = composed.game
        boxes = _Boxes(game, 72)  # P = 2 * 3 * 12
        hoisted = _hoisted(boxes, composed.strategy._program)
        assert boxes.places[boxes.split] == 72 and hoisted == {0, 1}
        planted, index = _planted(composed.strategy, hoisted)
        reference = naive_verify(game, planted)
        assert reference.counterexample_index == index
        self._check(game, planted, reference, (7, 71, 72, 73, 215, 216, 217, 1 << 16))

    def test_blocks_across_periods_match_the_batch_path(self):
        self._check_across_periods(((CHUNK, 1), (CHUNK, 2), (50000, 2), (42337, 1)))

    @staticmethod
    def _check_across_periods(runs):
        # 592,704 assignments, P = 42,336 at the default block: each block
        # is one color of the split row, and the hoisted counts are read
        # by every block.
        from hats.dsl import elaborate, parse

        composed = elaborate(parse("product(clique[2,3,6]@v0, k5minus@A2)"))
        game = composed.game
        boxes = _Boxes(game, CHUNK)
        hoisted = _hoisted(boxes, composed.strategy._program)
        assert boxes.places[boxes.split] == 42336 and hoisted == {1, 2, 5}
        for strategy in (composed.strategy, _planted(composed.strategy, hoisted)[0]):
            hist, zero = _batch_reference(game, strategy)
            for chunk, jobs in runs:
                report = verify_exhaustive(game, strategy, jobs=jobs, chunk=chunk)
                assert report.checked == (game.color_space if zero is None else zero + 1)
                assert report.counterexample == (None if zero is None else assignment_at(game, zero))
                assert report.min_correct == min(hist)
                assert win_histogram(game, strategy, jobs=jobs, chunk=chunk) == hist

    @staticmethod
    def _freeze_shared(monkeypatch):
        """Make read-only every array that a sweep's blocks share: the full
        rows' digits, the hoisted counts and the rows of ``Known`` parts.
        Returns the frozen arrays, by kind."""
        from hats.strategy import Known

        frozen = {"full": [], "counts": [], "known": []}

        def freeze(kind, x):
            x.setflags(write=False)
            frozen[kind].append(x)
            return x

        def freeze_known(form):
            if isinstance(form, Known):
                freeze("known", form.row)
            for part in (*getattr(form, "parts", ()), *getattr(form, "choices", ()),
                         *(f for f, _ in getattr(form, "hits", ()))):
                freeze_known(part)

        full, hoisted = _Boxes.full, _Boxes.hoisted

        def frozen_hoisted(self, program):
            counts, rest = hoisted(self, program)
            freeze("counts", counts)
            for _, form in rest:
                freeze_known(form)
            return counts, rest

        monkeypatch.setattr(_Boxes, "full", lambda self, digit: freeze("full", full(self, digit)))
        monkeypatch.setattr(_Boxes, "hoisted", frozen_hoisted)
        return frozen

    @pytest.mark.parametrize("build", ["random-composition", "across-periods"])
    def test_frozen_shared_arrays_give_the_same_reports(self, build, monkeypatch):
        # No block may write into what the other blocks, in any thread, read.
        from test_strategy import random_composition

        frozen = self._freeze_shared(monkeypatch)
        if build == "random-composition":
            composed = random_composition(random.Random(23))
            reference = naive_verify(composed.game, composed.strategy)
            self._check(composed.game, composed.strategy, reference, (7, 64, 1 << 16))
        else:
            self._check_across_periods(((CHUNK, 1), (CHUNK, 2)))
        assert frozen["full"] and frozen["counts"] and frozen["known"]


def _box_forms():
    """One form of each kind, its game and a block size.  The synthetic
    forms read clique[3,2,5,4,7]: at 12 per block, rows 0 and 1 are full,
    row 2 is split and rows 3 and 4 are fixed.  The Leaf is
    clique[2,2,70000]'s v0, too wide to tabulate."""
    from hats.dsl import elaborate, parse
    from hats.strategy import Gather, Leaf, Select, Sum

    rng = np.random.default_rng(19)
    digits = ((0, ()), (1, ()), (2, ((1, 3),)), (3, ()), (4, ((2, None),)))
    spans = (3, 2, 2, 4, 4)

    def gather(*picked):
        weights = [math.prod(spans[j] for j in picked[:k]) for k in range(len(picked))]
        table = rng.integers(0, 9, math.prod(spans[j] for j in picked), dtype=np.uint64)
        return Gather(table, tuple(digits[j] for j in picked), tuple(weights))

    game = clique([3, 2, 5, 4, 7])
    a, b, c = gather(0, 3), gather(2, 4, 1), gather(4)
    wide = elaborate(parse("clique[2,2,70000]"))
    leaf = wide.strategy._program.forms[0]
    assert isinstance(leaf, Leaf)
    return {
        "Gather": (game, gather(1, 2, 0, 4, 3), 12),
        "Sum": (game, Sum((1, 9), (a, b), 50), 12),
        "Select": (game, Select(((a, digits[3]), (b, digits[2])), (c, a)), 12),
        "Leaf": (wide.game, leaf, 4096),
    }


@pytest.mark.parametrize("kind", ["Gather", "Sum", "Select", "Leaf"])
def test_form_on_broadcast_digits_matches_the_raveled_block(kind):
    # A form evaluated on a block's broadcast digits gives, at each index,
    # what the same form gives on the block's digits raveled to one row.
    # Blocks share their digits, so no form may write into one.
    game, form, chunk = _box_forms()[kind]
    boxes = _Boxes(game, chunk)
    starts = list(itertools.islice(boxes.starts(), 3))
    for lo in (*starts, game.color_space - 1):
        block = _block_of(boxes, lo)
        for d in form.digits:
            block[d].setflags(write=False)
        got = form(block)
        flat = {d: _raveled(block, block[d]) for d in form.digits}
        assert len(got.shape) == len(block.shape)
        if kind == "Leaf":
            assert got.shape == np.broadcast_shapes(*(block[d].shape for d in form.digits))
        np.testing.assert_array_equal(_raveled(block, got), form(flat))


class Recording(Strategy):
    """Wraps a strategy and records, per block, its thread and the number
    of threads alive; with ``fail`` set, raises on every block instead."""

    def __init__(self, inner, fail=False):
        self.game, self.inner, self.fail = inner.game, inner, fail
        self.threads, self.alive = [], []

    def _correct_counts(self, block):
        self.threads.append(threading.get_ident())
        self.alive.append(threading.active_count())
        if self.fail:
            raise RuntimeError("block failed")
        return self.inner._correct_counts(block)


class Sleeping(Recording):
    """A Recording whose every block first sleeps 20 ms, or 200 ms for a
    block that starts at an index in ``slow``: at that pace a sweep of a
    few blocks is long enough to start its workers."""

    def __init__(self, inner, slow=()):
        super().__init__(inner)
        self.slow = slow

    def _correct_counts(self, block):
        time.sleep(0.2 if block.lo in self.slow else 0.02)
        return super()._correct_counts(block)


class TestInOrderSweep:
    def test_one_job_runs_in_the_calling_thread(self):
        game, strategy = k5minus_strategy()
        recording = Recording(strategy)
        # Boxes of 84 full-row assignments: rows 3 and 4 (14 colors each)
        # are split into runs of 11 and 3 colors, and fixed, so 28 blocks.
        win_histogram(game, recording, jobs=1, chunk=1000)
        assert len(recording.threads) == 28
        assert set(recording.threads) == {threading.get_ident()}

    def test_threads_bounded_by_blocks(self):
        # 16464 assignments, 1176 in the full rows: the last row's 14
        # colors in three runs of at most 5.
        game, strategy = k5minus_strategy()
        recording = Recording(strategy)
        before = threading.active_count()
        win_histogram(game, recording, jobs=8, chunk=1176 * 5)
        assert len(recording.threads) == 3
        assert max(recording.alive) <= before + 3

    def test_no_block_started_past_one_window_after_a_counterexample(self):
        # Index 0 is a counterexample; 1024 blocks of one assignment each.
        game = clique([2] * 10)
        recording = Recording(AlwaysWrong(game))
        report = verify_exhaustive(game, recording, jobs=2, chunk=1)
        assert report.checked == 1
        assert len(recording.threads) <= 2 * 2

    def test_raising_block_stops_the_sweep(self):
        game = clique([2] * 10)
        recording = Recording(AlwaysWrong(game), fail=True)
        with pytest.raises(RuntimeError, match="block failed"):
            win_histogram(game, recording, jobs=2, chunk=1)
        assert len(recording.threads) <= 2 * 2

    def test_slow_blocks_run_on_workers_in_order(self):
        # k5minus in 14 blocks of 1176, one color of the last row each.
        game, strategy = k5minus_strategy()
        caller = threading.get_ident()
        recording = Sleeping(strategy)
        hist = win_histogram(game, recording, jobs=2, chunk=1176)
        assert hist == win_histogram(game, strategy, jobs=1, chunk=1176)
        assert len(recording.threads) == 14 and recording.threads[0] == caller
        assert len(set(recording.threads[1:]) - {caller}) == 2
        recording = Sleeping(strategy)
        report = verify_exhaustive(game, recording, jobs=2, chunk=1176)
        assert without_seconds(report) == without_seconds(verify_exhaustive(game, strategy, jobs=1))
        assert len(set(recording.threads[1:]) - {caller}) == 2

    def test_slow_blocks_stop_one_window_past_a_late_counterexample(self):
        # 27 blocks of 3 assignments; the first counterexample, all ones at
        # index 40, is in block 13, so 14 blocks must run.  Block 13 is slow
        # and later blocks hold counterexamples too: while it runs, the
        # other worker runs ahead to the end of the window, and a result
        # merged out of order would change the report.
        zeros = clique([3, 3, 3, 3])
        strategy = all_zeros_strategy(zeros)
        recording = Sleeping(strategy, slow={39})
        report = verify_exhaustive(zeros, recording, jobs=2, chunk=3)
        assert without_seconds(report) == without_seconds(verify_exhaustive(zeros, strategy, jobs=1))
        assert report.checked == 41
        assert len(set(recording.threads[1:]) - {threading.get_ident()}) == 2
        assert 14 <= len(recording.threads) <= 14 + 2 * 2

    def test_short_sweep_stays_in_the_calling_thread(self):
        # 14 blocks of about 0.1 ms each, once the program is compiled: the
        # other 13 take a few ms, far below the bound at which workers start.
        game, strategy = k5minus_strategy()
        expected = win_histogram(game, strategy, jobs=1, chunk=1176)
        recording = Recording(strategy)
        before = threading.active_count()
        assert win_histogram(game, recording, jobs=2, chunk=1176) == expected
        assert len(recording.threads) == 14
        assert set(recording.threads) == {threading.get_ident()}
        assert set(recording.alive) == {before}


class TestWinHistogram:
    def test_exact_covering_k2(self):
        game = clique([2, 2])
        hist = win_histogram(game, clique_strategy(game), jobs=1)
        assert hist == {1: 4}

    def test_all_zeros_on_k1(self):
        game = clique([2])
        hist = win_histogram(game, all_zeros_strategy(game), jobs=1)
        assert hist == {0: 1, 1: 1}

    def test_k5minus_bucket_zero_empty(self):
        game, strategy = k5minus_strategy()
        hist = win_histogram(game, strategy, jobs=2)
        assert 0 not in hist
        assert sum(hist.values()) == 16464
        assert min(hist) == 1

    def test_bucket_zero_iff_counterexample(self):
        game, strategy = losing_k2_23_pair()
        hist = win_histogram(game, strategy, jobs=1)
        report = verify_exhaustive(game, strategy, jobs=1)
        assert (0 in hist) == (report.counterexample is not None)

    def test_degenerate_single_assignment_game(self):
        game = clique([1, 1])
        strategy = clique_strategy(game)
        assert win_histogram(game, strategy, jobs=1) == {2: 1}
        report = verify_exhaustive(game, strategy, jobs=1)
        assert report.checked == 1 and report.counterexample is None


class TestJobsResolution:
    def test_env_overrides_default(self, monkeypatch):
        from hats.verifier import resolve_jobs

        monkeypatch.setenv("HATS_JOBS", "3")
        assert resolve_jobs(None) == 3
        assert resolve_jobs(1) == 1  # explicit flag wins over the env
        monkeypatch.delenv("HATS_JOBS")
        assert resolve_jobs(None) >= 1

    @pytest.mark.parametrize("jobs", [0, -1, MAX_JOBS + 1, 100_000])
    def test_out_of_range_refused(self, monkeypatch, jobs):
        from hats.verifier import resolve_jobs

        with pytest.raises(ContractError, match="jobs"):
            resolve_jobs(jobs)
        monkeypatch.setenv("HATS_JOBS", str(jobs))
        with pytest.raises(ContractError, match="jobs"):
            resolve_jobs(None)

    def test_default_counts_the_cpus_this_process_may_use(self, monkeypatch):
        from hats.verifier import resolve_jobs

        monkeypatch.delenv("HATS_JOBS", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 9}, raising=False)
        assert resolve_jobs(None) == 3
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(MAX_JOBS + 44)))
        assert resolve_jobs(None) == MAX_JOBS
        monkeypatch.setenv("HATS_JOBS", "5")
        assert resolve_jobs(None) == 5
        monkeypatch.delenv("HATS_JOBS")
        monkeypatch.delattr(os, "sched_getaffinity")  # as on macOS and Windows
        assert resolve_jobs(None) == 64
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert resolve_jobs(None) == 1

    def test_bounds_accepted(self, monkeypatch):
        from hats.verifier import resolve_jobs

        monkeypatch.delenv("HATS_JOBS", raising=False)
        assert resolve_jobs(1) == 1
        assert resolve_jobs(MAX_JOBS) == MAX_JOBS
        assert 1 <= resolve_jobs(None) <= MAX_JOBS


class TestVerifySampled:
    def test_broken_strategy_found_fast(self):
        game = clique([2, 2])
        report = verify_sampled(game, all_zeros_strategy(game), 100, seed=123, jobs=1)
        assert report.mode == "sampled"
        assert report.counterexample == {"v0": 1, "v1": 1}

    def test_same_seed_identical_report(self):
        composed = game_26666()
        a = verify_sampled(composed.game, composed.strategy, 5000, seed=9, jobs=1)
        b = verify_sampled(composed.game, composed.strategy, 5000, seed=9, jobs=4)
        assert a.checked == b.checked == 5000
        assert a.counterexample == b.counterexample is None
        assert a.min_correct == b.min_correct

    def test_different_seeds_differ(self):
        # Not a hard guarantee, but two seeds agreeing on every sampled
        # minimum for this game would mean the seed is being ignored.
        game, strategy = k5minus_strategy()
        mins = {
            verify_sampled(game, strategy, 50, seed=s, jobs=1).min_correct
            for s in range(6)
        }
        assert len(mins) >= 1  # sanity; the real check is determinism above

    def test_failing_report_identical_across_jobs(self):
        game = clique([3, 3, 3, 3])
        strategy = all_zeros_strategy(game)
        reports = [
            without_seconds(verify_sampled(game, strategy, 3 * SAMPLE_BLOCK, seed=2, jobs=j))
            for j in (1, 2, 3)
        ]
        assert all(r == reports[0] for r in reports)
        assert reports[0]["counterexample"] is not None
        assert reports[0]["checked"] < SAMPLE_BLOCK

    @pytest.mark.parametrize("seed", [-1, 2 ** 128])
    def test_seed_range_validated(self, seed):
        game = clique([2, 2])
        with pytest.raises(ContractError):
            verify_sampled(game, clique_strategy(game), 10, seed=seed)

    @pytest.mark.parametrize("big", [2 ** 33, 2 ** 64])
    def test_hatness_beyond_exact_reduction_refused(self, big):
        game = clique([1, big])
        with pytest.raises(CapacityError) as err:
            verify_sampled(game, clique_strategy(game), 10, seed=0, jobs=1)
        assert err.value.size == big

    @pytest.mark.parametrize("extra", [[], [53]])
    def test_clique_modulus_beyond_2_63_refused(self, extra):
        # lcm 9.84e18 (between 2**63 and 2**64) once wrapped into a false
        # counterexample; with 53 added it raised a raw OverflowError.
        game = clique([32, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47] + extra)
        with pytest.raises(CapacityError):
            verify_sampled(game, clique_strategy(game), 100, seed=0, jobs=1)

    def test_clique_modulus_just_below_2_63_is_exact(self):
        from hats.verifier import _sample_block

        game = clique([16, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
        strategy = clique_strategy(game)
        assert 2 ** 62 < strategy.modulus <= 2 ** 63
        colors = _sample_block(game, seed=0, lo=0, size=40)
        batch = strategy.guesses_batch(colors)
        for row in range(40):
            index = game.graph.index
            assignment = {v: int(colors[index[v]][row]) for v in game.graph.vertices}
            assert strategy.guesses(assignment) == {
                v: int(batch[index[v]][row]) for v in game.graph.vertices
            }
        assert verify_sampled(game, strategy, 2000, seed=0, jobs=1).counterexample is None

    def test_wide_clique_sweeps_row_by_row(self, monkeypatch):
        # No vertex of this clique fits a table, so each runs its own row of
        # the arithmetic, never the whole clique's batch path.
        import numpy as np

        from hats.strategy import CliqueArithStrategy

        game = clique([16, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
        strategy = clique_strategy(game)
        # Every color at its top: the largest partial checksums.
        top = [np.array([h - 1], dtype=np.uint64) for h in game.hat_tuple]
        guesses = strategy.guesses({v: h - 1 for v, h in game.hatness.items()})
        assert [int(row[0]) for row in strategy.guesses_batch(top)] == list(guesses.values())
        want = verify_sampled(game, strategy, 4096, seed=3, jobs=1).to_json()

        def whole_batch(self, colors):
            raise AssertionError("the sweep ran the whole clique's batch path")

        monkeypatch.setattr(CliqueArithStrategy, "guesses_batch", whole_batch)
        got = verify_sampled(game, clique_strategy(game), 4096, seed=3, jobs=1).to_json()
        assert want["counterexample"] is None
        assert {**got, "seconds": 0} == {**want, "seconds": 0}

    def test_sample_count_validated(self):
        game = clique([2, 2])
        with pytest.raises(ContractError):
            verify_sampled(game, clique_strategy(game), 0, seed=1)

    def test_sampling_matches_color_ranges(self):
        game = clique([2, 3, 6])
        report = verify_sampled(game, clique_strategy(game), 2000, seed=5, jobs=1)
        assert report.checked == 2000
        assert report.counterexample is None

    def test_block_generation_matches_full_stream(self):
        # The documented generator contract: sample s of vertex i uses
        # words 2(sV+i) and 2(sV+i)+1, so chunking cannot change colors.
        import numpy as np

        from hats.verifier import SAMPLE_BLOCK, _sample_block

        game = clique([2, 3, 14])
        full = _sample_block(game, seed=77, lo=0, size=2 * SAMPLE_BLOCK + 100)
        parts = [
            _sample_block(game, seed=77, lo=0, size=SAMPLE_BLOCK),
            _sample_block(game, seed=77, lo=SAMPLE_BLOCK, size=SAMPLE_BLOCK),
            _sample_block(game, seed=77, lo=2 * SAMPLE_BLOCK, size=100),
        ]
        for v in game.graph.vertices:
            i = game.graph.index[v]
            joined = np.concatenate([p[i] for p in parts])
            assert (joined == full[i]).all()

    def test_sampled_colors_match_documented_formula(self):
        # README: sample s of vertex i takes words w0, w1 at stream
        # positions 2(sV+i) and 2(sV+i)+1; its color is ((w0 << 64) | w1) % h.
        import numpy as np

        from hats.verifier import PHILOX_DRAW, _sample_block

        hats = [2, 3, 14, 2 ** 32 - 5, 2 ** 32]
        game = clique(hats)
        nverts, seed, lo, size = len(hats), 2 ** 100 + 7, 6, PHILOX_DRAW + 3
        colors = _sample_block(game, seed=seed, lo=lo, size=size)
        words = np.random.Philox(key=seed).random_raw(2 * nverts * (lo + size)).tolist()
        for s in range(lo, lo + size):
            for i, h in enumerate(hats):
                w0, w1 = words[2 * (s * nverts + i)], words[2 * (s * nverts + i) + 1]
                assert int(colors[i][s - lo]) == ((w0 << 64) | w1) % h, (s, h)

    def test_sampling_is_roughly_uniform(self):
        import numpy as np

        from hats.verifier import _sample_block

        game = clique([2, 3, 14])
        colors = _sample_block(game, seed=4, lo=0, size=30000)
        for v in game.graph.vertices:
            counts = np.bincount(colors[game.graph.index[v]].astype(int), minlength=game.h(v))
            expected = 30000 / game.h(v)
            assert counts.min() > expected * 0.8
            assert counts.max() < expected * 1.2
