import itertools
import math
import random
from fractions import Fraction
from typing import Mapping

import numpy as np
import pytest
from hypothesis import given, strategies as st

from hats.core import (
    CapacityError,
    ContractError,
    Game,
    Graph,
    StructureError,
    almost_complete_graph,
    complete_graph,
)
from hats import strategy as strategy_module
from hats.strategy import (
    CLIQUE_TABLE_SPAN,
    AdaptedStrategy,
    CliqueArithStrategy,
    ConeStrategy,
    Gather,
    Guess,
    K5_HATNESS,
    K5_VERTICES,
    K5MinusTrapStrategy,
    Leaf,
    ProductStrategy,
    Program,
    Select,
    Strategy,
    Sum,
    TableStrategy,
    TrapRow,
    TrapTable,
    adapt_majorized,
    clique_strategy,
    cyclic_interval,
    evaluate,
    k5minus_game,
    k5minus_strategy,
    load_trap_table,
    shipped_trap_table,
    validate_trap_table,
)
from hats.verifier import _sample_block, decode_block
from conftest import naive_verify


def clique(hats):
    names = tuple(f"v{i}" for i in range(len(hats)))
    return Game(complete_graph(names), dict(zip(names, hats)))


def batch_of(game, assignments):
    return [
        np.array([a[v] for a in assignments], dtype=np.uint64)
        for v in game.graph.vertices
    ]


def random_colors(game, rng, n):
    return np.stack([rng.integers(0, h, n, dtype=np.uint64) for h in game.hat_tuple])


def all_assignments(game):
    from hats.core import assignment_at

    return [assignment_at(game, i) for i in range(game.color_space)]


def assert_paths_agree(strategy):
    """Scalar scanning path and vectorized closed forms must match
    everywhere; this is the oracle for the batch arithmetic."""
    game = strategy.game
    assignments = all_assignments(game)
    batch = strategy.guesses_batch(batch_of(game, assignments))
    for row, assignment in enumerate(assignments):
        scalar = strategy.guesses(assignment)
        for v in game.graph.vertices:
            assert scalar[v] == int(batch[game.graph.index[v]][row]), (assignment, v)


class TestCliqueStrategy:
    def test_boundary_sum_exists(self):
        strategy = clique_strategy(clique([2, 3, 6]))
        assert strategy.modulus == 6
        assert strategy.coefficients == (3, 2, 1)

    def test_below_one_rejected(self):
        with pytest.raises(ContractError, match="41/42"):
            clique_strategy(clique([2, 3, 7]))

    def test_non_complete_rejected(self):
        game = Game(
            Graph(("a", "b", "c"), [("a", "b"), ("b", "c")]),
            {"a": 2, "b": 2, "c": 2},
        )
        with pytest.raises(StructureError):
            clique_strategy(game)

    def test_two_by_two_wins_all_four(self):
        game = clique([2, 2])
        strategy = clique_strategy(game)
        assert strategy.starts == (0, 1)
        sweep = naive_verify(game, strategy)
        assert sweep.counterexample_index is None

    def test_evaluate_k2_has_correct_guess(self):
        game = clique([2, 2])
        strategy = clique_strategy(game)
        guesses = evaluate(strategy, {"v0": 0, "v1": 0})
        assert any(g.color == {"v0": 0, "v1": 0}[g.vertex] for g in guesses)
        assert guesses == [Guess("v0", 0), Guess("v1", 1)]

    def test_hatness_one_vertex_guesses_zero(self):
        game = clique([1, 5])
        strategy = clique_strategy(game)
        for assignment in all_assignments(game):
            assert strategy.guess("v0", assignment) == 0

    def test_scalar_batch_agree(self):
        for hats in ([2, 2], [2, 3, 6], [3, 3, 3], [1, 4], [2, 4, 4], [4, 4, 4, 4]):
            assert_paths_agree(clique_strategy(clique(hats)))

    def test_coverage_sweep(self):
        """Every hatness vector under the size bound that satisfies the
        fractional criterion yields a strategy winning exhaustively."""
        checked = 0
        for n in range(1, 5):
            for hats in _vectors(n, 9):
                if math.prod(hats) > 3000:
                    continue
                if sum(Fraction(1, a) for a in hats) < 1:
                    continue
                game = clique(list(hats))
                sweep = naive_verify(game, clique_strategy(game))
                assert sweep.counterexample_index is None, hats
                checked += 1
        assert checked > 50

    def test_intervals_cover_modulus(self):
        # Laid end to end, the interval lengths sum to at least N, so
        # every checksum value lands in someone's interval.
        for hats in ([2, 2], [2, 3, 6], [3, 3, 3], [2, 2, 5], [2, 4, 5, 7]):
            strategy = clique_strategy(clique(hats))
            n = strategy.modulus
            covered = set()
            for start, length in zip(strategy.starts, strategy.coefficients):
                covered |= {(start + i) % n for i in range(length)}
            assert covered == set(range(n)), hats

    def test_coverage_sweep_large_instances(self):
        from hats.verifier import verify_exhaustive

        for hats in ([2] * 16, [2, 2, 3, 3, 4], [6] * 6):
            game = clique(hats)
            assert sum(Fraction(1, a) for a in hats) >= 1
            report = verify_exhaustive(game, clique_strategy(game), jobs=1)
            assert report.counterexample is None, hats


def _vectors(n, max_h):
    import itertools

    return itertools.combinations_with_replacement(range(1, max_h + 1), n)


def compiled_forms(program):
    """Every form of a compiled program: each vertex's, and within it each
    Sum's parts and each Select's hits and choices."""
    todo = list(program.forms)
    while todo:
        form = todo.pop()
        yield form
        todo.extend([*getattr(form, "parts", ()), *getattr(form, "choices", ()),
                     *(f for f, _ in getattr(form, "hits", ()))])


def strategy_nodes(strategy):
    """Every node of a strategy tree, the root first."""
    yield strategy
    if isinstance(strategy, ProductStrategy):
        children = (strategy.left, strategy.right)
    elif isinstance(strategy, ConeStrategy):
        children = (strategy.base, *strategy.petals)
    elif isinstance(strategy, AdaptedStrategy):
        children = (strategy.inner,)
    else:
        children = ()
    for child in children:
        yield from strategy_nodes(child)


def clique_spans(strategy):
    """Per vertex i of a clique strategy, span_i = 1 + sum_{j != i}
    c_j (a_j - 1): how many unreduced partial checksums sage i can see."""
    reach = [c * (a - 1) for c, a in zip(strategy.coefficients, strategy.game.hat_tuple)]
    return [1 + sum(reach) - r for r in reach]


def checksum_gathers(strategy):
    """Per vertex of a clique strategy, whether its compiled form is the
    gather on its partial checksum: span_i entries, keyed by the other
    vertices' colors weighted by their coefficients."""
    spans, out = clique_spans(strategy), []
    for i, form in enumerate(strategy._program.forms):
        others = [j for j in range(len(spans)) if j != i]
        out.append(isinstance(form, Gather) and len(form.table) == spans[i]
                   and form.digits == tuple((j, ()) for j in others)
                   and form.weights == tuple(strategy.coefficients[j] for j in others))
    return out


def both_clique_paths(game, colors, monkeypatch):
    """The compiled gather rows and the uint64 arithmetic rows of the
    clique strategy on ``colors``; the gather tables are built under a
    span bound raised far enough to admit them."""
    arith = clique_strategy(game).guesses_batch(colors)
    with monkeypatch.context() as patch:
        patch.setattr(strategy_module, "CLIQUE_TABLE_SPAN", 1 << 20)
        gathering = clique_strategy(game)
        assert all(checksum_gathers(gathering))
        gather = list(gathering._program.rows(colors))
    return gather, arith


def assert_same_rows(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.uint64
        np.testing.assert_array_equal(g, w)


class TestCliqueBatchPaths:
    """The compiled gather path (spans up to CLIQUE_TABLE_SPAN) and the
    uint64 arithmetic batch path must give the same rows, and both must
    agree with the scalar reference."""

    # [1, k] has largest span k (at v0); [2, 2, m], m odd, has 3m - 1.
    BELOW = ([1, CLIQUE_TABLE_SPAN], [2, 2, 21845])
    ABOVE = ([1, CLIQUE_TABLE_SPAN + 1], [2, 2, 21847])

    @pytest.mark.parametrize("hats", BELOW + ABOVE)
    def test_paths_straddling_the_span_bound(self, hats, monkeypatch):
        game = clique(hats)
        strategy = clique_strategy(game)
        # Each vertex gathers exactly when its own span fits.
        fits = [span <= CLIQUE_TABLE_SPAN for span in clique_spans(strategy)]
        assert checksum_gathers(strategy) == fits
        assert all(fits) == (hats in self.BELOW)
        colors = decode_block(game, 0, game.color_space)
        rows = strategy.guesses_batch(colors)
        gather, arith = both_clique_paths(game, colors, monkeypatch)
        assert_same_rows(rows, gather)
        assert_same_rows(rows, arith)
        # Scalar spot checks: the first and last assignments and a few between.
        rng = random.Random(sum(hats))
        picks = {0, game.color_space - 1, *(rng.randrange(game.color_space) for _ in range(4))}
        for col in sorted(picks):
            assignment = {v: int(colors[i, col]) for i, v in enumerate(game.graph.vertices)}
            for i, v in enumerate(game.graph.vertices):
                assert strategy.guess(v, assignment) == int(rows[i][col]), (col, v)

    @pytest.mark.parametrize("hats", [[1], [1, 1], [1, 5], [1, 2, 2], [2, 3, 6], [2, 4, 4]])
    def test_small_cliques_with_hatness_one(self, hats, monkeypatch):
        game = clique(hats)
        strategy = clique_strategy(game)
        assert all(checksum_gathers(strategy))
        assert_paths_agree(strategy)
        colors = decode_block(game, 0, game.color_space)
        gather, arith = both_clique_paths(game, colors, monkeypatch)
        assert_same_rows(strategy.guesses_batch(colors), arith)
        assert_same_rows(gather, arith)

    def test_sampled_batch_above_the_bound(self, monkeypatch):
        # Colors in no particular order, as the Philox source gives them.
        game = clique([2, 2, 21847])
        rng = np.random.default_rng(5)
        colors = np.stack([rng.integers(0, h, 4096, dtype=np.uint64) for h in game.hat_tuple])
        gather, arith = both_clique_paths(game, colors, monkeypatch)
        assert_same_rows(clique_strategy(game).guesses_batch(colors), gather)
        assert_same_rows(gather, arith)

    def test_paper_builds_take_the_table_path(self, trefoil_composed, planar14_composed):
        # Every form of the paper's builds, and of the benchmark's lowered
        # trefoil, is a gather or joins gathers: none runs a leaf's row.
        from hats.dsl import elaborate, parse
        from test_tooling import _bench_workloads

        lowered = elaborate(parse(_bench_workloads().SweepTrefoil(500).expression()))
        for composed in (trefoil_composed, planar14_composed, lowered):
            cliques = [node for node in strategy_nodes(composed.strategy)
                       if isinstance(node, CliqueArithStrategy)]
            assert len(cliques) >= 9
            assert all(all(checksum_gathers(node)) for node in cliques)
            program = composed.strategy._program
            forms = list(compiled_forms(program))
            assert len(forms) > len(program.forms)
            assert not any(isinstance(form, Leaf) for form in forms)


class TestCliqueVertexByVertex:
    """Each clique vertex compiles on its own: to the gather on its partial
    checksum when its own span fits, whatever the other vertices' spans."""

    # Spans by vertex: 79844, 63844, 47969, 47876; 65540, 65540, 43695;
    # 65537, 1.
    @pytest.mark.parametrize("hats", [[1, 2, 256, 1000], [2, 2, 21847], [1, 65537]])
    def test_vertex_whose_span_fits_gathers(self, hats):
        game = clique(hats)
        strategy = clique_strategy(game)
        fits = [span <= CLIQUE_TABLE_SPAN for span in clique_spans(strategy)]
        assert any(fits) and not all(fits)
        assert checksum_gathers(strategy) == fits
        colors = _sample_block(game, 3, 0, 4096)
        rows = list(strategy._program.rows(colors))
        assert_same_rows(rows, [strategy._row(i, colors) for i in range(len(hats))])
        for col in range(0, 4096, 128):
            assignment = {v: int(colors[i, col]) for i, v in enumerate(game.graph.vertices)}
            for i, v in enumerate(game.graph.vertices):
                assert strategy.guess(v, assignment) == int(rows[i][col]), (col, v)

    @pytest.mark.parametrize("hats", [[2 ** 64, 1], [2 ** 63 + 1, 1]])
    def test_no_table_past_2_63(self, hats):
        # v0's span is 1, but its table would compute modulo N > 2**63.
        from hats.constructors import clique_game
        from hats.verifier import verify_exhaustive

        built = clique_game(hats)
        with pytest.raises(CapacityError, match=r"clique modulus \d+ is too large"):
            verify_exhaustive(built.game, built.strategy)


def _dtype_cases():
    from hats.constructors import game_26666, windmill

    def adapter():
        return adapt_majorized(clique_strategy(clique([2, 4, 4])), {"v0": 2, "v1": 3, "v2": 4})

    return {
        "clique-arith": lambda: clique_strategy(clique([2, 3, 6])),
        "cone": lambda: game_26666().strategy,
        "product": lambda: windmill(3, 2).strategy,
        "majorize-adapter": adapter,
        "k5minus-trap": lambda: k5minus_strategy()[1],
        "table": lambda: TableStrategy(clique([2, 3]), {"v0": (0, 1, 0), "v1": (1, 2)}),
    }


def test_every_kind_defines_its_own_batch_path():
    # perfbench/tracing.py finds the kinds it traces by walking Strategy's
    # subclasses for a guesses_batch in the class body; a kind that only
    # inherited one would drop out of the per-layer metrics.
    found, todo = set(), [Strategy]
    while todo:
        for sub in todo.pop().__subclasses__():
            todo.append(sub)
            if "guesses_batch" in vars(sub):
                found.add(sub.kind)
    kinds = {"clique-arith", "k5minus-trap", "table", "majorize-adapter", "product", "cone"}
    assert set(_dtype_cases()) == kinds
    assert kinds <= found


@pytest.mark.parametrize("kind", ["clique-arith", "k5minus-trap", "table"])
def test_narrow_leaf_compiles_to_gathers(kind):
    # Every row of a narrow standalone leaf compiles to one table gather
    # (a clique row over its partial checksum), equal to its batch path.
    strategy = _dtype_cases()[kind]()
    assert all(type(form) is Gather for form in strategy._program.forms)
    colors = random_colors(strategy.game, np.random.default_rng(3), 97)
    assert_same_rows(list(strategy._program.rows(colors)), strategy.guesses_batch(colors))


@pytest.mark.parametrize("kind", ["clique-arith", "k5minus-trap", "table"])
def test_leaf_rows_are_its_batch(kind):
    strategy = _dtype_cases()[kind]()
    colors = random_colors(strategy.game, np.random.default_rng(4), 97)
    batch = strategy.guesses_batch(colors)
    assert_same_rows([strategy._row(i, colors) for i in range(len(colors))], batch)


@pytest.mark.parametrize("kind", ["k5minus-trap", "table"])
def test_standalone_leaf_compiles_from_its_rows(kind, monkeypatch):
    # Tabulating a leaf asks for each vertex's own row once, never for the
    # whole batch.
    strategy = _dtype_cases()[kind]()
    cls, asked = type(strategy), []
    row = cls._row
    monkeypatch.setattr(cls, "_row", lambda self, i, colors: asked.append(i) or row(self, i, colors))
    monkeypatch.setattr(cls, "guesses_batch", lambda self, colors: pytest.fail("guesses_batch called"))
    assert len(strategy._program.forms) == len(strategy.game.graph.vertices)
    assert asked == list(range(len(strategy.game.graph.vertices)))


@pytest.mark.parametrize("name", ["trefoil", "planar14"])
def test_every_digit_is_unsigned(name, monkeypatch):
    # The compile grid, drawn colors and sweep blocks all hold unsigned
    # digits, so a form compares a uint64 guess with a digit exactly.
    from hats import constructors
    from hats.verifier import CHUNK, _Boxes, _sample_block

    grid = []
    for form in (Gather, Select, Leaf):
        def recording(self, values, call=form.__call__):
            grid.extend(values[d].dtype for d in self.digits)
            return call(self, values)
        monkeypatch.setattr(form, "__call__", recording)
    composed = getattr(constructors, name)()
    program = composed.strategy._program
    monkeypatch.undo()
    assert grid and {dtype.kind for dtype in grid} == {"u"}
    drawn = program.values(_sample_block(composed.game, 7, 0, 64))
    assert {value.dtype.kind for value in drawn.values()} == {"u"}
    digits = {d for form in program.forms for d in form.digits}
    assert any(steps == () for _, steps in digits)
    boxes = _Boxes(composed.game, CHUNK)
    for lo in itertools.islice(boxes.starts(), 0, 4, 3):
        block = boxes.block(lo)
        assert {block[d].dtype.kind for d in digits} == {"u"}
        assert {row.dtype.kind for row in block.colors} == {"u"}


@pytest.mark.parametrize("kind", sorted(_dtype_cases()))
def test_batch_rows_are_uint64(kind):
    # An intp row still compares exactly with a uint64 color row, but the
    # mixed-dtype comparison in the verifier is several times slower.  A
    # sage who sees nobody (clique[1], an isolated table vertex) compiles
    # to a one-element row, and still gets a full row here.  The colors
    # are read-only: no row may be made by writing into them.
    isolated = Game(Graph(("a", "b", "c"), [("a", "b")]), {"a": 2, "b": 3, "c": 2})
    edges = {"clique-arith": [lambda: clique_strategy(clique([1]))],
             "table": [lambda: TableStrategy(isolated, {"a": (0, 1, 1), "b": (2, 0), "c": (1,)})]}
    for build in (_dtype_cases()[kind], *edges.get(kind, ())):
        strategy = build()
        assert strategy.kind == kind
        game = strategy.game
        rng = np.random.default_rng(0)
        colors = np.stack([rng.integers(0, h, 97, dtype=np.uint64) for h in game.hat_tuple])
        colors.setflags(write=False)
        for rows in (strategy.guesses_batch(colors), list(strategy._program.rows(colors))):
            assert len(rows) == len(game.graph.vertices)
            for row in rows:
                assert row.dtype == np.uint64
                assert row.shape == (97,)


class TestTrapTable:
    def test_shipped_rows_are_clean(self):
        table = load_trap_table()
        assert len(table.rows) == 14
        assert validate_trap_table(table) == []

    def test_shipped_superpositions(self):
        # Residues covered more than once per row, derived by direct set
        # arithmetic over the five covering sets.
        expected = [
            (0, 8), (4, 8), (0, 8), (0, 4), (0, 4), (4, 8), (4, 8),
            (0, 8), (0, 4), (0, 8), (0, 4), (0, 4), (4, 8), (4, 8),
        ]
        table = load_trap_table()
        assert [row.superpositions for row in table.rows] == expected

    def test_broken_transversal_detected(self):
        table = load_trap_table()
        row = table.rows[0]
        bad = TrapRow(row.d, row.a2, row.a3, (40, 41, 4))  # 40=1, 41=2, 4=1 mod 3
        violations = validate_trap_table(TrapTable((bad,) + table.rows[1:]))
        assert any("mod-3 transversal" in v for v in violations)

    def test_shortened_interval_breaks_covering(self):
        table = load_trap_table()
        row = table.rows[0]
        bad = TrapRow(row.d, cyclic_interval(5, 20), row.a3, row.a14)
        violations = validate_trap_table(TrapTable((bad,) + table.rows[1:]))
        assert any("not a 21-residue" in v for v in violations)
        assert any("covering fails" in v and "[25]" in v for v in violations)

    def test_overlap_detected(self):
        table = load_trap_table()
        row = table.rows[0]
        bad = TrapRow(row.d, row.a2, cyclic_interval(25, 14), row.a14)
        violations = validate_trap_table(TrapTable((bad,) + table.rows[1:]))
        assert any("overlap" in v for v in violations)


class TestK5MinusStrategy:
    def test_game_shape(self):
        game = k5minus_game()
        assert game.graph.vertices == ("A2", "A3", "A14", "B14", "C14")
        assert not game.graph.has_edge("B14", "C14")
        assert len(game.graph.edges) == 9
        assert game.hat_tuple == (2, 3, 14, 14, 14)

    def test_hand_computed_example(self):
        # S = 21; no trap shift, so the first row applies and the A2
        # target interval is [5, 25]: only 21*1 = 21 lands inside.
        _, strategy = k5minus_strategy()
        assignment = {"A2": 1, "A3": 0, "A14": 0, "B14": 0, "C14": 0}
        assert strategy.guess("A2", assignment) == 1

    def test_all_zero_assignment_c14_correct(self):
        _, strategy = k5minus_strategy()
        assignment = {v: 0 for v in ("A2", "A3", "A14", "B14", "C14")}
        assert strategy.guess("C14", assignment) == 0

    def test_exhaustive_sweep_clean(self):
        game, strategy = k5minus_strategy()
        assert game.color_space == 16464
        sweep = naive_verify(game, strategy, limit=20000)
        assert sweep.counterexample_index is None
        assert sweep.min_correct == 1

    def test_scalar_batch_agree_everywhere(self):
        game, strategy = k5minus_strategy()
        assert_paths_agree(strategy)

    def test_other_vertex_order_sweeps_clean(self):
        # The batch path reads its sages by name, so a valid reordering
        # sweeps exactly as the scalar path decides it.
        from hats.verifier import verify_exhaustive, win_histogram

        game = Game(almost_complete_graph(("A3", "A2", "A14", "B14", "C14")), dict(K5_HATNESS))
        strategy = K5MinusTrapStrategy(game, shipped_trap_table())
        naive = naive_verify(game, strategy, limit=20000)
        report = verify_exhaustive(game, strategy, jobs=1, chunk=1000)
        assert (report.checked, report.counterexample, report.min_correct) == (16464, None, 1)
        assert (naive.counterexample, naive.min_correct) == (report.counterexample, report.min_correct)
        assert win_histogram(game, strategy, jobs=1) == naive.histogram

    def test_only_the_trap_game_accepted(self):
        # Any vertex order of the trap game sweeps clean; any other game is
        # refused when the strategy is built, not with a KeyError mid-sweep.
        from hats.verifier import verify_exhaustive

        names = ("B14", "A2", "C14", "A14", "A3")
        edges = [(a, b) for k, a in enumerate(names) for b in names[k + 1:] if {a, b} != {"B14", "C14"}]
        game = Game(Graph(names, edges), dict(K5_HATNESS))
        report = verify_exhaustive(game, K5MinusTrapStrategy(game, shipped_trap_table()), jobs=1)
        assert (report.checked, report.counterexample, report.min_correct) == (16464, None, 1)
        others = [
            Game(complete_graph(("v0", "v1")), {"v0": 2, "v1": 2}),
            Game(complete_graph(K5_VERTICES), dict(K5_HATNESS)),
            Game(almost_complete_graph(("B14", "C14", "A14", "A2", "A3")), dict(K5_HATNESS)),
            Game(almost_complete_graph(K5_VERTICES), {**K5_HATNESS, "A3": 4}),
        ]
        for other in others:
            with pytest.raises(ContractError, match="k5minus game"):
                K5MinusTrapStrategy(other, shipped_trap_table())

    def test_broken_transversal_refused_in_batch(self):
        # An unvalidated table whose A14 set misses a residue class: the
        # guess tables cannot be built, so the batch path and a sweep refuse.
        from hats.verifier import verify_exhaustive

        table = load_trap_table()
        row = table.rows[0]
        bad = TrapTable((TrapRow(row.d, row.a2, row.a3, (40, 41, 4)),) + table.rows[1:])
        strategy = K5MinusTrapStrategy(k5minus_game(), bad)
        colors = random_colors(strategy.game, np.random.default_rng(0), 16)
        with pytest.raises(ContractError, match="orbit"):
            strategy.guesses_batch(colors)
        with pytest.raises(ContractError, match="orbit"):
            verify_exhaustive(strategy.game, strategy, jobs=1)

    @pytest.mark.parametrize("count", [0, 13, 15])
    def test_table_without_14_rows_refused(self, count):
        # Row d = (c - b) mod 14 must exist for every b and c, so a short
        # table is refused when the strategy is built, not with an
        # IndexError mid-sweep.
        rows = shipped_trap_table().rows
        table = TrapTable((rows * 2)[:count])
        with pytest.raises(ContractError, match=f"14 rows, got {count}"):
            K5MinusTrapStrategy(k5minus_game(), table)

    def test_invalid_table_of_14_rows_builds_and_loses(self):
        # Unvalidated 14-row tables are accepted, so mutants can be built;
        # rows 0 and 1 swapped lose, and the sweep finds where.
        from hats.verifier import verify_exhaustive

        rows = shipped_trap_table().rows
        table = TrapTable((rows[1], rows[0], *rows[2:]))
        assert validate_trap_table(table)
        strategy = K5MinusTrapStrategy(k5minus_game(), table)
        report = verify_exhaustive(strategy.game, strategy, jobs=1)
        losing = {"A2": 0, "A3": 0, "A14": 1, "B14": 0, "C14": 0}
        assert (report.checked, report.counterexample, report.min_correct) == (7, losing, 0)
        assert not any(g.color == losing[g.vertex] for g in evaluate(strategy, losing))


def clique_chain(copies):
    """``copies`` K2s glued at v0 by nested products: v0 has hatness 2**copies."""
    expr = "clique[2,2]"
    for _ in range(copies - 1):
        expr = f"product({expr}@v0, clique[2,2]@v0)"
    return expr


def elaborated(text):
    from hats.dsl import elaborate, parse

    return elaborate(parse(text))


def program_forms(program):
    """Every form of a compiled program, nested ones included."""
    forms, todo = [], list(program.forms)
    while todo:
        form = todo.pop()
        forms.append(form)
        todo.extend([*getattr(form, "parts", ()), *getattr(form, "choices", ()),
                     *(f for f, _ in getattr(form, "hits", ()))])
    return forms


def scalar_tables(strategy):
    """``strategy`` as a TableStrategy from its scalar path: each vertex's
    guess at every pattern of its neighbors' colors (a guess reads nothing
    else)."""
    game, tables = strategy.game, {}
    zeros = {v: 0 for v in game.graph.vertices}
    for v in game.graph.vertices:
        near = game.graph.adjacency[v][::-1]  # the first neighbor varies fastest
        tables[v] = tuple(strategy.guess(v, {**zeros, **dict(zip(near, digits))})
                          for digits in itertools.product(*(range(game.h(u)) for u in near)))
    return TableStrategy(game, tables)


class TestNarrowRows:
    """A compiled form holds its guesses in the narrowest unsigned dtype
    that holds its largest guess; no table or sum may wrap at a dtype
    limit."""

    @pytest.mark.parametrize("name", ["trefoil", "planar14"])
    def test_gather_tables_are_narrow(self, name, request):
        program = request.getfixturevalue(f"{name}_composed").strategy._program
        gathers = [form for form in program_forms(program) if isinstance(form, Gather)]
        assert len(gathers) >= len(program.forms)
        for form in gathers:
            assert form.table.dtype == np.min_scalar_type(form.table.max())

    @pytest.mark.parametrize("text, limit", [
        ("product(clique[16,2,2]@v0, clique[17,2,2]@v0)", 2 ** 8),  # 4,352 assignments
        ("product(clique[256,2,2]@v0, clique[257,2,2]@v0)", 2 ** 16),  # 1,052,672
        (clique_chain(9), 2 ** 8),  # v0 guesses up to 511, a sum of a uint8 and a bit
    ], ids=["272", "65792", "chain-512"])
    def test_glued_hatness_across_a_dtype_limit(self, text, limit):
        from hats.verifier import _sample_block, verify_exhaustive, verify_sampled, win_histogram

        composed = elaborated(text)
        game, strategy = composed.game, composed.strategy
        assert game.h("v0") > limit
        reference = scalar_tables(strategy)
        colors = decode_block(game, 0, game.color_space)
        counts = sum(g == c for g, c in zip(reference.guesses_batch(colors), colors))
        histogram = {k: int(f) for k, f in enumerate(np.bincount(counts)) if f}
        if game.color_space <= 10 ** 4:
            assert naive_verify(game, strategy).histogram == histogram
        assert min(histogram) > 0
        report = verify_exhaustive(game, strategy, jobs=2)
        assert (report.checked, report.counterexample, report.min_correct) == (game.color_space, None, min(histogram))
        assert win_histogram(game, strategy, jobs=2) == histogram
        drawn = _sample_block(game, 5, 0, 4096)
        least = int(min(sum(g == c for g, c in zip(reference.guesses_batch(drawn), drawn))))
        report = verify_sampled(game, strategy, 4096, 5, jobs=2)
        assert (report.checked, report.counterexample, report.min_correct) == (4096, None, least)

    def test_2_64_axis_sum_stays_uint64(self):
        # windmill(2, 64) before lowering: 64 K2s glued at v0, hatness 2**64.
        from hats.constructors import windmill

        strategy = windmill(2, 64).strategy.inner
        game, axis = strategy.game, strategy._program.forms[0]
        assert isinstance(axis, Sum) and axis.top == 2 ** 64 - 1 and axis.dtype == np.uint64
        # The first 16 K2s tabulate; each later level adds one bit in a Sum,
        # crossing into uint32 at level 17 and into uint64 at level 33.
        forms = program_forms(strategy._program)
        assert {np.dtype(f.table.dtype if isinstance(f, Gather) else f.dtype) for f in forms} == {
            np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64)}
        top = {v: h - 1 for v, h in zip(game.graph.vertices, game.hat_tuple)}
        for assignment in (top, {v: 0 for v in top}):
            rows = strategy.guesses_batch(batch_of(game, [assignment]))
            assert [int(row[0]) for row in rows] == [strategy.guess(v, assignment) for v in game.graph.vertices]
        # With every partner at 1, v0 guesses 2**64 - 1, the largest uint64.
        assert strategy.guess("v0", top) == 2 ** 64 - 1


class TestCompositeCapacity:
    """Product and cone batch paths encode guesses in uint64; a node whose
    hatness is above 2**64 refuses instead of wrapping."""

    def test_wrapping_product_refused(self):
        x = clique_chain(41)
        composed = elaborated(f"lower(product({x}@v0, {x}@v0); v0=2)")
        strategy, game = composed.strategy, composed.game
        inner = strategy.inner
        assert inner.game.h("v0") == 2 ** 82
        # Each K2's v0 guesses its v1's color, so the exact guess at v0
        # is a binary number with one bit per copy: find the copies of
        # bits 0 and 64.
        zeros = {v: 0 for v in game.graph.vertices}
        bit_of = {inner.guess("v0", {**zeros, u: 1}): u for u in game.graph.vertices[1:]}
        assignment = {**zeros, "v0": 1, bit_of[1]: 1, bit_of[2 ** 64]: 1}
        assert inner.guess("v0", assignment) == 1 + 2 ** 64
        # The scalar path lowers that guess to 0; a wrapping batch path
        # would say 1, the true color, and count a win that is not there.
        assert strategy.guess("v0", assignment) == 0
        with pytest.raises(CapacityError, match="2\\*\\*64"):
            strategy.guesses_batch(batch_of(game, [assignment]))

    def test_split_modulus_of_2_64_refused(self):
        # Hatness 2**64 * 1 fits, but the split modulus 2**64 does not.
        composed = elaborated(f"product({clique_chain(64)}@v0, clique[1,1]@v0)")
        game = composed.game
        assert game.h("v0") == 2 ** 64
        with pytest.raises(CapacityError, match="split modulus"):
            composed.strategy.guesses_batch(batch_of(game, [{v: 0 for v in game.graph.vertices}]))

    @pytest.mark.parametrize("call", ["exhaustive", "sampled", "adapted batch", "table batch"])
    def test_leaf_vertex_above_2_64_refused(self, call):
        # Lowered to 2, x guesses a legal 0 on the scalar path; no batch
        # path may hold its table's guess 2**64 + 3 in uint64.
        from hats.verifier import verify_exhaustive, verify_sampled

        table = TableStrategy(Game(Graph(("x", "y"), []), {"x": 2 ** 65, "y": 1}), {"x": (2 ** 64 + 3,), "y": (0,)})
        lowered = adapt_majorized(table, {"x": 2, "y": 1})
        assert lowered.guess("x", {"x": 1, "y": 0}) == 0
        runs = {
            "exhaustive": lambda: verify_exhaustive(lowered.game, lowered, jobs=1),
            "sampled": lambda: verify_sampled(lowered.game, lowered, 10, 0, jobs=1),
            "adapted batch": lambda: lowered.guesses_batch(batch_of(lowered.game, [{"x": 1, "y": 0}])),
            "table batch": lambda: table.guesses_batch(batch_of(table.game, [{"x": 1, "y": 0}])),
        }
        with pytest.raises(CapacityError, match=f"hatness {2 ** 65} is too large"):
            runs[call]()

    def test_hatness_2_64_is_exact(self):
        from hats.constructors import windmill

        lowered = windmill(2, 64).strategy
        for strategy in (lowered, lowered.inner):
            game = strategy.game
            assert max(game.hat_tuple) == (2 if strategy is lowered else 2 ** 64)
            colors = random_colors(game, np.random.default_rng(64), 24)
            rows = strategy.guesses_batch(colors)
            for col in range(colors.shape[1]):
                assignment = {v: int(colors[i, col]) for i, v in enumerate(game.graph.vertices)}
                scalar = strategy.guesses(assignment)
                for i, v in enumerate(game.graph.vertices):
                    assert scalar[v] == int(rows[i][col]), (col, v)


# The benchmark's seed-500 sweep-trefoil: eight of the trefoil's twelve
# hatness-6 sages lowered to 2.
TREFOIL_500 = ('lower(trefoil; "L/L/1/v2"=2, "L/R/0/v1"=2, "L/R/0/v2"=2, "L/R/1/v1"=2, '
               '"L/R/1/v2"=2, "R/0/v1"=2, "R/0/v2"=2, "R/1/v2"=2)')
COMPILED_BUILDS = ["trefoil", "planar14", "trefoil-500", "windmill(3, 5)", "k5minus",
                   *(f"random-{seed}" for seed in range(20))]
WIDE_LEAF_BUILDS = ["product(clique[2,2,70000]@v0, clique[2,2]@v0)", "clique[2,2,70000]"]


def compiled_build(name, request):
    """The strategy a name in COMPILED_BUILDS or WIDE_LEAF_BUILDS names."""
    if name in ("trefoil", "planar14", "k5minus"):
        return request.getfixturevalue(f"{name}_composed").strategy
    if name.startswith("random-"):
        return random_composition(random.Random(int(name[7:]))).strategy
    return elaborated(TREFOIL_500 if name == "trefoil-500" else name).strategy


class TestCompiledForms:
    """The compiler tabulates every form it can, and each form's ``top`` is
    an int that bounds its row."""

    @pytest.mark.parametrize("name", COMPILED_BUILDS)
    def test_every_form_that_fits_is_tabulated(self, name, request):
        strategy = compiled_build(name, request)
        hats, counts = strategy.game.hat_tuple, {}
        for form in program_forms(strategy._program):
            if isinstance(form, Gather):
                continue
            for row, steps in form.digits:
                if (row, steps) not in counts:
                    colors = np.arange(hats[row], dtype=np.uint64)
                    counts[row, steps] = len(np.unique(strategy_module._steps(colors, steps)))
            assert math.prod(counts[d] for d in form.digits) > CLIQUE_TABLE_SPAN, (name, type(form).__name__)

    @pytest.mark.parametrize("name", COMPILED_BUILDS + WIDE_LEAF_BUILDS)
    def test_every_top_is_an_int_that_bounds_its_row(self, name, request):
        from hats.verifier import _sample_block

        strategy = compiled_build(name, request)
        program = strategy._program
        values = program.values(_sample_block(strategy.game, 3, 0, 4096))
        for form in program_forms(program):
            assert type(form.top) is int, (name, type(form).__name__)
            assert int(np.max(form(values))) <= form.top, (name, type(form).__name__)
            if isinstance(form, Leaf):
                assert form.top == form.strategy.game.hat_tuple[form.index] - 1


class TestCompositeScalarBatchAgreement:
    """Composite strategies run two independently written evaluation
    paths; they must give identical guesses on every assignment."""

    def test_cone(self):
        from hats.constructors import game_26666

        assert_paths_agree(game_26666().strategy)

    def test_product_and_adapter(self):
        from hats.constructors import windmill

        assert_paths_agree(windmill(3, 2).strategy)

    def test_single_petal_cone(self):
        from hats.constructors import PetalSpec, clique_game, cone

        composed = cone(clique_game([1]), [PetalSpec(clique_game([2, 3, 6]), "v0", "v1")])
        assert_paths_agree(composed.strategy)

    def test_planar14_sampled_agreement(self, planar14_composed):
        # The full color space is astronomically large; spot-check the two
        # paths on random assignments at full composition depth.
        strategy = planar14_composed.strategy
        game = strategy.game
        rng = random.Random(14)
        assignments = [
            {v: rng.randrange(game.h(v)) for v in game.graph.vertices}
            for _ in range(40)
        ]
        batch = strategy.guesses_batch(batch_of(game, assignments))
        for row in (0, 17, 39):
            scalar = strategy.guesses(assignments[row])
            for v in game.graph.vertices:
                assert scalar[v] == int(batch[game.graph.index[v]][row]), (row, v)


def random_composition(rng, depth=3):
    """A random winning build: products, cones and lowerings over cliques,
    game26666 and k5minus, with a composite node at the top."""
    from hats.constructors import (PetalSpec, clique_game, cone, game_26666, k5minus,
                                   lower_to, product)

    bricks = [lambda: clique_game(h) for h in ([2, 2], [2, 3, 6], [2, 4, 4], [3, 3, 3], [1, 2])]
    bricks += [game_26666, k5minus]

    def build(level):
        if level == depth or (level and rng.random() < 0.3):
            return rng.choice(bricks)()
        op = rng.choice(["product", "cone", "lower"])
        first = build(level + 1)
        if op == "lower":
            verts = rng.sample(first.game.graph.vertices, min(3, len(first.game.graph.vertices)))
            return lower_to(first, {v: rng.randint(1, first.game.h(v)) for v in verts})
        if op == "cone":
            base = clique_game(rng.choice([[2, 2], [1], [2, 2, 2], [2, 3, 6]]))
            o, a = rng.choice(first.game.graph.edges)[::rng.choice([1, -1])]
            return cone(base, [PetalSpec(first, o, a)] * len(base.game.graph.vertices))
        second = build(level + 1)
        a1 = rng.choice(first.game.graph.vertices)
        a2 = rng.choice(second.game.graph.vertices)
        try:
            return product(first, second, a1, a2)
        except ContractError as exc:
            if "names two vertices" not in str(exc):
                raise
            return first  # the glue name clashes with a right-factor name

    return build(0)


class TestCompiledAgainstScalar:
    """The batch path evaluates a program compiled from the strategy tree;
    every compiled row must equal the scalar reference path."""

    @pytest.mark.parametrize("seed", range(24))
    def test_random_compositions(self, seed):
        strategy = random_composition(random.Random(seed)).strategy
        game = strategy.game
        colors = random_colors(game, np.random.default_rng(seed), 40)
        rows = strategy.guesses_batch(colors)
        for col in range(colors.shape[1]):
            assignment = {v: int(colors[i, col]) for i, v in enumerate(game.graph.vertices)}
            for i, v in enumerate(game.graph.vertices):
                assert strategy.guess(v, assignment) == int(rows[i][col]), (seed, col, v)

    def test_compositions_cover_every_composite_kind(self):
        kinds = {node.kind for seed in range(24)
                 for node in strategy_nodes(random_composition(random.Random(seed)).strategy)}
        assert {"product", "cone", "majorize-adapter", "clique-arith", "k5minus-trap"} <= kinds

    def test_deepest_product_chain(self):
        # windmill(2, 63): 63 K2s glued at v0 (hatness 2**63), then lowered to 2.
        from hats.constructors import windmill

        lowered = windmill(2, 63).strategy
        for strategy in (lowered, lowered.inner):
            game = strategy.game
            colors = random_colors(game, np.random.default_rng(63), 16)
            rows = strategy.guesses_batch(colors)
            for col in range(colors.shape[1]):
                assignment = {v: int(colors[i, col]) for i, v in enumerate(game.graph.vertices)}
                scalar = strategy.guesses(assignment)
                for i, v in enumerate(game.graph.vertices):
                    assert scalar[v] == int(rows[i][col]), (col, v)

    def test_wide_leaf_vertex_runs_the_leaf_batch_path(self):
        # clique[2,2,70000]: v0 sees 140,000 patterns and its checksum span
        # is 105,000, both past CLIQUE_TABLE_SPAN, so no table holds it,
        # inside a composite or standalone.
        for text in ("product(clique[2,2,70000]@v0, clique[2,2]@v0)", "clique[2,2,70000]"):
            composed = elaborated(text)
            strategy, game = composed.strategy, composed.game
            assert any(isinstance(form, Leaf) for form in strategy._program.forms)
            colors = random_colors(game, np.random.default_rng(7), 6)
            rows = strategy.guesses_batch(colors)
            assert_same_rows(list(strategy._program.rows(colors)), rows)
            for col in range(colors.shape[1]):
                assignment = {v: int(colors[i, col]) for i, v in enumerate(game.graph.vertices)}
                for i, v in enumerate(game.graph.vertices):
                    assert strategy.guess(v, assignment) == int(rows[i][col]), (col, v)

    def test_apex_falls_back_to_the_first_petal(self):
        # A winning base always has a hit; one that guesses 0 everywhere
        # misses on (1, 1), and the apex must then play petal 0 as the
        # scalar path does.
        import dataclasses

        from hats.constructors import PetalSpec, clique_game, cone

        composed = cone(clique_game([2, 2]), [PetalSpec(clique_game([2, 3, 6]), "v0", "v1")] * 2)
        base = composed.strategy.base.game
        zeros = TableStrategy(base, {v: (0, 0) for v in base.graph.vertices})
        assert_paths_agree(dataclasses.replace(composed.strategy, base=zeros))

    def test_petals_with_the_apex_at_different_positions(self):
        # The apex is v0 of the first petal and v1 of the second; each
        # petal's apex guess must be read at its own position.
        from hats.constructors import PetalSpec, clique_game, cone

        composed = cone(clique_game([2, 2]), [PetalSpec(clique_game([2, 3, 6]), "v0", "v1"),
                                              PetalSpec(clique_game([3, 2, 6]), "v1", "v0")])
        assert composed.strategy.petal_o == (0, 1)
        assert_paths_agree(composed.strategy)

    def test_rows_still_held_are_not_reused(self, trefoil_composed):
        # Every call returns rows of its own: a later call never writes
        # into rows that a caller still holds.
        strategy = trefoil_composed.strategy
        rng = np.random.default_rng(11)
        rows = strategy.guesses_batch(random_colors(strategy.game, rng, 64))
        kept = [row.copy() for row in rows]
        one = rows[5]
        strategy.guesses_batch(random_colors(strategy.game, rng, 64))
        for row, copy in zip(rows, kept):
            np.testing.assert_array_equal(row, copy)
        del rows
        strategy.guesses_batch(random_colors(strategy.game, rng, 64))
        np.testing.assert_array_equal(one, kept[5])

    def test_rows_one_at_a_time_match_the_batch(self, trefoil_composed):
        # The verifier counts a composite's rows as they are made.
        strategy = trefoil_composed.strategy
        colors = random_colors(strategy.game, np.random.default_rng(12), 64)
        rows = strategy._program.rows(colors)
        assert not isinstance(rows, list)
        for row, batch in zip(rows, strategy.guesses_batch(colors), strict=True):
            np.testing.assert_array_equal(row, batch)

    def test_form_reading_a_non_neighbor_refused(self):
        # A path a - b - c: a copying c's color would win more than a local strategy can.
        game = Game(Graph(("a", "b", "c"), [("a", "b"), ("b", "c")]), {"a": 2, "b": 2, "c": 2})
        copy = np.arange(2, dtype=np.uint64)
        zero = Gather(np.zeros(1, dtype=np.uint64), (), ())
        with pytest.raises(ContractError, match="non-neighbor rows \\[2\\]"):
            Program(game, (Gather(copy, ((2, ()),), (1,)), zero, zero))
        Program(game, (Gather(copy, ((1, ()),), (1,)), zero, zero))

    def test_narrow_gather_keys_match_intp_keys(self, trefoil_composed):
        # A gather sums its key in the narrowest dtype that holds every index
        # and weight.  On narrow broadcast digits (a sweep block) and on
        # uint64 digits (a drawn batch) it must pick what an intp key picks.
        from hats.verifier import _Boxes

        game, program = trefoil_composed.game, trefoil_composed.strategy._program
        gathers = [form for form in compiled_forms(program) if isinstance(form, Gather)]
        assert len(gathers) >= len(program.forms)
        assert all(g.key_dtype.itemsize < np.dtype(np.intp).itemsize for g in gathers)
        n = 4096
        colors = random_colors(game, np.random.default_rng(14), n)
        boxes = _Boxes(game, n)
        block = boxes.block(next(itertools.islice(boxes.starts(), 3, None)))
        for values, shape in ((block, block.shape), (program.values(colors), (n,))):
            for g in gathers:
                key = np.zeros(shape, dtype=np.intp)
                for d, w in zip(g.digits, g.weights):
                    key = key + values[d].astype(np.intp) * w
                np.testing.assert_array_equal(np.broadcast_to(g(values), shape), g.table[key])


def cone_and_adapter_chain(depth=150):
    """Rounds of product with a K2, lowering the glued vertex back to 2 and
    a one-petal cone over clique[1], until ``depth`` levels are nested; the
    build and its number of levels."""
    from hats.constructors import PetalSpec, clique_game, cone, lower_to, product

    chain, levels = clique_game([2, 2]), 0
    while levels < depth:
        chain = product(clique_game([2, 2]), chain, "v1", chain.game.graph.vertices[0])
        chain = cone(clique_game([1]), [PetalSpec(lower_to(chain, {"v1": 2}), "v1", "L/v0")])
        levels += 3
    return chain, levels


class _Recording(Mapping):
    """An assignment that records every vertex whose color is read."""

    def __init__(self, colors):
        self.colors, self.read = colors, set()

    def __getitem__(self, v):
        self.read.add(v)
        return self.colors[v]

    def __iter__(self):
        return iter(self.colors)

    def __len__(self):
        return len(self.colors)


class TestReferenceLocality:
    """A sage guesses from its neighbors' hats alone: the scalar reference
    guess at v reads no color but those of v's neighbors, however deep v
    sits in a composite."""

    @staticmethod
    def _assert_reads_neighbors_only(strategy, seed, assignments=2):
        game, rng = strategy.game, random.Random(seed)
        for _ in range(assignments):
            colors = {v: rng.randrange(game.h(v)) for v in game.graph.vertices}
            for v in game.graph.vertices:
                recorded = _Recording(colors)
                assert strategy.guess(v, recorded) == strategy.guess(v, colors), v
                assert recorded.read <= set(game.graph.adjacency[v]), (v, recorded.read - set(game.graph.adjacency[v]))

    def test_trap(self, k5minus_composed):
        self._assert_reads_neighbors_only(k5minus_composed.strategy, 1)

    def test_cone(self, game26666_composed):
        self._assert_reads_neighbors_only(game26666_composed.strategy, 3)

    def test_trefoil_and_its_lowering(self, trefoil_composed):
        from hats.constructors import lower_to

        self._assert_reads_neighbors_only(trefoil_composed.strategy, 4)
        lowered = lower_to(trefoil_composed, {"O": 6}).strategy
        assert lowered.kind == "majorize-adapter"
        self._assert_reads_neighbors_only(lowered, 5)

    def test_windmill(self):
        from hats.constructors import windmill

        self._assert_reads_neighbors_only(windmill(3, 3).strategy, 6)

    def test_planar14(self, planar14_composed):
        # Every vertex: the apex O, the 52 attachments and the interiors.
        self._assert_reads_neighbors_only(planar14_composed.strategy, 7, assignments=1)

    def test_solver_table(self):
        from hats.solver import solve_exact

        names = ("v0", "v1", "v2", "v3")
        game = Game(Graph(names, [(names[i], names[(i + 1) % 4]) for i in range(4)]), dict.fromkeys(names, 3))
        result = solve_exact(game)
        assert result.strategy is not None
        self._assert_reads_neighbors_only(result.strategy, 8)

    def test_deep_cone_and_adapter_chain(self):
        self._assert_reads_neighbors_only(cone_and_adapter_chain()[0].strategy, 9)


class TestDeepScalarPath:
    """The scalar reference path answers composites nested far past the
    interpreter's recursion limit: every sub-guess is asked for in one loop."""

    DEPTH = 500  # product levels: more than a recursive walk fits under the default limit

    def test_evaluate_deep_windmill(self):
        # The lowered windmill(2, 500) wins, so every assignment has a right
        # guess; its unlowered axis (hatness 2**500) is past the batch path.
        from hats.constructors import windmill

        composed = windmill(2, self.DEPTH)
        game, strategy = composed.game, composed.strategy
        rng = random.Random(500)
        for _ in range(2):
            assignment = {v: rng.randrange(game.h(v)) for v in game.graph.vertices}
            guesses = evaluate(strategy, assignment)
            assert [g.vertex for g in guesses] == list(game.graph.vertices)
            assert all(0 <= g.color < game.h(g.vertex) for g in guesses)
            assert any(g.color == assignment[g.vertex] for g in guesses)

    def test_deep_chain_against_compiled_rows(self):
        # 500 K2s glued end to end: hatnesses stay at most 4, so the chain
        # also compiles, and the first vertex sits 500 products deep.
        from hats.constructors import clique_game, product

        chain = clique_game([2, 2])
        for _ in range(self.DEPTH - 1):
            chain = product(clique_game([2, 2]), chain, "v1", chain.game.graph.vertices[0])
        game, strategy = chain.game, chain.strategy
        colors = random_colors(game, np.random.default_rng(500), 3)
        rows = strategy.guesses_batch(colors)
        verts = game.graph.vertices
        picks = {0, 1, len(verts) // 2, len(verts) - 1, *random.Random(5).sample(range(len(verts)), 4)}
        for col in range(colors.shape[1]):
            assignment = {v: int(colors[i, col]) for i, v in enumerate(verts)}
            # Every vertex on the first assignment, the picks on the others.
            for i in range(len(verts)) if col == 0 else sorted(picks):
                assert strategy.guess(verts[i], assignment) == int(rows[i][col]), (col, verts[i][-12:])

    def test_deep_cone_and_adapter_chain_against_compiled_rows(self):
        # 150 nested levels, past what the DSL accepts, with every hatness
        # 2, so the chain also compiles.
        # A vertex's name gains a prefix per level around it, so the names
        # span the first level (v1 of the innermost K2) to the last (O).
        from hats.dsl import MAX_NESTING

        chain, levels = cone_and_adapter_chain()
        assert levels > MAX_NESTING
        game, strategy = chain.game, chain.strategy
        assert set(game.hat_tuple) == {2}
        colors = random_colors(game, np.random.default_rng(150), 8)
        rows = strategy.guesses_batch(colors)
        verts = game.graph.vertices
        for col in range(colors.shape[1]):
            assignment = {v: int(colors[i, col]) for i, v in enumerate(verts)}
            for i, v in enumerate(verts):
                assert strategy.guess(v, assignment) == int(rows[i][col]), (col, v[-12:])

    def test_leaf_without_a_guess_raises(self):
        # A leaf that defines no reference guess says so, and asks for nothing.
        class Silent(Strategy):
            def __init__(self, game):
                self.game = game

        game = clique([2, 2])
        with pytest.raises(NotImplementedError):
            evaluate(Silent(game), {"v0": 0, "v1": 1})


class TestAdaptMajorized:
    def test_identity_adaptation(self):
        game = clique([2, 4, 4])
        strategy = clique_strategy(game)
        adapted = adapt_majorized(strategy, dict(game.hatness))
        for assignment in all_assignments(game):
            assert adapted.guesses(assignment) == strategy.guesses(assignment)

    def test_majorization_checked(self):
        strategy = clique_strategy(clique([2, 2]))
        with pytest.raises(ContractError):
            adapt_majorized(strategy, {"v0": 2, "v1": 3})

    def test_trefoil_lowered_to_constant_six(self, trefoil_composed):
        lower = {v: 6 for v in trefoil_composed.game.graph.vertices}
        adapted = adapt_majorized(trefoil_composed.strategy, lower)
        assert set(adapted.game.hatness.values()) == {6}
        sample = {v: 0 for v in adapted.game.graph.vertices}
        for v, g in adapted.guesses(sample).items():
            assert 0 <= g < 6

    def test_other_vertex_order_refused(self):
        # The adapter hands its rows to the inner strategy unchanged.
        strategy = clique_strategy(clique([2, 3, 6]))
        graph = strategy.game.graph
        flipped = Game(Graph(graph.vertices[::-1], graph.edges), dict(strategy.game.hatness))
        with pytest.raises(ContractError, match="order"):
            AdaptedStrategy(flipped, strategy)

    def test_windmill_factor_unchanged(self):
        game = clique([2, 4, 4])
        strategy = clique_strategy(game)
        adapted = adapt_majorized(strategy, {"v0": 2, "v1": 4, "v2": 4})
        sweep = naive_verify(adapted.game, adapted)
        assert sweep.counterexample_index is None


class TestLocality:
    """Perturbing anything outside a vertex's neighborhood (and the
    vertex itself) never changes its guess."""

    def _assert_local(self, strategy, rng, rounds=60):
        game = strategy.game
        verts = game.graph.vertices
        for _ in range(rounds):
            assignment = {v: rng.randrange(game.h(v)) for v in verts}
            v = rng.choice(verts)
            baseline = strategy.guess(v, assignment)
            perturbed = dict(assignment)
            neighbors = set(game.graph.adjacency[v])
            for u in verts:
                if u not in neighbors:
                    perturbed[u] = rng.randrange(game.h(u))
            assert strategy.guess(v, perturbed) == baseline

    def test_clique(self):
        self._assert_local(clique_strategy(clique([2, 3, 6])), random.Random(1))

    def test_k5minus_traps(self):
        _, strategy = k5minus_strategy()
        self._assert_local(strategy, random.Random(2))

    def test_k5minus_nonadjacent_pair_explicitly(self):
        _, strategy = k5minus_strategy()
        base = {"A2": 1, "A3": 2, "A14": 5, "B14": 11, "C14": 3}
        for c in range(14):
            assert strategy.guess("B14", {**base, "C14": c}) == strategy.guess("B14", base)
        for b in range(14):
            assert strategy.guess("C14", {**base, "B14": b}) == strategy.guess("C14", base)

    def test_composed(self, trefoil_composed):
        self._assert_local(trefoil_composed.strategy, random.Random(3), rounds=25)

    def test_full_depth_composition(self, planar14_composed):
        self._assert_local(planar14_composed.strategy, random.Random(5), rounds=6)

    def test_table(self):
        game = clique([2, 2])
        strategy = TableStrategy(game, {"v0": (0, 1), "v1": (1, 0)})
        self._assert_local(strategy, random.Random(4))


class TestBatchLocality:
    """The batch path is local too: redrawing every row outside a
    vertex's neighborhood (its own row included) leaves its guesses
    unchanged."""

    def _assert_local(self, strategy, seed, n=32):
        game = strategy.game
        rng = np.random.default_rng(seed)
        colors = random_colors(game, rng, n)
        baseline = strategy.guesses_batch(colors)
        for i, v in enumerate(game.graph.vertices):
            seen = [game.graph.index[u] for u in game.graph.adjacency[v]]
            perturbed = random_colors(game, rng, n)
            perturbed[seen] = colors[seen]
            np.testing.assert_array_equal(strategy.guesses_batch(perturbed)[i], baseline[i],
                                          err_msg=v)

    def test_clique(self):
        self._assert_local(clique_strategy(clique([2, 3, 6])), 1)

    def test_k5minus_trap(self):
        self._assert_local(k5minus_strategy()[1], 2)

    def test_table(self):
        # A path a - b - c with arbitrary tables: a and c do not see each other.
        game = Game(Graph(("a", "b", "c"), [("a", "b"), ("b", "c")]), {"a": 2, "b": 3, "c": 2})
        strategy = TableStrategy(game, {"a": (1, 0, 1), "b": (2, 0, 1, 1), "c": (0, 1, 1)})
        self._assert_local(strategy, 3)

    def test_product(self):
        from hats.constructors import windmill

        strategy = windmill(3, 2).strategy
        assert strategy.kind == "product"
        self._assert_local(strategy, 4)

    def test_adapter(self):
        strategy = adapt_majorized(clique_strategy(clique([2, 4, 4])), {"v0": 2, "v1": 3, "v2": 4})
        self._assert_local(strategy, 5)

    def test_cone(self, game26666_composed):
        assert game26666_composed.strategy.kind == "cone"
        self._assert_local(game26666_composed.strategy, 6)

    def test_trefoil(self, trefoil_composed):
        self._assert_local(trefoil_composed.strategy, 7)

    def test_planar14(self, planar14_composed):
        self._assert_local(planar14_composed.strategy, 8, n=8)

    @pytest.mark.parametrize("seed", range(0, 24, 3))
    def test_random_compositions(self, seed):
        self._assert_local(random_composition(random.Random(seed)).strategy, seed, n=16)

    def test_trap_nonadjacent_pair(self):
        _, strategy = k5minus_strategy()
        b, c = K5_VERTICES.index("B14"), K5_VERTICES.index("C14")
        colors = random_colors(strategy.game, np.random.default_rng(9), 64)
        baseline = strategy.guesses_batch(colors)
        for other, row in ((c, b), (b, c)):
            for x in range(14):
                perturbed = colors.copy()
                perturbed[other] = x
                np.testing.assert_array_equal(strategy.guesses_batch(perturbed)[row], baseline[row])


class TestTableStrategy:
    def test_pattern_indexing(self):
        game = clique([2, 3])
        strategy = TableStrategy(game, {"v0": (0, 1, 0), "v1": (1, 2)})
        assert strategy.guess("v0", {"v0": 0, "v1": 2}) == 0
        assert strategy.guess("v1", {"v0": 1, "v1": 0}) == 2

    def test_scalar_batch_agree(self):
        game = clique([2, 3])
        assert_paths_agree(TableStrategy(game, {"v0": (0, 1, 0), "v1": (1, 2)}))

    @pytest.mark.parametrize("tables, match", [
        ({"v0": (0, 1, 0)}, "no guess table"),
        ({"v0": (0, 1), "v1": (0, 1)}, "has 2 entries, expected 3"),
        ({"v0": (0, 1, 0, 1), "v1": (0, 1)}, "has 4 entries, expected 3"),
        ({"v0": (0, 1, 2), "v1": (0, 1)}, r"outside \[0, 2\)"),
        ({"v0": (0, 1, 0), "v1": (0, -1)}, r"outside \[0, 3\)"),
    ])
    def test_bad_tables_refused_where_they_enter(self, tables, match):
        with pytest.raises(ContractError, match=match):
            TableStrategy(clique([2, 3]), tables)

    def test_isolated_vertex(self):
        game = Game(Graph(("a",), []), {"a": 2})
        strategy = TableStrategy(game, {"a": (1,)})
        assert strategy.guess("a", {"a": 0}) == 1
        batch = strategy.guesses_batch([np.array([0, 1], dtype=np.uint64)])
        assert list(batch[game.graph.index["a"]]) == [1, 1]


class TestEvaluate:
    def test_one_guess_per_vertex(self):
        game, strategy = k5minus_strategy()
        guesses = evaluate(strategy, {v: 0 for v in game.graph.vertices})
        assert [g.vertex for g in guesses] == list(game.graph.vertices)
        for g in guesses:
            assert 0 <= g.color < game.h(g.vertex)

    def test_rejects_mismatched_assignment(self):
        _, strategy = k5minus_strategy()
        with pytest.raises(ContractError):
            evaluate(strategy, {"A2": 0})
        with pytest.raises(ContractError):
            evaluate(strategy, {"A2": 5, "A3": 0, "A14": 0, "B14": 0, "C14": 0})

    @given(st.integers(min_value=0, max_value=16463))
    def test_deterministic(self, index):
        from hats.core import assignment_at

        game, strategy = k5minus_strategy()
        assignment = assignment_at(game, index)
        assert evaluate(strategy, assignment) == evaluate(strategy, assignment)
