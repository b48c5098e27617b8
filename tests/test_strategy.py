import math
import random
from fractions import Fraction

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
    Guess,
    K5_HATNESS,
    K5_VERTICES,
    K5MinusTrapStrategy,
    ProductStrategy,
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
from hats.verifier import _decode_chunk
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


def both_clique_paths(game, colors, monkeypatch):
    """The gather rows and the uint64 arithmetic rows of the clique
    strategy on ``colors``; the gather tables are built under a span
    bound raised far enough to admit them."""
    arith = clique_strategy(game)._arith_batch(colors)
    with monkeypatch.context() as patch:
        patch.setattr(strategy_module, "CLIQUE_TABLE_SPAN", 1 << 20)
        gathering = clique_strategy(game)
        assert gathering._tables is not None
        gather = gathering._gather_batch(colors)
    return gather, arith


def assert_same_rows(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == np.uint64
        np.testing.assert_array_equal(g, w)


class TestCliqueBatchPaths:
    """The gather path (spans up to CLIQUE_TABLE_SPAN) and the uint64
    arithmetic path above it must give the same rows, and both must
    agree with the scalar reference."""

    # [1, k] has largest span k (at v0); [2, 2, m], m odd, has 3m - 1.
    BELOW = ([1, CLIQUE_TABLE_SPAN], [2, 2, 21845])
    ABOVE = ([1, CLIQUE_TABLE_SPAN + 1], [2, 2, 21847])

    @pytest.mark.parametrize("hats", BELOW + ABOVE)
    def test_paths_straddling_the_span_bound(self, hats, monkeypatch):
        game = clique(hats)
        strategy = clique_strategy(game)
        assert (strategy._tables is not None) == (hats in self.BELOW)
        colors = _decode_chunk(game, 0, game.color_space)
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
        assert strategy._tables is not None
        assert_paths_agree(strategy)
        colors = _decode_chunk(game, 0, game.color_space)
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
        for composed in (trefoil_composed, planar14_composed):
            cliques = [node for node in strategy_nodes(composed.strategy)
                       if isinstance(node, CliqueArithStrategy)]
            assert len(cliques) >= 9
            assert all(node._tables is not None for node in cliques)


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


@pytest.mark.parametrize("kind", sorted(_dtype_cases()))
def test_batch_rows_are_uint64(kind):
    # An intp row still compares exactly with a uint64 color row, but the
    # mixed-dtype comparison in the verifier is several times slower.
    strategy = _dtype_cases()[kind]()
    assert strategy.kind == kind
    game = strategy.game
    rng = np.random.default_rng(0)
    colors = np.stack([rng.integers(0, h, 97, dtype=np.uint64) for h in game.hat_tuple])
    rows = strategy.guesses_batch(colors)
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

    def test_other_vertex_order_refused_in_batch(self):
        # The batch path reads rows in K5_VERTICES order; on this valid
        # reordering it would report a counterexample the scalar path wins.
        from hats.verifier import verify_exhaustive

        game = Game(almost_complete_graph(("A3", "A2", "A14", "B14", "C14")), dict(K5_HATNESS))
        strategy = K5MinusTrapStrategy(game, shipped_trap_table())
        assignment = {"A3": 2, "A2": 1, "A14": 0, "B14": 0, "C14": 0}
        assert any(g == assignment[v] for v, g in strategy.guesses(assignment).items())
        with pytest.raises(ContractError, match="order"):
            verify_exhaustive(game, strategy, jobs=1)

    def test_broken_transversal_refused_in_batch(self):
        # An unvalidated table whose A14 set misses a residue class: the
        # batch tables cannot be built, so the batch path refuses.
        table = load_trap_table()
        row = table.rows[0]
        bad = TrapTable((TrapRow(row.d, row.a2, row.a3, (40, 41, 4)),) + table.rows[1:])
        strategy = K5MinusTrapStrategy(k5minus_game(), bad)
        colors = random_colors(strategy.game, np.random.default_rng(0), 16)
        with pytest.raises(ContractError, match="orbit"):
            strategy.guesses_batch(colors)


def clique_chain(copies):
    """``copies`` K2s glued at v0 by nested products: v0 has hatness 2**copies."""
    expr = "clique[2,2]"
    for _ in range(copies - 1):
        expr = f"product({expr}@v0, clique[2,2]@v0)"
    return expr


def elaborated(text):
    from hats.dsl import elaborate, parse

    return elaborate(parse(text))


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
