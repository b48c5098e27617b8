import random
from collections import Counter
from fractions import Fraction

import pytest

from hats.constructors import (
    MAX_WINDMILL_SIZE,
    ComposedGame,
    PetalSpec,
    blowup_second_min,
    clique_game,
    cone,
    game_26666,
    k5minus,
    lower_to,
    planar14,
    product,
    sum_lose,
    trefoil,
    windmill,
)
from hats.core import (
    CapacityError,
    ContractError,
    LOSING,
    PROV_CLIQUE,
    PROV_CONE,
    PROV_EXHAUSTIVE,
    PROV_MAJORIZE,
    PROV_PRODUCT,
    PROV_SUM_LOSE,
    WINNING,
    assignment_at,
    hg_lower_bound,
    value_list,
)
from hats.solver import check_against_clique_theorem
from conftest import naive_verify


class TestCliqueGame:
    def test_winning_has_strategy_and_clique_leaf(self):
        cg = clique_game([2, 3, 6])
        assert cg.verdict.status == WINNING
        assert cg.strategy is not None
        assert cg.verdict.provenance.kind == PROV_CLIQUE

    def test_losing_has_no_strategy(self):
        cg = clique_game([2, 3, 7])
        assert cg.verdict.status == LOSING
        assert cg.strategy is None

    def test_winning_needs_strategy_invariant(self):
        cg = clique_game([2, 2])
        with pytest.raises(ContractError):
            ComposedGame(cg.game, cg.verdict, None)


class TestProduct:
    def test_axis_hatness_multiplies(self):
        f = clique_game([2, 6])  # losing; use winning ones instead
        w = clique_game([2, 2])
        composed = product(w, w, "v0", "v0")
        assert composed.game.h("v0") == 4
        assert composed.game.graph.vertices == ("v0", "L/v1", "R/v1")

    def test_requires_winning_factors(self):
        losing = clique_game([2, 6])
        winning = clique_game([2, 2])
        with pytest.raises(ContractError, match="winning factors"):
            product(losing, winning, "v0", "v0")

    def test_glue_name_collision_refused(self):
        # The kept glue name R/v1 would also be the right factor's v1.
        inner = product(clique_game([2, 2]), clique_game([2, 2]), "v0", "v0")
        assert inner.game.graph.vertices == ("v0", "L/v1", "R/v1")
        with pytest.raises(ContractError, match="names two vertices 'R/v1'"):
            product(inner, clique_game([2, 2]), "R/v1", "v0")

    def test_hatness_one_axis(self):
        g = clique_game([1, 3])
        composed = product(g, g, "v0", "v0")
        assert composed.game.h("v0") == 1

    def test_small_products_verify(self):
        rng = random.Random(5)
        factors = [[2, 2], [2, 3, 6], [3, 3, 3], [2, 4, 4], [1, 2]]
        for _ in range(12):
            h1, h2 = rng.choice(factors), rng.choice(factors)
            g1, g2 = clique_game(h1), clique_game(h2)
            a1 = rng.choice(g1.game.graph.vertices)
            a2 = rng.choice(g2.game.graph.vertices)
            composed = product(g1, g2, a1, a2)
            assert composed.game.h(a1) == g1.game.h(a1) * g2.game.h(a2)
            sweep = naive_verify(composed.game, composed.strategy, limit=10 ** 5)
            assert sweep.counterexample_index is None, (h1, h2, a1, a2)

    def test_provenance_children(self):
        w = clique_game([2, 2])
        composed = product(w, w, "v0", "v0")
        prov = composed.verdict.provenance
        assert prov.kind == PROV_PRODUCT
        assert len(prov.children) == 2
        assert all(c.kind == PROV_CLIQUE for c in prov.children)


class TestCone:
    def test_26666_shape(self, game26666_composed):
        cg = game26666_composed
        assert sorted(cg.game.hat_tuple) == [2, 6, 6, 6, 6]
        assert len(cg.game.graph.vertices) == 5
        assert len(cg.game.graph.edges) == 7
        assert cg.game.h("O") == 2

    def test_26666_verifies_exhaustively(self, game26666_composed):
        cg = game26666_composed
        assert cg.game.color_space == 2592
        sweep = naive_verify(cg.game, cg.strategy, limit=3000)
        assert sweep.counterexample_index is None

    def test_attachment_hatness_bookkeeping(self, game26666_composed):
        # h'(A_i) = petal hatness * base hatness at every attachment.
        cg = game26666_composed
        assert cg.game.h("0/v1") == 3 * 2
        assert cg.game.h("1/v1") == 3 * 2
        assert cg.game.h("0/v2") == 6

    def test_unequal_apex_hatness_rejected(self):
        base = clique_game([2, 2])
        p1 = clique_game([2, 3, 6])
        p2 = clique_game([3, 3, 3])
        with pytest.raises(ContractError, match="apex hatness"):
            cone(base, [PetalSpec(p1, "v0", "v1"), PetalSpec(p2, "v0", "v1")])

    def test_petal_count_must_match_base(self):
        base = clique_game([2, 2])
        petal = clique_game([2, 3, 6])
        with pytest.raises(ContractError, match="one petal per base vertex"):
            cone(base, [PetalSpec(petal, "v0", "v1")])

    def test_nonadjacent_apex_attachment_rejected(self):
        from hats.core import Game, Graph, Provenance, Verdict

        path = ComposedGame(
            Game(Graph(("a", "b", "c"), [("a", "b"), ("b", "c")]), {"a": 2, "b": 2, "c": 2}),
            Verdict(LOSING, Provenance("solver")),
        )
        with pytest.raises(ContractError, match="adjacent"):
            PetalSpec(path, "a", "c")

    def test_single_petal_identity_like(self):
        base = clique_game([1])
        petal = clique_game([2, 3, 6])
        composed = cone(base, [PetalSpec(petal, "v0", "v1")])
        assert composed.game.h("0/v1") == 3 * 1
        assert composed.game.h("O") == 2
        sweep = naive_verify(composed.game, composed.strategy)
        assert sweep.counterexample_index is None

    def test_planar14_cone_layer(self, trefoil_composed):
        petal = k5minus()
        specs = [PetalSpec(petal, "A2", "A3")] * 13
        gprime = cone(trefoil_composed, specs)
        values = Counter(gprime.game.hat_tuple)
        assert values == {2: 1, 14: 39, 18: 12, 24: 1}
        assert len(gprime.game.graph.vertices) == 53


class TestCompositeRows:
    """Each factor vertex's row in the composed game holds the name the
    README documents and the factor's hatness, or the product at the glue
    or the attachment."""

    @pytest.mark.parametrize("left, right, a1, a2", [
        (game_26666, lambda: clique_game([2, 3, 6]), "O", "v0"),
        (lambda: clique_game([2, 3, 6]), game_26666, "v1", "0/v1"),
    ])
    def test_product_rows(self, left, right, a1, a2):
        left, right = left(), right()
        composed = product(left, right, a1, a2)
        strategy, vertices, hats = composed.strategy, composed.game.graph.vertices, composed.game.hat_tuple
        glued = left.game.h(a1) * right.game.h(a2)
        assert set(strategy.left_rows) & set(strategy.right_rows) == {composed.game.graph.index[a1]}
        for part, rows, at, prefix in ((left, strategy.left_rows, a1, "L/"),
                                       (right, strategy.right_rows, a2, "R/")):
            assert len(rows) == len(part.game.graph.vertices)
            for v, r in zip(part.game.graph.vertices, rows):
                assert vertices[r] == (a1 if v == at else prefix + v)
                assert hats[r] == (glued if v == at else part.game.h(v))

    def test_cone_rows(self):
        base, petal = clique_game([2, 2]), k5minus()
        composed = cone(base, [PetalSpec(petal, "A2", "A3")] * 2)
        strategy, vertices, hats = composed.strategy, composed.game.graph.vertices, composed.game.hat_tuple
        names = petal.game.graph.vertices
        assert len(strategy.petal_rows) == 2
        for i, (rows, o, a) in enumerate(zip(strategy.petal_rows, strategy.petal_o, strategy.petal_a)):
            assert (names[o], names[a]) == ("A2", "A3")
            assert len(rows) == len(names)
            for v, r in zip(names, rows):
                assert vertices[r] == ("O" if v == "A2" else f"{i}/{v}")
                assert hats[r] == petal.game.h(v) * (base.game.hat_tuple[i] if v == "A3" else 1)


class TestSumLose:
    def test_windmill_upper_bound_composition(self):
        # Losing factor: axis 2, one sage 2k-1, the rest 2k-2 (k = 3).
        factor = clique_game([2, 5, 4])
        assert factor.verdict.status == LOSING
        assert sum(Fraction(1, a) for a in (2, 5, 4)) == Fraction(19, 20)
        composed = sum_lose(factor, factor, "v0", "v0")
        assert composed.verdict.status == LOSING
        assert composed.strategy is None
        assert composed.game.h("v0") == 2
        assert sorted(composed.game.hat_tuple) == [2, 4, 4, 5, 5]
        assert composed.verdict.provenance.kind == PROV_SUM_LOSE
        # The constant game at 2k-1 = 5 majorizes this losing game, so it
        # is losing too: the windmill's hat guessing number stays below 5.
        from hats.core import Game, majorizes

        const5 = Game(composed.game.graph, {v: 5 for v in composed.game.graph.vertices})
        assert majorizes(const5, composed.game)

    def test_right_axis_hatness_must_be_two(self):
        losing = clique_game([3, 4])
        with pytest.raises(ContractError, match="hatness 2"):
            sum_lose(losing, losing, "v0", "v0")

    def test_requires_losing_inputs(self):
        losing = clique_game([2, 6])
        winning = clique_game([2, 2])
        with pytest.raises(ContractError, match="losing summands"):
            sum_lose(losing, winning, "v0", "v0")


class TestWindmill:
    def test_k3_n2(self):
        composed = windmill(3, 2)
        assert composed.verdict.status == WINNING
        assert len(composed.game.graph.vertices) == 5
        assert set(composed.game.hat_tuple) == {4}
        sweep = naive_verify(composed.game, composed.strategy)
        assert sweep.counterexample_index is None

    def test_k4_n3_shape(self):
        composed = windmill(4, 3)
        assert len(composed.game.graph.vertices) == 10
        assert set(composed.game.hat_tuple) == {6}
        assert composed.verdict.status == WINNING

    def test_k2_n1_degenerate(self):
        composed = windmill(2, 1)
        assert len(composed.game.graph.vertices) == 2
        assert composed.game.hat_tuple == (2, 2)

    def test_small_n_returns_raw_product(self):
        composed = windmill(5, 2)  # 2^2 < 8, no majorization step
        assert composed.game.h("v0") == 4
        assert composed.verdict.provenance.kind == PROV_PRODUCT

    def test_k_below_two_rejected(self):
        with pytest.raises(ContractError):
            windmill(1, 3)

    @pytest.mark.parametrize("k, n", [(10 ** 9, 2), (2, 10 ** 5), (2, MAX_WINDMILL_SIZE), (65, 1)])
    def test_too_large_refused_before_building(self, k, n):
        # (2, MAX_WINDMILL_SIZE) has one vertex too many, (65, 1) 2,080 edges.
        with pytest.raises(CapacityError, match="too large"):
            windmill(k, n)

    def test_most_edges_admitted(self):
        assert len(windmill(64, 1).game.graph.edges) == 2016 <= MAX_WINDMILL_SIZE

    def test_deep_builds_compare_and_print(self):
        # 1,200 nested products: structural equality or repr of the strategy
        # tree would pass the recursion limit.  Strategies compare by identity.
        a, b = windmill(2, 1200), windmill(2, 1200)
        assert a.strategy != b.strategy
        assert a.strategy == a.strategy
        assert a != b
        assert repr(a.strategy) == "AdaptedStrategy(kind='majorize-adapter', vertices=<1201>)"
        assert "AdaptedStrategy(" in repr(a)


class TestBlowup:
    def test_26666_blowup_is_trefoil(self, game26666_composed, trefoil_composed):
        composed, bound = blowup_second_min(game26666_composed, 3)
        assert bound == 6
        assert composed.game == trefoil_composed.game

    def test_bound_formula(self, game26666_composed):
        composed, bound = blowup_second_min(game26666_composed, 3)
        assert composed.game.h("O") == 8
        assert bound == min(2 ** 3, 6)

    def test_identity_copy(self, game26666_composed):
        composed, bound = blowup_second_min(game26666_composed, 1)
        assert composed is game26666_composed
        assert bound == 2

    def test_hatness_one_rejected(self):
        g = clique_game([1, 2])
        with pytest.raises(ContractError, match="hatness 1"):
            blowup_second_min(g, 2)


@pytest.mark.parametrize("call", [
    lambda: assignment_at(clique_game([2, 2]).game, 1.5),
    lambda: assignment_at(clique_game([2, 2]).game, True),
    lambda: windmill(2.5, 3),
    lambda: windmill(3, 2.0),
    lambda: blowup_second_min(trefoil(), 2.0),
    lambda: blowup_second_min(clique_game([2, 2]), True),
    lambda: check_against_clique_theorem(2.5, 3),
], ids=["index-float", "index-bool", "windmill-k", "windmill-n", "copies-float", "copies-bool",
        "clique-theorem-n"])
def test_non_integer_arguments_refused(call):
    # A float or a bool where a builder or a decoder takes an integer is
    # refused, not decoded as a float "assignment" or failed with a TypeError.
    with pytest.raises(ContractError, match="must be an integer"):
        call()


class TestTrefoil:
    def test_shape(self, trefoil_composed):
        assert len(trefoil_composed.game.graph.vertices) == 13
        assert value_list(trefoil_composed.game) == (6,) * 12 + (8,)

    def test_lower_bound_via_majorization(self, trefoil_composed):
        lowered = lower_to(
            trefoil_composed, {v: 6 for v in trefoil_composed.game.graph.vertices}
        )
        assert set(lowered.game.hat_tuple) == {6}
        assert hg_lower_bound(lowered.verdict, lowered.game) == 6
        assert lowered.verdict.provenance.kind == PROV_MAJORIZE


class TestPlanar14:
    def test_shape(self, planar14_composed):
        game = planar14_composed.game
        assert len(game.graph.vertices) == 209
        assert game.graph.is_connected()
        assert Counter(game.hat_tuple) == {16: 1, 24: 4, 18: 48, 14: 156}
        assert game.h("O") == 16

    def test_lower_bound(self, planar14_composed):
        assert hg_lower_bound(planar14_composed.verdict, planar14_composed.game) == 14

    def test_provenance_structure(self, planar14_composed):
        prov = planar14_composed.verdict.provenance
        # Three gluings of four cone copies at the top of the tree.
        assert prov.kind == PROV_PRODUCT
        top_products = 0
        node = prov
        while node.kind == PROV_PRODUCT:
            top_products += 1
            node = node.children[0]
        assert top_products == 3
        copy_cones = [
            n for n in prov.walk() if n.kind == PROV_CONE and len(n.children) == 14
        ]
        assert len(copy_cones) == 4
        for cone_node in copy_cones:
            petal_leaves = cone_node.children[1:]
            assert all(p.kind == PROV_EXHAUSTIVE for p in petal_leaves)

    def test_leaves_are_base_facts(self, planar14_composed):
        leaves = planar14_composed.verdict.provenance.leaves()
        assert {leaf.kind for leaf in leaves} == {PROV_CLIQUE, PROV_EXHAUSTIVE}
        assert sum(1 for leaf in leaves if leaf.kind == PROV_EXHAUSTIVE) == 52
        assert sum(1 for leaf in leaves if leaf.kind == PROV_CLIQUE) == 36


class TestProvenanceCompleteness:
    def test_every_winning_tree_bottoms_out_in_base_facts(
        self, game26666_composed, trefoil_composed
    ):
        for composed in (
            clique_game([2, 2]),
            game26666_composed,
            trefoil_composed,
            windmill(3, 2),
            k5minus(),
        ):
            if composed.verdict.status != WINNING:
                continue
            for leaf in composed.verdict.provenance.leaves():
                assert leaf.kind in (PROV_CLIQUE, PROV_EXHAUSTIVE)


class TestRandomCones:
    def test_random_cones_verify(self):
        rng = random.Random(11)
        tails = {2: [[2], [3, 6], [4, 4], [2, 2]], 3: [[2, 6], [3, 3], [2, 2], [2, 4]]}
        checked = 0
        while checked < 6:
            base_hats = rng.choice([[2, 2], [1, 2], [3, 3, 3], [2, 3, 6]])
            base = clique_game(base_hats)
            apex_h = rng.choice([2, 3])
            specs = []
            for _ in base_hats:
                petal = clique_game([apex_h] + rng.choice(tails[apex_h]))
                assert petal.verdict.status == WINNING
                specs.append(PetalSpec(petal, "v0", "v1"))
            composed = cone(base, specs)
            if composed.game.color_space > 10 ** 5:
                continue
            sweep = naive_verify(composed.game, composed.strategy, limit=10 ** 5)
            assert sweep.counterexample_index is None, (base_hats, apex_h)
            checked += 1
