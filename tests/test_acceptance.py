"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line with its measured numbers (run with -s to see them all).

Criterion 5's full exhaustive trefoil sweep (about 1.74e10 assignments)
is the optional long-running tier; enable it with HATS_RUN_SLOW=1.
"""

import math
import os
import random
import time
from fractions import Fraction

import pytest

from hats.constructors import (
    PetalSpec,
    clique_game,
    cone,
    game_26666,
    k5minus,
    planar14,
    product,
    trefoil,
    windmill,
)
from hats.core import (
    Game,
    LOSING,
    PROV_CLIQUE,
    PROV_CONE,
    PROV_EXHAUSTIVE,
    PROV_PRODUCT,
    WINNING,
    Graph,
    assignment_index,
    complete_graph,
    hg_lower_bound,
    value_list,
)
from hats.embedding import face_trace, is_outerplanar_embedding, is_planar_embedding
from hats.solver import solve_exact
from hats.strategy import (
    TableStrategy,
    clique_strategy,
    k5minus_strategy,
    load_trap_table,
    validate_trap_table,
)
from hats.verifier import verify_exhaustive, verify_sampled
from conftest import naive_verify


def report(criterion, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_k5minus_lemma():
    game, strategy = k5minus_strategy()
    start = time.perf_counter()
    result = verify_exhaustive(game, strategy, jobs=1)
    elapsed = time.perf_counter() - start
    ok = (
        result.checked == 2 * 3 * 14 ** 3 == 16464
        and result.counterexample is None
        and elapsed < 1.0
    )
    report(1, ok, f"trap strategy swept {result.checked} assignments clean in {elapsed:.3f}s")


def test_criterion_2_trap_table():
    start = time.perf_counter()
    table = load_trap_table()
    violations = validate_trap_table(table)
    elapsed = time.perf_counter() - start
    ok = len(table.rows) == 14 and violations == [] and elapsed < 1.0
    report(2, ok, f"14 shipped rows, {len(violations)} violations in {elapsed:.3f}s")


def test_criterion_3_clique_criterion_both_directions():
    from itertools import combinations_with_replacement

    start = time.perf_counter()
    checked = 0
    for n in range(1, 4):
        for hats in combinations_with_replacement(range(1, 5), n):
            names = tuple(f"v{i}" for i in range(n))
            game = Game(complete_graph(names), dict(zip(names, hats)))
            expected_win = sum(Fraction(1, a) for a in hats) >= 1
            result = solve_exact(game)
            assert result.status in (WINNING, LOSING), hats
            assert (result.status == WINNING) == expected_win, hats
            if expected_win:
                sweep = verify_exhaustive(game, clique_strategy(game), jobs=1)
                assert sweep.counterexample is None, hats
            checked += 1
    elapsed = time.perf_counter() - start
    ok = checked == 34 and elapsed < 60.0
    report(3, ok, f"{checked} complete-graph games agree with the criterion in {elapsed:.2f}s")


def test_criterion_4_game_26666():
    start = time.perf_counter()
    composed = game_26666()
    result = verify_exhaustive(composed.game, composed.strategy, jobs=1)
    outer = is_outerplanar_embedding(composed.game.graph, composed.rotation)
    elapsed = time.perf_counter() - start
    ok = (
        result.checked == 2592
        and result.counterexample is None
        and sorted(composed.game.hat_tuple) == [2, 6, 6, 6, 6]
        and outer
        and elapsed < 1.0
    )
    report(4, ok, f"2592-assignment sweep clean, outerplanar, in {elapsed:.3f}s")


def test_criterion_5_trefoil(trefoil_composed):
    composed = trefoil_composed
    values = value_list(composed.game)
    outer = is_outerplanar_embedding(composed.game.graph, composed.rotation)
    start = time.perf_counter()
    result = verify_sampled(composed.game, composed.strategy, 10 ** 7, seed=2024)
    elapsed = time.perf_counter() - start
    ok = (
        values == (6,) * 12 + (8,)
        and outer
        and result.checked == 10 ** 7
        and result.counterexample is None
        and elapsed < 60.0
    )
    report(5, ok, f"value list (6 x12, 8), outerplanar, 1e7 samples clean in {elapsed:.1f}s")


@pytest.mark.slow
@pytest.mark.skipif(not os.environ.get("HATS_RUN_SLOW"),
                    reason="long-running tier; set HATS_RUN_SLOW=1")
def test_criterion_5_trefoil_full_sweep(trefoil_composed):
    composed = trefoil_composed
    start = time.perf_counter()
    result = verify_exhaustive(composed.game, composed.strategy)
    elapsed = time.perf_counter() - start
    ok = result.counterexample is None and result.checked == 8 * 6 ** 12
    report(5, ok, f"full sweep of {result.checked} assignments clean in {elapsed:.0f}s")


def test_criterion_6_windmill_lower_bounds():
    start = time.perf_counter()
    w32 = windmill(3, 2)
    r32 = verify_exhaustive(w32.game, w32.strategy, jobs=1)
    w43 = windmill(4, 3)
    r43 = verify_exhaustive(w43.game, w43.strategy)
    elapsed = time.perf_counter() - start
    ok = (
        r32.checked == 4 ** 5 == 1024
        and r32.counterexample is None
        and set(w32.game.hat_tuple) == {4}
        and r43.checked == 6 ** 10
        and r43.counterexample is None
        and set(w43.game.hat_tuple) == {6}
        and elapsed < 300.0
    )
    report(6, ok, f"constant-4 and constant-6 windmills swept clean in {elapsed:.1f}s")


def test_criterion_7_windmill_upper_bound_degenerate():
    names = ("axis", "l0", "l1")
    star = Game(
        Graph(names, [("axis", "l0"), ("axis", "l1")]),
        {v: 3 for v in names},
    )
    start = time.perf_counter()
    result = solve_exact(star)
    elapsed = time.perf_counter() - start
    ok = result.status == LOSING and elapsed < 60.0
    report(7, ok, f"star at constant 3 refuted in {result.nodes} nodes, {elapsed:.2f}s")


def test_criterion_8_planar14(planar14_composed):
    start = time.perf_counter()
    composed = planar14_composed
    game = composed.game

    structural = (
        len(game.graph.vertices) == 209
        and game.graph.is_connected()
        and min(game.hat_tuple) == 14
        and game.h("O") == 16
        and hg_lower_bound(composed.verdict, game) == 14
    )
    planar = (
        composed.rotation is not None
        and is_planar_embedding(game.graph, composed.rotation)
        and face_trace(game.graph, composed.rotation)
        == len(game.graph.edges) - len(game.graph.vertices) + 2
    )

    prov = composed.verdict.provenance
    top_products = 0
    node = prov
    while node.kind == PROV_PRODUCT:
        top_products += 1
        node = node.children[0]
    copy_cones = [n for n in prov.walk() if n.kind == PROV_CONE and len(n.children) == 14]
    petals_exhaustive = all(
        child.kind == PROV_EXHAUSTIVE
        for cone_node in copy_cones
        for child in cone_node.children[1:]
    )
    leaf_kinds = {leaf.kind for leaf in prov.leaves()}
    provenance_ok = (
        top_products == 3
        and len(copy_cones) == 4
        and petals_exhaustive
        and leaf_kinds == {PROV_CLIQUE, PROV_EXHAUSTIVE}
    )

    sampled = verify_sampled(game, composed.strategy, 10 ** 6, seed=14)
    elapsed = time.perf_counter() - start
    ok = (
        structural
        and planar
        and provenance_ok
        and sampled.checked == 10 ** 6
        and sampled.counterexample is None
        and elapsed < 300.0
    )
    report(
        8, ok,
        "209 vertices, min hatness 14, planar certificate, provenance "
        f"(4 cones, 3 top products, exhaustive petal leaves), 1e6 samples clean in {elapsed:.1f}s",
    )


def _random_winning_clique(rng, max_n=3, max_h=6):
    while True:
        n = rng.randint(1, max_n)
        hats = [rng.randint(1, max_h) for _ in range(n)]
        if sum(Fraction(1, a) for a in hats) >= 1:
            return clique_game(hats)


def test_criterion_9_combinator_soundness():
    rng = random.Random(90)
    start = time.perf_counter()

    products = 0
    while products < 100:
        g1 = _random_winning_clique(rng)
        g2 = _random_winning_clique(rng)
        a1 = rng.choice(g1.game.graph.vertices)
        a2 = rng.choice(g2.game.graph.vertices)
        composed = product(g1, g2, a1, a2)
        if composed.game.color_space > 10 ** 6:
            continue
        result = verify_exhaustive(composed.game, composed.strategy)
        assert result.counterexample is None, (dict(g1.game.hatness), dict(g2.game.hatness))
        products += 1

    tails = {2: [[2], [3, 6], [4, 4], [2, 2]], 3: [[2, 6], [3, 3], [2, 4]],
             4: [[2, 4], [2, 3], [2, 2]]}
    cones = 0
    while cones < 25:
        base = _random_winning_clique(rng)
        apex_h = rng.choice(list(tails))
        specs = [
            PetalSpec(clique_game([apex_h] + rng.choice(tails[apex_h])), "v0", "v1")
            for _ in base.game.graph.vertices
        ]
        composed = cone(base, specs)
        if composed.game.color_space > 10 ** 6:
            continue
        result = verify_exhaustive(composed.game, composed.strategy)
        assert result.counterexample is None, dict(base.game.hatness)
        cones += 1

    elapsed = time.perf_counter() - start
    ok = elapsed < 300.0
    report(9, ok, f"100 products and 25 cones verified exhaustively in {elapsed:.1f}s")


def test_criterion_10_verifier_oracle_equivalence():
    def zeros(game):
        tables = {
            v: (0,) * math.prod(game.h(u) for u in game.graph.adjacency[v])
            for v in game.graph.vertices
        }
        return TableStrategy(game, tables)

    def cliq(hats):
        names = tuple(f"v{i}" for i in range(len(hats)))
        return Game(complete_graph(names), dict(zip(names, hats)))

    corpus = []
    for hats in ([2, 2], [2, 3, 6], [3, 3, 3], [2, 4, 4], [1, 5]):
        game = cliq(hats)
        corpus.append((game, clique_strategy(game)))
        corpus.append((game, zeros(game)))
    k23 = cliq([2, 3])
    corpus.append((k23, TableStrategy(k23, {"v0": (0, 1, 0), "v1": (1, 0)})))
    g26666 = game_26666()
    corpus.append((g26666.game, g26666.strategy))
    w32 = windmill(3, 2)
    corpus.append((w32.game, w32.strategy))

    start = time.perf_counter()
    compared = 0
    for game, strategy in corpus:
        assert game.color_space <= 10 ** 4
        reference = naive_verify(game, strategy)
        for jobs, chunk in ((1, 1 << 16), (2, 17)):
            parallel = verify_exhaustive(game, strategy, jobs=jobs, chunk=chunk)
            if reference.counterexample_index is None:
                assert parallel.counterexample is None
            else:
                assert parallel.counterexample is not None
                assert (
                    assignment_index(game, parallel.counterexample)
                    == reference.counterexample_index
                )
        compared += 1
    elapsed = time.perf_counter() - start
    report(10, True, f"{compared} corpus games agree with the naive reference in {elapsed:.1f}s")
