import hashlib
import itertools
import json
import random
from fractions import Fraction

import pytest

from hats.core import (
    CapacityError,
    Game,
    Graph,
    LOSING,
    UNKNOWN,
    WINNING,
    complete_graph,
    load_game,
    majorizes,
)
from hats.solver import (
    MAX_OPTIONS,
    SearchBudget,
    _Search,
    check_against_clique_theorem,
    solve_exact,
)
from hats.verifier import verify_exhaustive
from conftest import brute_force_decide, naive_verify


def clique(hats):
    names = tuple(f"v{i}" for i in range(len(hats)))
    return Game(complete_graph(names), dict(zip(names, hats)))


def star(leaves, hatness):
    names = ("axis",) + tuple(f"l{i}" for i in range(leaves))
    return Game(
        Graph(names, [("axis", leaf) for leaf in names[1:]]),
        {v: hatness for v in names},
    )


def cycle(n, hatness):
    names = tuple(f"v{i}" for i in range(n))
    return Game(
        Graph(names, [(names[i], names[(i + 1) % n]) for i in range(n)]),
        {v: hatness for v in names},
    )


def edgeless(hats):
    names = tuple(f"v{i}" for i in range(len(hats)))
    return Game(Graph(names, []), dict(zip(names, hats)))


class TestSolveExact:
    def test_lone_sage_loses(self):
        result = solve_exact(clique([2]))
        assert result.status == LOSING

    def test_edge_games(self):
        assert solve_exact(clique([2, 3])).status == LOSING
        assert solve_exact(clique([2, 2])).status == WINNING

    def test_triangle_games(self):
        assert solve_exact(clique([3, 3, 3])).status == WINNING
        assert solve_exact(clique([2, 3, 7])).status == LOSING

    def test_winning_tables_verify(self):
        for hats in ([2, 2], [3, 3, 3], [2, 4, 4], [1, 9]):
            result = solve_exact(clique(hats))
            assert result.status == WINNING
            sweep = naive_verify(result.strategy.game, result.strategy)
            assert sweep.counterexample_index is None, hats

    def test_star_constant_three_loses(self):
        result = solve_exact(star(2, 3))
        assert result.status == LOSING

    def test_star_constant_two_wins(self):
        result = solve_exact(star(2, 2))
        assert result.status == WINNING
        sweep = naive_verify(result.strategy.game, result.strategy)
        assert sweep.counterexample_index is None

    def test_budget_exhaustion_returns_unknown(self):
        result = solve_exact(star(3, 3), SearchBudget(max_nodes=2))
        assert result.status == UNKNOWN
        assert result.nodes > 2

    def test_pattern_capacity(self):
        # v2 sees 257 * 257 = 66,049 patterns, above MAX_PATTERNS = 2**16,
        # while its 396,294 options stay below MAX_OPTIONS.
        with pytest.raises(CapacityError, match="visible patterns"):
            solve_exact(clique([257, 257, 2]))

    @pytest.mark.parametrize("hats", [[2] * 24, [2 ** 24]])
    def test_option_capacity_refuses_before_building(self, hats):
        # 4.0e8 and 1.7e7 options: refused from the sizes alone, before
        # any per-option list is allocated.
        game = edgeless(hats)
        assert game.color_space * len(hats) > MAX_OPTIONS
        with pytest.raises(CapacityError, match="options"):
            solve_exact(game)

    def test_deep_search_budget_is_unknown(self):
        # K7 at 3 colors searches deeper than a recursive search could go
        # under the interpreter's default recursion limit.
        result = solve_exact(clique([3] * 7), SearchBudget(1000))
        assert result.status == UNKNOWN
        assert result.nodes == 1001

    def test_deep_search_wins(self):
        game = clique([3] * 7)
        result = solve_exact(game, SearchBudget(3000))
        assert result.status == WINNING
        assert result.nodes == 2187
        report = verify_exhaustive(game, result.strategy, jobs=1)
        assert report.counterexample is None

    def test_result_json(self):
        result = solve_exact(clique([2, 2]))
        doc = result.to_json()
        assert doc["status"] == "winning"
        assert set(doc["table"]) == {"v0", "v1"}


class TestBruteForceAgreement:
    """Solver verdicts equal full table enumeration wherever enumeration
    is feasible."""

    def _games(self):
        graphs = {
            1: [()],
            2: [(("v0", "v1"),), ()],
            3: [
                (("v0", "v1"), ("v0", "v2"), ("v1", "v2")),
                (("v0", "v1"), ("v1", "v2")),
                (("v0", "v1"),),
            ],
        }
        for n, edge_sets in graphs.items():
            for edges in edge_sets:
                for hats in itertools.combinations_with_replacement((1, 2, 3, 4), n):
                    names = tuple(f"v{i}" for i in range(n))
                    yield Game(Graph(names, edges), dict(zip(names, hats)))

    def test_tiny_scale_completeness(self):
        compared = 0
        for game in self._games():
            expected = brute_force_decide(game, cap=400_000)
            if expected is None:
                continue
            result = solve_exact(game)
            assert result.status in (WINNING, LOSING)
            assert (result.status == WINNING) == expected, dict(game.hatness)
            compared += 1
        assert compared >= 40

    def test_losing_majorization_monotonicity(self):
        # Losing passes up: if the smaller game already loses, every game
        # majorizing it loses too.
        rng = random.Random(7)
        checked = 0
        while checked < 15:
            n = rng.randint(1, 3)
            low = [rng.randint(1, 3) for _ in range(n)]
            high = [h + rng.randint(0, 2) for h in low]
            g_low, g_high = clique(low), clique(high)
            assert majorizes(g_high, g_low)
            if solve_exact(g_low).status == LOSING:
                assert solve_exact(g_high).status == LOSING, (low, high)
                checked += 1


class TestCliqueTheoremCheck:
    def test_two_by_four(self):
        report = check_against_clique_theorem(2, 4)
        assert report.clean
        assert report.games_checked == 4 + 10

    def test_three_by_four_includes_boundary(self):
        report = check_against_clique_theorem(3, 4)
        assert report.clean
        assert report.games_checked == 34
        # The boundary multiset [2, 4, 4] has reciprocal sum exactly 1.
        assert sum(Fraction(1, a) for a in (2, 4, 4)) == 1
        assert solve_exact(clique([2, 4, 4])).status == WINNING

    def test_windmill_degenerate_consistency(self):
        # K_{1,2} at constant 3 is the two-triangle windmill at k = 2
        # collapsed to a star; hat guessing number 2k-2 = 2 < 3.
        assert solve_exact(star(2, 3)).status == LOSING
        assert solve_exact(star(2, 2)).status == WINNING


class _CheckedSearch(_Search):
    """Recomputes the per-color references from the option lists, and
    every derived count and branch key from the domains, after each undo."""

    def _undo(self, mark):
        super()._undo(mark)
        self.check_counts()

    def check_counts(self):
        refs = [[[] for _ in by_color] for by_color in self.refs]
        for a, options in enumerate(self.options):
            for cell, own in options:
                refs[cell][own].append(a)
        assert self.refs == refs
        npos = [0] * len(self.options)
        assured = [0] * len(self.options)
        for cell, by_color in enumerate(refs):
            dom = self.dom[cell]
            for req, assignments in enumerate(by_color):
                for a in assignments:
                    npos[a] += dom >> req & 1
                    assured[a] += dom == 1 << req
        assert self.npos == npos
        assert self.assured == assured
        assert self.uncovered == assured.count(0)
        assert self.potential == sum(
            cap for dom, cap in zip(self.dom, self.cell_cap) if dom & (dom - 1))
        assert self.stride > max(npos)
        assert self.key == [n + self.stride * k for n, k in zip(npos, assured)]


class TestSearchState:
    @pytest.mark.parametrize("game, budget", [
        (cycle(4, 3), 1000), (star(3, 3), 1000), (clique([3, 3, 3]), 1000),
        (clique([2, 4, 4]), 1000), (clique([3] * 7), 1000), (clique([1, 2, 2]), 1000),
        (clique([4] * 4), 2000), (cycle(5, 3), 2000),
    ], ids=["C4@3", "star(3,3)", "clique[3,3,3]", "clique[2,4,4]", "clique[3]*7",
            "clique[1,2,2]", "clique[4]*4", "C5@3"])
    def test_counts_match_domains_after_every_undo(self, game, budget):
        search = _CheckedSearch(game, SearchBudget(budget))
        search.check_counts()
        search.run()
        search.check_counts()

    @pytest.mark.parametrize("game, budget, status, nodes", [
        (cycle(4, 3), 50_000, WINNING, 1190),
        (clique([3] * 5), 50_000, WINNING, 243),
        (clique([4] * 4), 10_000, UNKNOWN, 10_001),
        (cycle(5, 3), 10_000, UNKNOWN, 10_001),
    ], ids=["C4@3", "clique[3]*5", "clique[4]*4", "C5@3"])
    def test_pinned_search_lengths(self, game, budget, status, nodes):
        result = solve_exact(game, SearchBudget(budget))
        assert (result.status, result.nodes) == (status, nodes)


def _clique_doc(hats):
    names = [f"v{i}" for i in range(len(hats))]
    return json.dumps({
        "vertices": [{"name": v, "hatness": h} for v, h in zip(names, hats)],
        "edges": [[a, b] for i, a in enumerate(names) for b in names[i + 1:]],
    })


def _cycle_doc(n, hatness):
    names = [f"v{i}" for i in range(n)]
    return json.dumps({
        "vertices": [{"name": v, "hatness": hatness} for v in names],
        "edges": [[names[i], names[(i + 1) % n]] for i in range(n)],
    })


def _golden_games():
    """(game document, budget): the benchmark's solve set (every clique
    with n <= 3 and hatness <= 4, then its five larger games), every
    clique with n <= 4 and hatness <= 4 at budget 3,000, and C3-C7 at 3
    colors at budget 3,000."""
    cliques = [hats for n in range(1, 5)
               for hats in itertools.combinations_with_replacement(range(1, 5), n)]
    games = [(_clique_doc(hats), 50_000) for hats in cliques if len(hats) <= 3]
    games += [
        (_cycle_doc(4, 3), 50_000),
        (_clique_doc([3] * 5), 50_000),
        (_clique_doc([4] * 4), 10_000),
        (_cycle_doc(5, 3), 10_000),
        (_clique_doc([3] * 7), 1_000),
    ]
    games += [(_clique_doc(hats), 3_000) for hats in cliques]
    games += [(_cycle_doc(n, 3), 3_000) for n in range(3, 8)]
    return games


def test_results_are_byte_identical_to_the_recorded_search():
    # Any change to the search's node order, pruning or table extraction
    # moves this digest; a change to per-node cost must not.
    games = _golden_games()
    assert len(games) == 39 + 69 + 5
    digest = hashlib.sha256()
    for doc, budget in games:
        result = solve_exact(load_game(doc)[0], SearchBudget(budget))
        digest.update(json.dumps(result.to_json()).encode() + b"\n")
    assert digest.hexdigest() == (
        "ad30413f391b05116fe72bca9b64fde921631c9ab070246f0df48fcd048ac338")
