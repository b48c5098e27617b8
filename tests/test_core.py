import json

import pytest
from hypothesis import given, strategies as st

from hats.core import (
    ContractError,
    Game,
    Graph,
    LOSING,
    Provenance,
    RangeError,
    StructureError,
    UNKNOWN,
    Verdict,
    WINNING,
    assignment_at,
    assignment_index,
    complete_graph,
    dump_game,
    hg_lower_bound,
    load_game,
    majorizes,
    value_list,
)


def make_game(hats, edges=None):
    names = tuple(f"v{i}" for i in range(len(hats)))
    graph = complete_graph(names) if edges is None else Graph(names, edges)
    return Game(graph, dict(zip(names, hats)))


class TestGraph:
    def test_rejects_self_loops(self):
        with pytest.raises(StructureError):
            Graph(("a", "b"), [("a", "a")])

    def test_rejects_unknown_endpoints(self):
        with pytest.raises(StructureError):
            Graph(("a", "b"), [("a", "c")])

    def test_rejects_duplicate_names(self):
        with pytest.raises(StructureError):
            Graph(("a", "a"), [])

    def test_edges_canonicalized(self):
        g = Graph(("a", "b", "c"), [("c", "a"), ("b", "a"), ("a", "b")])
        assert g.edges == (("a", "b"), ("a", "c"))

    def test_neighbors_in_vertex_order(self):
        g = complete_graph(("x", "y", "z"))
        assert g.neighbors("y") == ("x", "z")

    def test_connectivity(self):
        assert complete_graph(("a", "b")).is_connected()
        assert not Graph(("a", "b"), []).is_connected()


class TestGameValidation:
    def test_hatness_keys_must_match(self):
        with pytest.raises(ContractError):
            Game(complete_graph(("a", "b")), {"a": 2})

    def test_hatness_must_be_positive(self):
        with pytest.raises(ContractError):
            Game(complete_graph(("a",)), {"a": 0})

    def test_hatness_must_not_be_bool(self):
        # bool is a subclass of int; True must not pass as hatness 1.
        with pytest.raises(ContractError):
            Game(complete_graph(("a", "b")), {"a": True, "b": 2})


class TestAssignmentAt:
    def test_zero_index(self):
        game = make_game([2, 3])
        assert assignment_at(game, 0) == {"v0": 0, "v1": 0}

    def test_mixed_radix_digit_order(self):
        # 5 = 1 + 2*2 in mixed radix (2, 3): first vertex least significant.
        game = make_game([2, 3])
        assert assignment_at(game, 5) == {"v0": 1, "v1": 2}

    def test_single_digit(self):
        game = make_game([4])
        assert assignment_at(game, 3) == {"v0": 3}

    def test_out_of_range(self):
        game = make_game([2, 3])
        with pytest.raises(RangeError):
            assignment_at(game, 6)
        with pytest.raises(RangeError):
            assignment_at(game, -1)

    def test_bijection_on_small_game(self):
        game = make_game([2, 3])
        seen = set()
        for index in range(6):
            assignment = assignment_at(game, index)
            assert 0 <= assignment["v0"] < 2 and 0 <= assignment["v1"] < 3
            seen.add(tuple(sorted(assignment.items())))
            assert assignment_index(game, assignment) == index
        assert len(seen) == 6

    @given(st.lists(st.integers(min_value=1, max_value=5), min_size=1, max_size=5))
    def test_bijection_property(self, hats):
        game = make_game(hats)
        total = game.color_space
        if total > 10 ** 4:
            return
        seen = set()
        for index in range(total):
            assignment = assignment_at(game, index)
            for v, c in assignment.items():
                assert 0 <= c < game.hatness[v]
            seen.add(tuple(assignment[v] for v in game.graph.vertices))
        assert len(seen) == total


class TestMajorizes:
    def test_pointwise_ge(self):
        assert majorizes(make_game([3, 3, 3]), make_game([2, 3, 3]))
        assert not majorizes(make_game([2, 3, 3]), make_game([3, 3, 3]))

    def test_different_edges(self):
        complete = make_game([2, 2])
        path = make_game([2, 2], edges=[])
        assert not majorizes(complete, path)

    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
        st.data(),
    )
    def test_partial_order(self, hats, data):
        g1 = make_game(hats)
        assert majorizes(g1, g1)  # reflexive
        hats2 = [data.draw(st.integers(min_value=1, max_value=h)) for h in hats]
        hats3 = [data.draw(st.integers(min_value=1, max_value=h)) for h in hats2]
        g2, g3 = make_game(hats2), make_game(hats3)
        assert majorizes(g1, g2) and majorizes(g2, g3)
        assert majorizes(g1, g3)  # transitive
        if majorizes(g2, g1):
            assert g1.hatness == g2.hatness  # antisymmetric


class TestValueList:
    def test_sorted(self):
        assert value_list(make_game([14, 2, 3, 14, 14])) == (2, 3, 14, 14, 14)

    def test_single(self):
        assert value_list(make_game([5])) == (5,)

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=8))
    def test_same_multiset(self, hats):
        game = make_game(hats)
        assert sorted(value_list(game)) == sorted(hats)
        assert sorted(value_list(game)) == sorted(game.hatness.values())


class TestHgLowerBound:
    def test_winning_gives_min_hatness(self):
        game = make_game([6, 6, 8])
        verdict = Verdict(WINNING, Provenance("clique"))
        assert hg_lower_bound(verdict, game) == 6

    def test_unknown_gives_none(self):
        game = make_game([6, 6, 8])
        assert hg_lower_bound(Verdict(UNKNOWN, Provenance("sampled")), game) is None
        assert hg_lower_bound(Verdict(LOSING, Provenance("clique")), game) is None


class TestProvenance:
    def test_walk_and_render_are_pre_order(self):
        tree = Provenance("a", "1", (Provenance("b", "", (Provenance("c"),)), Provenance("d")))
        assert [n.kind for n in tree.walk()] == ["a", "b", "c", "d"]
        assert tree.render() == "a: 1\n  b\n    c\n  d"
        assert [n.kind for n in tree.leaves()] == ["c", "d"]

    def test_deep_chain(self):
        # Far deeper than the recursion limit.
        node = Provenance("leaf")
        for i in range(5000):
            node = Provenance("step", str(i), (node,))
        assert node.count("step") == 5000
        assert [n.kind for n in node.leaves()] == ["leaf"]
        lines = node.render().split("\n")
        assert len(lines) == 5001
        assert lines[0] == "step: 4999"
        assert lines[-1] == "  " * 5000 + "leaf"


class TestJsonDocuments:
    def test_round_trip(self):
        game = make_game([2, 3, 14])
        text = dump_game(game)
        loaded, rotation = load_game(text)
        assert loaded == game
        assert rotation is None

    def test_round_trip_with_rotation(self):
        game = make_game([2, 2, 2])
        rotation = {v: game.graph.neighbors(v) for v in game.graph.vertices}
        loaded, loaded_rotation = load_game(dump_game(game, rotation))
        assert loaded == game
        assert loaded_rotation == rotation

    def test_vertex_order_is_preserved(self):
        game = Game(complete_graph(("z", "a")), {"z": 2, "a": 3})
        doc = json.loads(dump_game(game))
        assert [v["name"] for v in doc["vertices"]] == ["z", "a"]

    def test_malformed_document(self):
        with pytest.raises(ContractError):
            load_game('{"vertices": [{"name": "a"}], "edges": []}')

    def test_deterministic_bytes(self):
        from hats.constructors import game_26666

        a = dump_game(game_26666().game, game_26666().rotation)
        b = dump_game(game_26666().game, game_26666().rotation)
        assert a == b
