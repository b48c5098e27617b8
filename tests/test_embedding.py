import hashlib
import random

import pytest

from hats.constructors import (
    ComposedGame,
    PetalSpec,
    clique_game,
    clique_rotation,
    cone,
    game_26666,
    k5minus,
    planar14,
    product,
    trefoil,
    windmill,
)
from hats.core import Game, Graph, StructureError, complete_graph, dump_game
from hats.embedding import (
    face_trace,
    is_outerplanar_embedding,
    is_planar_embedding,
    outer_vertex_order,
    trace_faces,
    face_vertices,
    validate_rotation,
)


def cyclic_rotation(graph):
    """Neighbors in vertex order; an arbitrary but valid rotation."""
    return {v: graph.adjacency[v] for v in graph.vertices}


class TestValidation:
    def test_missing_edge_rejected(self):
        g = complete_graph(("a", "b", "c"))
        with pytest.raises(StructureError):
            validate_rotation(g, {"a": ("b",), "b": ("a", "c"), "c": ("a", "b")})

    def test_duplicate_rejected(self):
        g = complete_graph(("a", "b"))
        with pytest.raises(StructureError):
            validate_rotation(g, {"a": ("b", "b"), "b": ("a",)})

    @pytest.mark.parametrize("check", [face_trace, is_planar_embedding,
                                       is_outerplanar_embedding, outer_vertex_order])
    def test_lone_vertex_is_validated(self, check):
        g = Graph(("a",), [])
        assert check(g, {"a": ()})
        with pytest.raises(StructureError):
            check(g, {"a": (), "zz": ()})


class TestFaceTrace:
    def test_triangle(self):
        g = complete_graph(("a", "b", "c"))
        assert face_trace(g, cyclic_rotation(g)) == 2  # 3 - 3 + 2 = 2

    def test_single_edge(self):
        g = complete_graph(("a", "b"))
        assert face_trace(g, cyclic_rotation(g)) == 1  # 2 - 1 + 1 = 2

    def test_k4_planar_rotation(self):
        names = ("a", "b", "c", "d")
        g = complete_graph(names)
        assert face_trace(g, clique_rotation(names)) == 4  # 4 - 6 + 4 = 2

    def test_disconnected_rejected(self):
        g = Graph(("a", "b"), [])
        with pytest.raises(StructureError):
            face_trace(g, {"a": (), "b": ()})

    @pytest.mark.parametrize("check", [face_trace, outer_vertex_order])
    def test_no_vertices_rejected(self, check):
        # Euler's formula reads V - E + F = 1 here, a failed certificate
        # the document cannot mean: refused like a disconnected graph.
        with pytest.raises(StructureError):
            check(Graph((), []), {})

    def test_face_lengths_sum_to_twice_edges(self):
        rng = random.Random(3)
        for _ in range(30):
            n = rng.randint(2, 7)
            names = tuple(f"v{i}" for i in range(n))
            edges = [(names[i], names[i + 1]) for i in range(n - 1)]  # spanning path
            for a in names:
                for b in names:
                    if a < b and rng.random() < 0.4:
                        edges.append((a, b))
            g = Graph(names, edges)
            rotation = {
                v: tuple(rng.sample(g.adjacency[v], len(g.adjacency[v])))
                for v in names
            }
            faces = trace_faces(g, rotation)
            assert sum(len(f) for f in faces) == 2 * len(g.edges)


class TestPlanarity:
    def test_k5_is_never_planar(self):
        names = tuple(f"v{i}" for i in range(5))
        g = complete_graph(names)
        assert not is_planar_embedding(g, cyclic_rotation(g))

    def test_k5_minus_builder_rotation(self):
        cg = k5minus()
        assert is_planar_embedding(cg.game.graph, cg.rotation)
        assert face_trace(cg.game.graph, cg.rotation) == 6  # 2 - 5 + 9

    def test_trefoil_outerplanar(self):
        cg = trefoil()
        assert is_planar_embedding(cg.game.graph, cg.rotation)
        assert is_outerplanar_embedding(cg.game.graph, cg.rotation)

    def test_26666_outerplanar(self):
        cg = game_26666()
        assert is_outerplanar_embedding(cg.game.graph, cg.rotation)

    def test_k4_not_outerplanar(self):
        names = ("a", "b", "c", "d")
        g = complete_graph(names)
        rotation = clique_rotation(names)
        assert is_planar_embedding(g, rotation)
        assert not is_outerplanar_embedding(g, rotation)

    def test_planar14_certificate(self):
        cg = planar14()
        g = cg.game.graph
        assert cg.rotation is not None
        faces = face_trace(g, cg.rotation)
        assert faces == len(g.edges) - len(g.vertices) + 2
        assert is_planar_embedding(g, cg.rotation)

    def test_windmill_rotations(self):
        for k, n in ((2, 2), (3, 2), (4, 3)):
            cg = windmill(k, n)
            assert cg.rotation is not None
            assert is_planar_embedding(cg.game.graph, cg.rotation)
        assert windmill(5, 2).rotation is None  # K5 factors carry no certificate


class TestCompositionPreservesCertificates:
    def test_products_of_certified_games(self):
        rng = random.Random(9)
        bricks = [clique_game(h) for h in ([2, 2], [2, 3, 6], [3, 3, 3], [2, 4, 4])]
        for _ in range(20):
            g1, g2 = rng.choice(bricks), rng.choice(bricks)
            a1 = rng.choice(g1.game.graph.vertices)
            a2 = rng.choice(g2.game.graph.vertices)
            composed = product(g1, g2, a1, a2)
            assert composed.rotation is not None
            assert is_planar_embedding(composed.game.graph, composed.rotation)

    def test_outerplanarity_survives_gluing_at_outer_vertices(self):
        g = game_26666()
        composed = product(g, g, "O", "O")
        assert is_outerplanar_embedding(composed.game.graph, composed.rotation)

    def test_missing_certificate_propagates(self):
        k5 = clique_game([2, 2, 3, 3, 3])
        assert k5.rotation is None
        composed = product(k5, clique_game([2, 2]), "v0", "v0")
        assert composed.rotation is None


def _cone_over_26666():
    return cone(game_26666(), [PetalSpec(clique_game((2, 3, 6)), "v0", "v1")] * 5)


class TestCertificateBoundary:
    """Builders trace their rotations unchecked; ComposedGame is where a
    rotation is validated, and builders key it in vertex order."""

    @pytest.mark.parametrize("rotation", [
        {"v0": ("v1",), "v1": ("v0",), "zz": ()},
        {"v0": ("v1",), "v1": ()},
    ], ids=["extra-key", "missing-neighbor"])
    def test_composed_game_validates_rotation(self, rotation):
        game = Game(complete_graph(("v0", "v1")), {"v0": 2, "v1": 2})
        cg = clique_game((2, 2))
        with pytest.raises(StructureError):
            ComposedGame(game, cg.verdict, cg.strategy, rotation)

    def test_rotations_keyed_in_vertex_order(self, trefoil_composed, planar14_composed):
        for cg in (trefoil_composed, planar14_composed, windmill(3, 5), _cone_over_26666()):
            assert list(cg.rotation) == list(cg.game.graph.vertices)

    def test_random_cones_are_certified(self, k5minus_composed, game26666_composed):
        rng = random.Random(17)
        bases = [clique_game((2, 2)), clique_game((2, 2, 2)), game26666_composed,
                 windmill(2, 3)]
        bricks = [clique_game(h) for h in ((2, 2), (2, 3, 6), (3, 3, 3), (2, 4, 4),
                                           (4, 4, 4, 4))]
        bricks.append(k5minus_composed)
        by_apex_hatness = {}
        for brick in bricks:
            graph = brick.game.graph
            for o in graph.vertices:
                for a in graph.adjacency[o]:
                    by_apex_hatness.setdefault(brick.game.h(o), []).append((brick, o, a))
        for _ in range(40):
            base = rng.choice(bases)
            choices = rng.choice(list(by_apex_hatness.values()))
            specs = [PetalSpec(*rng.choice(choices)) for _ in base.game.graph.vertices]
            composed = cone(base, specs)
            assert composed.rotation is not None
            assert list(composed.rotation) == list(composed.game.graph.vertices)
            assert is_planar_embedding(composed.game.graph, composed.rotation)


class TestCertificateBytes:
    """The built documents, rotation included, are pinned byte for byte."""

    def test_pinned_digests(self, trefoil_composed, planar14_composed):
        pinned = [
            (trefoil_composed,
             "fb504fa614934bf81a750831b22b4a699691545c3143a33a1c3a2edffd9844c3"),
            (planar14_composed,
             "dfb5a21c402d32ae2ec2ee3f155df625a3b59549ef15ddc6c204c4e52c23e79c"),
            (windmill(3, 5),
             "2de67bab495f8d2a1ce04ce5dc4846f1dcc8e8da4ab9437168b8e887ea9b39e1"),
            (_cone_over_26666(),
             "29cfff1959fa462032fda6b62f65d69f908e89a8944baa80a5e3748b43bb5650"),
        ]
        for cg, digest in pinned:
            text = dump_game(cg.game, cg.rotation)
            assert hashlib.sha256(text.encode()).hexdigest() == digest
