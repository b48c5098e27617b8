"""Strategy-preserving game compositions and the named builders.

Every builder returns a :class:`ComposedGame`: the game itself, a verdict
whose provenance tree records which rule justified it, the strategy when
the verdict is Winning, and (when the construction supports one) a
rotation system certifying planarity of the built graph.

Vertex naming under composition is deterministic so that exported games
are reproducible byte for byte: gluing keeps the left operand's name for
the shared vertex and prefixes the rest with ``L/`` and ``R/``; cones
name the apex ``O`` and prefix petal vertices with their petal index.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import embedding
from .core import (
    CapacityError,
    ContractError,
    Game,
    Graph,
    LOSING,
    PROV_CLIQUE,
    PROV_CONE,
    PROV_EXHAUSTIVE,
    PROV_MAJORIZE,
    PROV_PRODUCT,
    PROV_SUM_LOSE,
    Provenance,
    Rotation,
    Verdict,
    WINNING,
    complete_graph,
    require_int,
    value_list,
)
from .strategy import (
    ConeStrategy,
    ProductStrategy,
    Strategy,
    adapt_majorized,
    clique_strategy,
    k5minus_strategy,
)


@dataclass(frozen=True)
class ComposedGame:
    """A built game bundled with its verdict, strategy and certificate."""

    game: Game
    verdict: Verdict
    strategy: Optional[Strategy] = None
    rotation: Optional[Rotation] = None

    def __post_init__(self):
        if self.verdict.status == WINNING and self.strategy is None:
            raise ContractError("winning composed games must carry a strategy")
        if self.strategy is not None and self.strategy.game != self.game:
            raise ContractError("attached strategy is for a different game")
        if self.rotation is not None:
            embedding.validate_rotation(self.game.graph, self.rotation)

    @property
    def is_winning(self) -> bool:
        return self.verdict.status == WINNING


@dataclass(frozen=True)
class PetalSpec:
    """One petal of a cone: the game plus its apex and attachment vertices."""

    petal: ComposedGame
    o_vertex: str
    a_vertex: str

    def __post_init__(self):
        graph = self.petal.game.graph
        for v in (self.o_vertex, self.a_vertex):
            if v not in graph.index:
                raise ContractError(f"petal has no vertex {v!r}")
        if not graph.has_edge(self.o_vertex, self.a_vertex):
            raise ContractError("petal apex and attachment vertices must be adjacent")


# ---------------------------------------------------------------------------
# Bricks


def clique_rotation(names: Sequence[str]) -> Optional[Rotation]:
    """A planar rotation for complete graphs up to K4; None beyond."""
    names = tuple(names)
    n = len(names)
    if n == 1:
        return {names[0]: ()}
    if n in (2, 3):
        return {
            v: tuple(names[(i + j) % n] for j in range(1, n))
            for i, v in enumerate(names)
        }
    if n == 4:
        a, b, c, d = names
        return {a: (b, d, c), b: (c, d, a), c: (a, d, b), d: (a, b, c)}
    return None


def clique_game(hatnesses: Sequence[int], names: Optional[Sequence[str]] = None) -> ComposedGame:
    """Complete-graph game decided by the fractional criterion.

    Winning (with the arithmetic strategy attached) exactly when the sum
    of the hatness reciprocals is at least 1, losing otherwise.
    """
    hatnesses = tuple(hatnesses)
    if not hatnesses:
        raise ContractError("clique game needs at least one vertex")
    if names is None:
        names = tuple(f"v{i}" for i in range(len(hatnesses)))
    names = tuple(names)
    game = Game(complete_graph(names), dict(zip(names, hatnesses)))
    total = sum(Fraction(1, a) for a in hatnesses)
    detail = f"hatnesses {list(hatnesses)}, reciprocal sum {total}"
    rotation = clique_rotation(names)
    if total >= 1:
        return ComposedGame(
            game,
            Verdict(WINNING, Provenance(PROV_CLIQUE, detail)),
            clique_strategy(game),
            rotation,
        )
    return ComposedGame(game, Verdict(LOSING, Provenance(PROV_CLIQUE, detail)), None, rotation)


# Planar rotation of K5 minus the B14-C14 edge: the triangle A2-A3-A14
# with B14 drawn inside it and C14 outside, reaching A14 around A3.
_K5_MINUS_ROTATION: Rotation = {
    "A2": ("A3", "B14", "A14", "C14"),
    "A3": ("A14", "B14", "A2", "C14"),
    "A14": ("A2", "B14", "A3", "C14"),
    "B14": ("A14", "A2", "A3"),
    "C14": ("A14", "A3", "A2"),
}


def k5minus() -> ComposedGame:
    """The [2, 3, 14, 14, 14] game on the almost complete 5-vertex graph.

    The verdict is earned by an exhaustive sweep at construction time;
    the color space has only 16,464 assignments.
    """
    from .verifier import verify_exhaustive

    game, strat = k5minus_strategy()
    report = verify_exhaustive(game, strat, jobs=1)
    if report.counterexample is not None:
        raise ContractError("trap strategy failed its construction sweep")
    return ComposedGame(
        game,
        Verdict(WINNING, Provenance(PROV_EXHAUSTIVE, f"checked {report.checked} assignments")),
        strat,
        dict(_K5_MINUS_ROTATION),
    )


# ---------------------------------------------------------------------------
# Gluing helpers


def _check_gluing_vertices(g1: Game, g2: Game, a1: str, a2: str) -> None:
    if a1 not in g1.graph.index:
        raise ContractError(f"left factor has no vertex {a1!r}")
    if a2 not in g2.graph.index:
        raise ContractError(f"right factor has no vertex {a2!r}")


def _glued_parts(g1: Game, g2: Game, a1: str, a2: str, axis_hatness: int):
    """Glued game, each factor's rows in it (in the factor's vertex order)
    and each factor's renaming, for a checked one-vertex gluing."""
    order = [v if v == a1 else f"L/{v}" for v in g1.graph.vertices]
    hats = [axis_hatness if v == a1 else g1.h(v) for v in g1.graph.vertices]
    right_rows = []
    for v in g2.graph.vertices:
        right_rows.append(g1.graph.index[a1] if v == a2 else len(order))
        if v != a2:
            order.append(f"R/{v}")
            hats.append(g2.h(v))
    if len(set(order)) != len(order):
        clash = next(name for name in order if order.count(name) > 1)
        raise ContractError(f"gluing at {a1!r} names two vertices {clash!r}")
    inv_left = dict(zip(g1.graph.vertices, order))
    inv_right = {v: order[r] for v, r in zip(g2.graph.vertices, right_rows)}
    edges = [(inv_left[x], inv_left[y]) for x, y in g1.graph.edges]
    edges += [(inv_right[x], inv_right[y]) for x, y in g2.graph.edges]
    game = Game(Graph(order, edges), dict(zip(order, hats)))
    return game, range(len(g1.graph.vertices)), tuple(right_rows), inv_left, inv_right


def _largest_face(faces) -> Optional[embedding.Face]:
    """The first face with the most distinct vertices, then the most darts."""
    return max(faces, key=lambda f: (len(embedding.face_vertices(f)), len(f)), default=None)


def _aligned_rotation(rotation: Rotation, glue: str) -> Rotation:
    """Rotate the cyclic list at ``glue`` so its wrap corner lies on the
    largest face through the vertex; gluing then keeps that face outermost."""
    face = _largest_face(f for f in embedding.faces(rotation)
                         if glue in embedding.face_vertices(f))
    if face is None:
        return rotation
    return embedding.wrap_align(rotation, glue, embedding.corner_pairs(face, glue)[0])


def _rename_rotation(rotation: Rotation, inverse_map: dict[str, str]) -> Rotation:
    return {
        inverse_map[v]: tuple(inverse_map[u] for u in order)
        for v, order in rotation.items()
    }


def _glued_rotation(cg1: ComposedGame, cg2: ComposedGame, a1: str, a2: str,
                    inv_left: dict[str, str], inv_right: dict[str, str]) -> Optional[Rotation]:
    if cg1.rotation is None or cg2.rotation is None:
        return None
    r1 = _aligned_rotation(cg1.rotation, a1)
    r2 = _aligned_rotation(cg2.rotation, a2)
    return embedding.merge_at_vertex(
        _rename_rotation(r1, inv_left), _rename_rotation(r2, inv_right), inv_left[a1]
    )


# ---------------------------------------------------------------------------
# Composition theorems


def product(cg1: ComposedGame, cg2: ComposedGame, a1: str, a2: str) -> ComposedGame:
    """Glue two winning games at one vertex; hatnesses multiply there.

    The shared vertex's color is read as a pair (low digit for the left
    factor), and each factor plays its own strategy on its view.
    """
    if not (cg1.is_winning and cg2.is_winning):
        raise ContractError("product requires winning factors")
    _check_gluing_vertices(cg1.game, cg2.game, a1, a2)
    axis_hatness = cg1.game.h(a1) * cg2.game.h(a2)
    game, left_rows, right_rows, inv_left, inv_right = _glued_parts(
        cg1.game, cg2.game, a1, a2, axis_hatness
    )
    strategy = ProductStrategy(game, cg1.strategy, cg2.strategy, left_rows, right_rows)
    verdict = Verdict(
        WINNING,
        Provenance(
            PROV_PRODUCT,
            f"glued at {a1!r}, hatness {cg1.game.h(a1)}*{cg2.game.h(a2)}",
            (cg1.verdict.provenance, cg2.verdict.provenance),
        ),
    )
    rotation = _glued_rotation(cg1, cg2, a1, a2, inv_left, inv_right)
    return ComposedGame(game, verdict, strategy, rotation)


def sum_lose(cg1: ComposedGame, cg2: ComposedGame, a1: str, a2: str) -> ComposedGame:
    """Glue two losing games at one vertex; the result is losing.

    Requires the right factor's hatness at the gluing to be exactly 2 and
    the left's at least 2; the glued vertex keeps the left hatness.  No
    strategy exists to attach, so this propagates verdicts only.
    """
    if cg1.verdict.status != LOSING or cg2.verdict.status != LOSING:
        raise ContractError("sum of losing games requires losing summands")
    _check_gluing_vertices(cg1.game, cg2.game, a1, a2)
    if cg2.game.h(a2) != 2:
        raise ContractError(f"right factor must have hatness 2 at the gluing, got {cg2.game.h(a2)}")
    if cg1.game.h(a1) < 2:
        raise ContractError("left factor needs hatness at least 2 at the gluing")
    game, _, _, inv_left, inv_right = _glued_parts(cg1.game, cg2.game, a1, a2, cg1.game.h(a1))
    verdict = Verdict(
        LOSING,
        Provenance(
            PROV_SUM_LOSE,
            f"glued at {a1!r}",
            (cg1.verdict.provenance, cg2.verdict.provenance),
        ),
    )
    rotation = _glued_rotation(cg1, cg2, a1, a2, inv_left, inv_right)
    return ComposedGame(game, verdict, None, rotation)


def lower_to(cg: ComposedGame, overrides: dict[str, int]) -> ComposedGame:
    """Majorization step: replay a winning strategy at lowered hatnesses."""
    if not cg.is_winning:
        raise ContractError("majorization needs a winning game to lower")
    for v in overrides:
        if v not in cg.game.graph.index:
            raise ContractError(f"no vertex {v!r} to lower")
    lower = {**cg.game.hatness, **overrides}
    strategy = adapt_majorized(cg.strategy, lower)
    verdict = Verdict(
        WINNING,
        Provenance(PROV_MAJORIZE, f"lowered {sorted(overrides)}", (cg.verdict.provenance,)),
    )
    return ComposedGame(strategy.game, verdict, strategy, cg.rotation)


def cone(base: ComposedGame, petals: Sequence[PetalSpec]) -> ComposedGame:
    """Attach one petal per base vertex to a shared apex.

    Petal i's attachment vertex is identified with base vertex i: its
    hatness becomes the product of the petal and base hatnesses there,
    and the base's edges are installed between attachment vertices.  All
    petals must agree on the apex hatness.  The composed strategy plays
    every petal and the base simultaneously; see
    :class:`~hats.strategy.ConeStrategy`.
    """
    petals = list(petals)
    if not base.is_winning:
        raise ContractError("cone requires a winning base game")
    base_vertices = base.game.graph.vertices
    if len(petals) != len(base_vertices):
        raise ContractError(
            f"need one petal per base vertex: {len(base_vertices)} vs {len(petals)}"
        )
    for spec in petals:
        if not spec.petal.is_winning:
            raise ContractError("cone requires winning petals")
    apex_hatness = petals[0].petal.game.h(petals[0].o_vertex)
    for spec in petals:
        if spec.petal.game.h(spec.o_vertex) != apex_hatness:
            raise ContractError("all petals must share the apex hatness")

    apex = "O"
    order: list[str] = [apex]
    hatness: dict[str, int] = {apex: apex_hatness}
    edges: list[tuple[str, str]] = []
    petal_rows: list[tuple[int, ...]] = []
    renames: list[dict[str, str]] = []  # petal name -> composed name, per petal
    for i, spec in enumerate(petals):
        pg = spec.petal.game
        rows = []
        for v in pg.graph.vertices:
            if v == spec.o_vertex:
                rows.append(0)
                continue
            rows.append(len(order))
            order.append(f"{i}/{v}")
            hatness[order[-1]] = pg.h(v) * (base.game.h(base_vertices[i]) if v == spec.a_vertex else 1)
        inv = {v: order[r] for v, r in zip(pg.graph.vertices, rows)}
        edges += [(inv[x], inv[y]) for x, y in pg.graph.edges]
        petal_rows.append(tuple(rows))
        renames.append(inv)
    base_inv = {bv: inv[spec.a_vertex] for bv, inv, spec in zip(base_vertices, renames, petals)}
    chords = [(base_inv[x], base_inv[y]) for x, y in base.game.graph.edges]
    edges += chords

    game = Game(Graph(order, edges), hatness)
    strategy = ConeStrategy(
        game,
        base.strategy,
        tuple(spec.petal.strategy for spec in petals),
        tuple(petal_rows),
        tuple(spec.petal.game.graph.index[spec.o_vertex] for spec in petals),
        tuple(spec.petal.game.graph.index[spec.a_vertex] for spec in petals),
    )
    verdict = Verdict(
        WINNING,
        Provenance(
            PROV_CONE,
            f"{len(petals)} petals at {apex!r}",
            (base.verdict.provenance,) + tuple(s.petal.verdict.provenance for s in petals),
        ),
    )
    rotation = _cone_rotation(base, petals, game, renames, apex, chords)
    return ComposedGame(game, verdict, strategy, rotation)


def _choose_petal_face(spec: PetalSpec, wanted: Optional[embedding.Dart]):
    """The face exposed toward the cone's outer region: it must pass both
    the apex and attachment vertices.

    ``wanted`` is a dart that fixes the walk orientation relative to the
    apex: a petal just before a hugged junction wants its attachment
    vertex to step directly to the apex (dart A->O on the face), the
    petal just after wants the reverse (O->A).  Base edges between
    neighboring petals can then cut off only apex corners, which keeps
    every other vertex on the merged outer face.  Among the faces with
    that dart, or among all candidates when none has it, the largest
    face wins.
    """
    ends = {spec.o_vertex, spec.a_vertex}
    candidates = [f for f in embedding.faces(spec.petal.rotation)
                  if ends <= embedding.face_vertices(f)]
    return _largest_face([f for f in candidates if wanted in f] or candidates)


def _cone_rotation(base: ComposedGame, petals: Sequence[PetalSpec], game: Game,
                   renames: Sequence[dict[str, str]], apex: str,
                   chords: Sequence[tuple[str, str]]) -> Optional[Rotation]:
    """Compose petal embeddings around the apex and add base edges as chords.

    Petals are arranged in the base's outer-face order so that the base
    edges form a non-crossing chord family in the merged outer face; each
    chord insertion then splits one face and preserves the Euler count.
    Returns None when any ingredient lacks a certificate (non-outerplanar
    base, petal without a rotation, or no petal face exposing both the
    apex and the attachment vertex).
    """
    if base.rotation is None or any(spec.petal.rotation is None for spec in petals):
        return None
    base_order = embedding.outer_vertex_order(base.game.graph, base.rotation)
    if base_order is None:
        return None
    base_index = base.game.graph.index

    # Hug one junction per base edge between circle-consecutive petals:
    # the earlier petal exposes its attachment vertex last, the later one
    # first, so that chord cuts off nothing but apex corners.
    wanted: dict[str, embedding.Dart] = {}
    for bv, succ in zip(base_order, base_order[1:] + base_order[:1]):
        if base.game.graph.has_edge(bv, succ):
            before, after = petals[base_index[bv]], petals[base_index[succ]]
            wanted.setdefault(bv, (before.a_vertex, before.o_vertex))
            wanted.setdefault(succ, (after.o_vertex, after.a_vertex))

    merged: Optional[Rotation] = None
    for bv in base_order:
        i = base_index[bv]
        spec = petals[i]
        face = _choose_petal_face(spec, wanted.get(bv))
        if face is None:
            return None
        corners = embedding.corner_pairs(face, spec.o_vertex)
        rot = embedding.wrap_align(spec.petal.rotation, spec.o_vertex, corners[0])
        rot = _rename_rotation(rot, renames[i])
        merged = rot if merged is None else embedding.merge_at_vertex(merged, rot, apex)

    # Faces, and so the chords' faces, are chosen in key order; key the
    # rotation in the game's vertex order before inserting chords.
    rotation = {v: merged[v] for v in game.graph.vertices}
    for x, y in chords:
        rotation = embedding.insert_chord(rotation, x, y)
    return rotation


# ---------------------------------------------------------------------------
# Named constructions


# Most vertices, and most edges, a windmill may have; building windmill(2, n)
# takes time and memory about as n**2, since composed names grow with nesting.
MAX_WINDMILL_SIZE = 2048


def windmill(k: int, n: int) -> ComposedGame:
    """n copies of K_k glued at an axis, at constant hatness 2k-2.

    Each copy plays the clique game with hatness 2 on the axis and 2k-2
    elsewhere (the reciprocal sum is exactly 1).  The product makes the
    axis hatness 2^n; once that reaches 2k-2 the whole game is lowered to
    the constant game.  For smaller n the raw product is returned.
    Raises CapacityError, before building anything, when the windmill
    would have more than MAX_WINDMILL_SIZE vertices or edges.
    """
    if require_int("k", k) < 2:
        raise ContractError("windmill needs k >= 2")
    if require_int("n", n) < 1:
        raise ContractError("windmill needs n >= 1")
    size = max(1 + n * (k - 1), n * k * (k - 1) // 2)
    if size > MAX_WINDMILL_SIZE:
        raise CapacityError(f"windmill({k}, {n}) is too large to build: at most "
                            f"{MAX_WINDMILL_SIZE} vertices and edges", size)
    rest = 2 * k - 2
    factor = clique_game((2,) + (rest,) * (k - 1))
    result = factor
    for _ in range(n - 1):
        result = product(result, factor, "v0", "v0")
    if 2 ** n >= rest and result.game.h("v0") != rest:
        result = lower_to(result, {"v0": rest})
    return result


def blowup_second_min(cg: ComposedGame, copies: int) -> tuple[ComposedGame, int]:
    """Multiply copies of a winning game at its minimum-hatness vertex.

    Returns the composed game and the resulting minimum hatness, which is
    min(a1^copies, a2) for value list (a1, a2, ...): enough copies push
    the glued vertex past the second minimum.
    """
    if not cg.is_winning:
        raise ContractError("blow-up requires a winning game")
    if require_int("copies", copies) < 1:
        raise ContractError("need at least one copy")
    values = value_list(cg.game)
    a1 = values[0]
    if a1 == 1:
        raise ContractError("blow-up cannot raise hatness 1")
    axis = next(v for v in cg.game.graph.vertices if cg.game.h(v) == a1)
    result = cg
    for _ in range(copies - 1):
        result = product(result, cg, axis, axis)
    return result, min(result.game.hat_tuple)


def game_26666() -> ComposedGame:
    """Two triangles [2, 3, 6] coned over an edge base: hatnesses 2,6,6,6,6."""
    base = clique_game((2, 2))
    petal = clique_game((2, 3, 6))
    return cone(base, [PetalSpec(petal, "v0", "v1"), PetalSpec(petal, "v0", "v1")])


def trefoil() -> ComposedGame:
    """Three copies of the 26666 game glued at the hatness-2 vertex.

    13 vertices, value list (6 x12, 8), outerplanar; shows a hat guessing
    number of at least 6.
    """
    composed, _ = blowup_second_min(game_26666(), 3)
    return composed


def planar14() -> ComposedGame:
    """The planar construction with minimum hatness 14.

    Cone 13 trap-strategy petals over the trefoil (one per vertex,
    attached at the hatness-3 sage, apex at the hatness-2 sage), then
    multiply four copies of the result at the apex: 209 vertices, apex
    hatness 16, all other hatnesses in {14, 18, 24}.
    """
    base = trefoil()
    petal = k5minus()
    specs = [PetalSpec(petal, "A2", "A3")] * len(base.game.graph.vertices)
    gprime = cone(base, specs)
    result = gprime
    for _ in range(3):
        result = product(result, gprime, "O", "O")
    return result
