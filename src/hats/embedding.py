"""Planarity certificates via rotation systems and Euler's formula.

A rotation system assigns each vertex a cyclic order of its incident
edges.  Tracing faces with the next-edge-in-rotation rule and counting
them decides whether the rotation describes a sphere embedding
(V - E + F = 2).  This module *checks* rotations; it does not search for
embeddings.

:func:`faces` trusts its input and traces it in key order.  A rotation
is validated where it enters: the public checks (:func:`trace_faces`,
:func:`face_trace`, :func:`is_planar_embedding`,
:func:`is_outerplanar_embedding` and :func:`outer_vertex_order`) validate
what they are handed, and :class:`~hats.constructors.ComposedGame`
validates the rotation it carries, which is where every builder reads
rotations from.  The helpers at the bottom implement the two surgeries
those builders need: merging rotations at a glued vertex and inserting
an edge into a face.
"""

from __future__ import annotations

from typing import Optional

from .core import Graph, Rotation, StructureError

# A dart is a directed edge (u, v).  A face is the tuple of darts visited
# by the tracing rule: from dart (u, v), continue with (v, w) where w
# follows u in v's rotation.
Dart = tuple[str, str]
Face = tuple[Dart, ...]


def validate_rotation(graph: Graph, rotation: Rotation) -> None:
    """Each vertex must list exactly its incident edges, each once."""
    if set(rotation) != set(graph.vertices):
        raise StructureError("rotation keys must equal the vertex set")
    for v in graph.vertices:
        listed = tuple(rotation[v])
        expected = set(graph.adjacency[v])
        if len(listed) != len(set(listed)) or set(listed) != expected:
            raise StructureError(
                f"rotation at {v!r} must list its neighbors exactly once "
                f"(got {listed!r}, expected a permutation of {sorted(expected)!r})"
            )


def faces(rotation: Rotation) -> list[Face]:
    """All face cycles of a trusted rotation, each dart used once.

    Darts are visited in key order, so the key order fixes which dart
    starts each face and the order of the faces.
    """
    succ: dict[Dart, Dart] = {}
    for v, order in rotation.items():
        for u, w in zip(order, order[1:] + order[:1]):
            succ[(u, v)] = (v, w)

    traced: list[Face] = []
    visited: set[Dart] = set()
    for start in succ:
        if start in visited:
            continue
        walk = []
        dart = start
        while dart not in visited:
            visited.add(dart)
            walk.append(dart)
            dart = succ[dart]
        traced.append(tuple(walk))
    return traced


def trace_faces(graph: Graph, rotation: Rotation) -> list[Face]:
    """Validate the rotation, then trace its face cycles in vertex order."""
    validate_rotation(graph, rotation)
    return faces({v: rotation[v] for v in graph.vertices})


def face_trace(graph: Graph, rotation: Rotation) -> int:
    """Number of faces; requires a connected graph with a vertex."""
    if not graph.vertices or not graph.is_connected():
        raise StructureError("face tracing requires a connected graph with a vertex")
    traced = trace_faces(graph, rotation)
    if len(graph.vertices) == 1:
        return 1  # a lone vertex on the sphere has one face
    return len(traced)


def is_planar_embedding(graph: Graph, rotation: Rotation) -> bool:
    """Euler check V - E + F = 2 for the given rotation."""
    v = len(graph.vertices)
    e = len(graph.edges)
    f = face_trace(graph, rotation)
    return v - e + f == 2


def face_vertices(face: Face) -> set[str]:
    return {u for u, _ in face}


def is_outerplanar_embedding(graph: Graph, rotation: Rotation) -> bool:
    """Planar with some face passing through every vertex."""
    return outer_vertex_order(graph, rotation) is not None


def outer_vertex_order(graph: Graph, rotation: Rotation) -> Optional[tuple[str, ...]]:
    """Vertices in first-occurrence order along the all-vertex face.

    Returns None unless the rotation is an outerplanar embedding.  The
    order is the circle order used to arrange cone petals so that base
    edges become non-crossing chords.
    """
    if not graph.vertices or not graph.is_connected():
        raise StructureError("outerplanarity check requires a connected graph with a vertex")
    traced = trace_faces(graph, rotation)
    v = len(graph.vertices)
    if v == 1:
        return graph.vertices
    if v - len(graph.edges) + len(traced) != 2:
        return None
    for face in traced:
        order = tuple(dict.fromkeys(u for u, _ in face))
        if len(order) == v:
            return order
    return None


# ---------------------------------------------------------------------------
# Map surgery used by the game builders.


def corner_pairs(face: Face, v: str) -> list[tuple[str, str]]:
    """Corners of ``face`` at vertex ``v`` as (previous neighbor, next neighbor).

    A corner (a, b) means the face enters v from a and leaves toward b,
    i.e. b immediately follows a in v's rotation.
    """
    pairs = []
    for (u, w), (_, x) in zip(face, face[1:] + face[:1]):
        if w == v:
            pairs.append((u, x))
    return pairs


def wrap_align(rotation: Rotation, v: str, corner: tuple[str, str]) -> Rotation:
    """Rotate v's cyclic list so that ``corner`` becomes the wrap-around.

    After alignment the list ends with the corner's first neighbor and
    starts with its second, so concatenating another list at v sacrifices
    exactly this corner.  Other vertices are untouched.
    """
    order = list(rotation[v])
    a, b = corner
    i = order.index(a)
    if order[(i + 1) % len(order)] != b:
        raise StructureError(f"({a!r}, {b!r}) is not a corner of the rotation at {v!r}")
    aligned = order[i + 1:] + order[: i + 1]
    out = dict(rotation)
    out[v] = tuple(aligned)
    return out


def merge_at_vertex(r1: Rotation, r2: Rotation, glue: str) -> Rotation:
    """Amalgamate two rotations sharing exactly the vertex ``glue``.

    The glued vertex's cyclic order is r1's list followed by r2's.  A
    one-point amalgamation of two sphere embeddings is again a sphere
    embedding, so planarity is preserved unconditionally; the wrap
    corners of both lists merge into a single face, which is what makes
    outerplanarity survive when both inputs were wrap-aligned to their
    outer faces.
    """
    overlap = set(r1) & set(r2)
    if overlap != {glue}:
        raise StructureError(f"rotations must share exactly the glued vertex, got {sorted(overlap)}")
    out = {**r1, **r2}
    out[glue] = tuple(r1[glue]) + tuple(r2[glue])
    return out


def insert_edge_in_face(rotation: Rotation, face: Face, x: str, y: str) -> Rotation:
    """Insert edge x-y into a face incident to both endpoints.

    The first corner of the face at each endpoint is used.  Splitting one
    face into two adds one edge and one face, so the Euler characteristic
    is unchanged: inserting into a planar map keeps it planar.
    """
    cx = corner_pairs(face, x)
    cy = corner_pairs(face, y)
    if not cx or not cy:
        raise StructureError(f"face has no corner at {x!r} or {y!r}")
    out = dict(rotation)
    ax, _ = cx[0]
    ay, _ = cy[0]
    lx = list(out[x])
    lx.insert(lx.index(ax) + 1, y)
    out[x] = tuple(lx)
    ly = list(out[y])
    ly.insert(ly.index(ay) + 1, x)
    out[y] = tuple(ly)
    return out


def insert_chord(rotation: Rotation, x: str, y: str) -> Rotation:
    """Insert edge x-y into the first traced face of a trusted rotation
    that passes both endpoints."""
    for face in faces(rotation):
        verts = face_vertices(face)
        if x in verts and y in verts:
            return insert_edge_in_face(rotation, face, x, y)
    raise StructureError(f"no common face for chord {x!r}-{y!r}")
