"""Game model: visibility graphs, hatness functions, assignments, verdicts.

Vertices are identified by strings so that composed games can use
hierarchical names like ``"0/v1"``.  The vertex *order* of a graph is part
of its identity: it fixes the mixed-radix digit order used to enumerate
hat assignments (first vertex is the least significant digit).
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Generator, Iterable, Mapping, Optional


class HatsError(Exception):
    """Base class for all errors raised by this package."""


class ContractError(HatsError):
    """A documented precondition was violated by the caller."""


class StructureError(HatsError):
    """A graph does not have the shape an operation requires."""


class RangeError(HatsError):
    """An index is outside its documented range."""


class CapacityError(HatsError):
    """A computation would exceed an explicit size limit."""

    def __init__(self, message: str, size: int):
        super().__init__(message)
        self.size = size


def require_int(name: str, value) -> int:
    """``value`` as an int; ContractError for a bool or for anything
    ``operator.index`` refuses, such as a float or a string."""
    try:
        if not isinstance(value, bool):
            return operator.index(value)
    except TypeError:
        pass
    raise ContractError(f"{name} must be an integer, got {value!r}")


def drive(top: Generator, ask: Callable[..., Generator]):
    """Run ``top`` and return its value.  Each request a generator yields
    is answered with the value of the generator ``ask(*request)``, run the
    same way; suspended generators wait on an explicit stack, so nesting of
    any depth costs no recursion."""
    stack, answer = [top], None
    while stack:
        try:
            request = stack[-1].send(answer)
        except StopIteration as done:
            stack.pop()
            answer = done.value
        else:
            stack.append(ask(*request))
            answer = None
    return answer


def _canonical_edges(vertices: tuple[str, ...], edges: Iterable[tuple[str, str]]):
    index = {v: i for i, v in enumerate(vertices)}
    seen = set()
    out = []
    for a, b in edges:
        if a == b:
            raise StructureError(f"self-loop at {a!r}")
        if a not in index or b not in index:
            raise StructureError(f"edge ({a!r}, {b!r}) has an endpoint outside the vertex list")
        key = (a, b) if index[a] < index[b] else (b, a)
        if key in seen:
            continue
        seen.add(key)
        out.append(key)
    out.sort(key=lambda e: (index[e[0]], index[e[1]]))
    return tuple(out)


@dataclass(frozen=True)
class Graph:
    """Undirected visibility graph with a fixed, deterministic vertex order."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    def __init__(self, vertices: Iterable[str], edges: Iterable[tuple[str, str]]):
        vertices = tuple(vertices)
        if len(set(vertices)) != len(vertices):
            raise StructureError("duplicate vertex names")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "edges", _canonical_edges(vertices, edges))

    @cached_property
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def adjacency(self) -> dict[str, tuple[str, ...]]:
        """Neighbors of each vertex, in vertex order."""
        nbrs: dict[str, list[str]] = {v: [] for v in self.vertices}
        for a, b in self.edges:
            nbrs[a].append(b)
            nbrs[b].append(a)
        order = self.index
        return {v: tuple(sorted(ns, key=order.__getitem__)) for v, ns in nbrs.items()}

    def neighbors(self, v: str) -> tuple[str, ...]:
        return self.adjacency[v]

    @cached_property
    def edge_set(self) -> frozenset[tuple[str, str]]:
        return frozenset(self.edges)

    def has_edge(self, a: str, b: str) -> bool:
        i = self.index
        key = (a, b) if i[a] < i[b] else (b, a)
        return key in self.edge_set

    def is_connected(self) -> bool:
        if not self.vertices:
            return True
        seen = {self.vertices[0]}
        stack = [self.vertices[0]]
        while stack:
            for u in self.adjacency[stack.pop()]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        return len(seen) == len(self.vertices)

    def same_structure(self, other: "Graph") -> bool:
        """Equal vertex sets and edge sets, ignoring vertex order."""
        return set(self.vertices) == set(other.vertices) and set(self.edges) == set(other.edges)


def complete_graph(names: Iterable[str]) -> Graph:
    names = tuple(names)
    return Graph(names, [(a, b) for i, a in enumerate(names) for b in names[i + 1:]])


def almost_complete_graph(names: Iterable[str]) -> Graph:
    """Complete graph minus the edge between the last two vertices."""
    names = tuple(names)
    if len(names) < 2:
        raise StructureError("need at least two vertices to remove an edge")
    g = complete_graph(names)
    drop = tuple(sorted((names[-2], names[-1]), key=g.index.__getitem__))
    return Graph(names, [e for e in g.edges if e != drop])


# An assignment is a plain map vertex name -> hat color in [0, h(v)).
Assignment = dict[str, int]


@dataclass(frozen=True)
class Game:
    """A visibility graph together with a hatness function."""

    graph: Graph
    hatness: Mapping[str, int]

    def __post_init__(self):
        if set(self.hatness) != set(self.graph.vertices):
            raise ContractError("hatness keys must equal the graph's vertex set")
        for v, h in self.hatness.items():
            if isinstance(h, bool) or not isinstance(h, int) or h < 1:
                raise ContractError(f"hatness of {v!r} must be a positive integer, got {h!r}")
        object.__setattr__(self, "hatness", dict(self.hatness))

    @cached_property
    def hat_tuple(self) -> tuple[int, ...]:
        """Hatness values in vertex order."""
        return tuple(self.hatness[v] for v in self.graph.vertices)

    @cached_property
    def color_space(self) -> int:
        """Number of distinct hat assignments."""
        return math.prod(self.hat_tuple)

    def h(self, v: str) -> int:
        return self.hatness[v]


def assignment_at(game: Game, index: int) -> Assignment:
    """Decode a mixed-radix index into an assignment.

    Digit order is the graph's vertex order; the first vertex is the least
    significant digit.  The map index -> assignment is a bijection on
    [0, color_space).
    """
    if not 0 <= require_int("index", index) < game.color_space:
        raise RangeError(f"assignment index {index} outside [0, {game.color_space})")
    out: Assignment = {}
    for v, h in zip(game.graph.vertices, game.hat_tuple):
        index, color = divmod(index, h)
        out[v] = color
    return out


def assignment_index(game: Game, assignment: Assignment) -> int:
    """Inverse of :func:`assignment_at`."""
    validate_assignment(game, assignment)
    index = 0
    place = 1
    for v, h in zip(game.graph.vertices, game.hat_tuple):
        index += assignment[v] * place
        place *= h
    return index


def validate_assignment(game: Game, assignment: Mapping[str, int]) -> None:
    if set(assignment) != set(game.graph.vertices):
        raise ContractError("assignment keys must equal the game's vertex set")
    for v, c in assignment.items():
        if not 0 <= require_int(f"the color at {v!r}", c) < game.hatness[v]:
            raise ContractError(f"color {c} at {v!r} outside [0, {game.hatness[v]})")


def majorizes(g1: Game, g2: Game) -> bool:
    """True iff the graphs are identical and h1(v) >= h2(v) everywhere.

    A winning game passes its win down to any game it majorizes; a losing
    game passes its loss up to any game majorizing it.
    """
    if not g1.graph.same_structure(g2.graph):
        return False
    return all(g1.hatness[v] >= g2.hatness[v] for v in g1.graph.vertices)


def value_list(game: Game) -> tuple[int, ...]:
    """All hatness values in non-decreasing order."""
    return tuple(sorted(game.hat_tuple))


# ---------------------------------------------------------------------------
# Verdicts


WINNING = "winning"
LOSING = "losing"
UNKNOWN = "unknown"

# Provenance node kinds.  Leaves are base facts; internal nodes are
# applications of a composition rule to their children.
PROV_CLIQUE = "clique"          # fractional criterion on a complete graph
PROV_EXHAUSTIVE = "exhaustive"  # full sweep over all assignments
PROV_PRODUCT = "product"        # gluing two winning games at a vertex
PROV_CONE = "cone"              # apex construction over a base game
PROV_SUM_LOSE = "sum-lose"      # gluing two losing games at a vertex
PROV_MAJORIZE = "majorize"      # hatness lowered under a winning game


@dataclass(frozen=True)
class Provenance:
    """Justification tree for a verdict."""

    kind: str
    detail: str = ""
    children: tuple["Provenance", ...] = ()

    def walk(self):
        """Every node in pre-order; iterative, so chains of any depth walk."""
        return (node for _, node in self._walk_depths())

    def _walk_depths(self):
        stack = [(0, self)]
        while stack:
            depth, node = stack.pop()
            yield depth, node
            stack.extend((depth + 1, child) for child in reversed(node.children))

    def _pre_order(self):
        return [(depth, node.kind, node.detail) for depth, node in self._walk_depths()]

    # The pre-order (depth, kind, detail) sequence determines the tree, so
    # equality and hashing read it instead of recursing into children.
    def __eq__(self, other):
        if not isinstance(other, Provenance):
            return NotImplemented
        return self is other or self._pre_order() == other._pre_order()

    def __hash__(self):
        return hash(tuple(self._pre_order()))

    def __repr__(self):
        return f"Provenance({self.kind!r}, {self.detail!r}, children=<{len(self.children)}>)"

    def leaves(self):
        return [n for n in self.walk() if not n.children]

    def count(self, kind: str) -> int:
        return sum(1 for n in self.walk() if n.kind == kind)

    def render(self) -> str:
        return "\n".join(
            "  " * depth + node.kind + (f": {node.detail}" if node.detail else "")
            for depth, node in self._walk_depths()
        )


@dataclass(frozen=True)
class Verdict:
    status: str
    provenance: Provenance

    def __post_init__(self):
        if self.status not in (WINNING, LOSING, UNKNOWN):
            raise ContractError(f"bad verdict status {self.status!r}")

    @property
    def is_winning(self) -> bool:
        return self.status == WINNING


def hg_lower_bound(verdict: Verdict, game: Game) -> Optional[int]:
    """min h(v) when the verdict is Winning, else None.

    A winning game majorizes the constant game at its minimum hatness, so
    the graph's hat guessing number is at least that minimum.
    """
    if verdict.status != WINNING:
        return None
    return min(game.hat_tuple)


# ---------------------------------------------------------------------------
# JSON game documents

Rotation = dict[str, tuple[str, ...]]


def game_to_json(game: Game, rotation: Optional[Rotation] = None) -> dict:
    doc = {
        "vertices": [{"name": v, "hatness": game.hatness[v]} for v in game.graph.vertices],
        "edges": [[a, b] for a, b in game.graph.edges],
    }
    if rotation is not None:
        doc["rotation"] = {v: list(rotation[v]) for v in game.graph.vertices}
    return doc


def game_from_json(doc: dict) -> tuple[Game, Optional[Rotation]]:
    try:
        names = [entry["name"] for entry in doc["vertices"]]
        hatness = {entry["name"]: entry["hatness"] for entry in doc["vertices"]}
        edges = doc["edges"]
        if not all(isinstance(v, str) for v in names) or not all(
                isinstance(e, list) and len(e) == 2 for e in edges):
            raise ContractError("malformed game document: names must be strings, edges pairs")
        rotation = None
        if "rotation" in doc:
            rotation = {}
            for v, ns in doc["rotation"].items():
                if not isinstance(ns, list) or not all(isinstance(u, str) for u in ns):
                    raise ContractError(
                        f"malformed game document: rotation of {v!r} is not a list of names"
                    )
                rotation[v] = tuple(ns)
        game = Game(Graph(names, edges), hatness)
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ContractError(f"malformed game document: {exc}") from exc
    return game, rotation


def dump_game(game: Game, rotation: Optional[Rotation] = None) -> str:
    return json.dumps(game_to_json(game, rotation), indent=2)


def load_game(text: str) -> tuple[Game, Optional[Rotation]]:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ContractError(f"malformed game document: {exc}") from exc
    return game_from_json(doc)
