"""Deterministic guessing strategies, evaluable one assignment at a time
or vectorized over batches.

Every strategy exposes two evaluation paths:

* ``guess(v, assignment)`` / ``guesses(assignment)`` - plain Python,
  written as directly as possible from the defining arithmetic, scanning
  candidate colors and asserting that the hypothesis set admits exactly
  one.  This is the reference path.  A composite asks for its parts'
  guesses through :func:`hats.core.drive`, so nesting costs no recursion,
  and hands each part a dict of only what the asked sage sees: its
  neighbors' colors, split at a product axis or cone attachment.
* ``guesses_batch(colors)`` - numpy over a batch of assignments (one row
  per vertex, in vertex order).  A leaf (clique, trap, table) gives sage
  i's row from its definition, ``_row(i, colors)``, and its batch is its
  rows.  Every strategy, leaf or composite (product, cone, majorization
  adapter), compiles once, the first time its rows are asked for, into a
  :class:`Program`: one flat form per vertex over unsigned digits of its
  neighbors' colors.  A composite only joins its parts' forms; the
  compiler tabulates every form it can (a leaf vertex too wide to
  tabulate runs its ``_row`` instead), and a form refuses, with
  CapacityError, guesses that uint64 cannot hold: a leaf vertex's hatness
  above 2**64, or a sum's split modulus or largest guess at 2**64 or
  above.  A composite's ``guesses_batch`` runs its program;
  the sweep verifier hands each block to ``Strategy._correct_counts``,
  which counts the program's rows one at a time, so a sweep holds one row
  of guesses, not V.  A form's digits may be arrays of any shapes that
  broadcast together, and its row (a leaf's ``_row`` too) takes their
  broadcast shape: a drawn block's digits are rows of one length, while an
  exhaustive block's lie along the axes of a box (see ``verifier``), so a
  form makes only as much as the rows it reads span.  Inside a program each
  form keeps its guesses in the narrowest unsigned dtype that holds the
  largest one it can give (uint8 for every trefoil form); ``Program.rows``,
  and so ``guesses_batch``, widens them to uint64.

The two paths are implemented independently and the test suite checks
them against each other exhaustively on small games and on random
compositions.  Both are pure functions of the neighbors' colors:
perturbing a non-neighbor never changes a vertex's guess, and a compiled
program that reads a non-neighbor is refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache, cached_property
from importlib import resources
from typing import Generator, Iterator, Mapping, Sequence

import numpy as np

from .core import (
    Assignment,
    CapacityError,
    ContractError,
    Game,
    StructureError,
    almost_complete_graph,
    drive,
    majorizes,
    validate_assignment,
)

U = np.uint64


def _u(x: int) -> np.uint64:
    return np.uint64(x)


@dataclass(frozen=True)
class Guess:
    vertex: str
    color: int


class Strategy:
    """Base class; subclasses fix ``game`` and the two evaluation paths."""

    game: Game
    kind: str = "abstract"

    # Subclasses keep identity equality and this shallow repr: the dataclass
    # forms recurse through child strategies, past the recursion limit on
    # deep builds.
    def __repr__(self):
        size = len(self.game.graph.vertices)
        return f"{type(self).__name__}(kind={self.kind!r}, vertices=<{size}>)"

    def guess(self, v: str, assignment: Assignment) -> int:
        raise NotImplementedError

    def _consult(self, v: str, assignment: Assignment) -> Generator:
        """The guess at v as a generator: it yields (part, vertex, seen) for
        each sub-guess, ``seen`` a dict of what that vertex sees, is sent
        each answer and returns the guess.  A leaf asks for nothing."""
        return self.guess(v, assignment)
        yield

    def guesses(self, assignment: Assignment) -> dict[str, int]:
        return {v: self.guess(v, assignment) for v in self.game.graph.vertices}

    def guesses_batch(self, colors: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Guesses for a batch: ``colors[i]`` holds the colors of vertex i
        (its position in ``game.graph.vertices``), one column per
        assignment.  Returns the V rows of uint64 guesses in that order."""
        raise NotImplementedError

    def _row(self, i: int, colors: Sequence[np.ndarray]) -> np.ndarray:
        """Row i of ``guesses_batch(colors)``, from sage i's definition, in
        the broadcast shape of row i and the rows it reads; a leaf defines it."""
        raise NotImplementedError

    @cached_property
    def _program(self) -> Program:
        """This strategy compiled, when its rows are first asked for and
        never while building."""
        return Program(self.game, _compile(self))

    def _correct_counts(self, block) -> np.ndarray:
        """The sweep verifier's per-block hook: how many vertices guess
        right in each column of ``block``, counted with the compiled
        program one row at a time."""
        return block.count(self._program)

    def _compiled(self, digits) -> Generator:
        """One form per row, given the digit each row reads, as a generator
        that yields (part, digits) for each part it needs compiled, is sent
        that part's forms, and returns its own; :func:`_compile` tabulates
        them.  A composite defines it; a leaf compiles vertex by vertex
        through ``_form``."""
        return [self._form(i, digits) for i in range(len(digits))]
        yield

    def _form(self, i: int, digits: tuple):
        """Leaf vertex i compiled, given the digit each row reads: this
        leaf's own row i on its neighbors' digits."""
        graph = self.game.graph
        near = {graph.index[u] for u in graph.adjacency[graph.vertices[i]]}
        return Leaf(self, tuple(d if j in near else None for j, d in enumerate(digits)), i)


class _Composite(Strategy):
    """A strategy built from others (adapter, product, cone).  Its
    reference guess asks for its parts' guesses through ``_consult``,
    handing each part only what the asked sage sees, and
    :func:`hats.core.drive` answers every sub-guess, at any nesting depth,
    with no recursion."""

    def guess(self, v: str, assignment: Assignment) -> int:
        return drive(self._consult(v, assignment), lambda part, u, seen: part._consult(u, seen))

    def _ask(self, part: Strategy, rows: Sequence[int], split, k: int, assignment: Assignment) -> tuple:
        """The request for part vertex k's guess: the part, the vertex, and
        a dict of what it sees, ``split(j, c)`` for each neighbor j in the
        part, where c is the color in row ``rows[j]`` of ``assignment``."""
        names, graph = self.game.graph.vertices, part.game.graph
        seen = {}
        for u in graph.adjacency[graph.vertices[k]]:
            j = graph.index[u]
            seen[u] = split(j, assignment[names[rows[j]]])
        return part, graph.vertices[k], seen


def evaluate(strategy: Strategy, assignment: Assignment) -> list[Guess]:
    """One guess per vertex, in vertex order."""
    if not isinstance(strategy, Strategy):
        raise ContractError(f"expected a Strategy, got {type(strategy).__name__}")
    validate_assignment(strategy.game, assignment)
    return [Guess(v, strategy.guess(v, assignment)) for v in strategy.game.graph.vertices]


# ---------------------------------------------------------------------------
# Clique arithmetic strategy


def _in_interval(t: int, start: int, length: int, modulus: int) -> bool:
    return (t - start) % modulus < length


# Most entries in one guess table: a clique vertex's, or a compiled form
# tabulated over its inputs.  At 2**16, a table has an eighth of the
# entries of one row of a default sweep chunk (2**19 assignments).
CLIQUE_TABLE_SPAN = 1 << 16


def _interval_guess(partial: np.ndarray, n: np.uint64, c: int, s: int, a: int) -> np.ndarray:
    """The own color that lands ``partial + c*x`` (mod n) in [s, s + c),
    for uint64 partial checksums in [0, n).  Intermediate values stay
    under 2n, so this is exact up to n = 2**63."""
    d = (_u(s) + n - partial) % n
    return ((d + _u(c - 1)) // _u(c)) % _u(a)


@dataclass(frozen=True, eq=False, repr=False)
class CliqueArithStrategy(Strategy):
    """Checksum strategy on a complete graph.

    Working modulo N = lcm of the hatnesses, sage i with coefficient
    c_i = N / a_i claims the cyclic interval [s_i, s_i + c_i - 1].  The
    intervals are laid end to end, so when the fractional sum of the
    game is at least 1 they cover all of Z_N.  Sage i sees the partial
    checksum P of everyone else and guesses the unique own color that
    would land the full checksum inside its interval; whoever's interval
    contains the true checksum is correct.

    The batch path is uint64 modular arithmetic, exact up to N = 2**63
    (larger moduli raise CapacityError).  Compiled, a sage gathers
    instead: sage i's unreduced partial checksum sum_{j != i} c_j * x_j
    lies below span_i = 1 + sum_{j != i} c_j (a_j - 1), so a table of
    span_i guesses answers it with one ``np.take`` and no division.  Each
    sage compiles on its own: a sage whose span_i exceeds CLIQUE_TABLE_SPAN
    entries (or whose modulus the arithmetic refuses) compiles to its own
    row of the arithmetic, which the compiler tabulates like any leaf
    vertex's where its neighbors' patterns fit.
    """

    game: Game
    modulus: int
    coefficients: tuple[int, ...]  # per vertex, in vertex order
    starts: tuple[int, ...]
    kind = "clique-arith"

    def guess(self, v: str, assignment: Assignment) -> int:
        idx = self.game.graph.index[v]
        n, c, s = self.modulus, self.coefficients[idx], self.starts[idx]
        partial = sum(
            self.coefficients[self.game.graph.index[u]] * assignment[u]
            for u in self.game.graph.vertices
            if u != v
        ) % n
        own = self.game.h(v)
        candidates = [x for x in range(own) if _in_interval((partial + c * x) % n, s, c, n)]
        if len(candidates) != 1:
            raise ContractError(f"interval at {v!r} matched {len(candidates)} colors, expected 1")
        return candidates[0]

    def _form(self, i: int, digits: tuple):
        others = [j for j in range(len(digits)) if j != i]
        weights = tuple(self.coefficients[j] for j in others)
        span = 1 + sum(c * (self.game.hat_tuple[j] - 1) for j, c in zip(others, weights))
        if span > CLIQUE_TABLE_SPAN or self.modulus > 2 ** 63:  # past 2**63, ``_row`` refuses
            return super()._form(i, digits)
        n = _u(self.modulus)
        table = _interval_guess(np.arange(span, dtype=U) % n, n, self.coefficients[i], self.starts[i],
                                self.game.hat_tuple[i])
        return Gather(table, tuple(digits[j] for j in others), weights)

    def _row(self, i: int, colors: Sequence[np.ndarray]) -> np.ndarray:
        if self.modulus > 2 ** 63:
            raise CapacityError(
                f"clique modulus {self.modulus} is too large for batch evaluation: "
                "exact up to 2**63",
                self.modulus,
            )
        # Terms c_j * x_j are below N; reduce only where the next could wrap.
        n, partial, top = _u(self.modulus), np.zeros(np.shape(colors[i]), dtype=U), 0
        for j, (row, c, a) in enumerate(zip(colors, self.coefficients, self.game.hat_tuple)):
            if j != i:
                if top + c * (a - 1) >= 2 ** 64:
                    partial, top = partial % n, self.modulus - 1
                partial = partial + np.asarray(row, dtype=U) * _u(c)
                top += c * (a - 1)
        return _interval_guess(partial % n, n, self.coefficients[i], self.starts[i], self.game.hat_tuple[i])

    def guesses_batch(self, colors: Sequence[np.ndarray]) -> list[np.ndarray]:
        return [self._row(i, colors) for i in range(len(colors))]


def clique_strategy(game: Game) -> CliqueArithStrategy:
    """Winning strategy on a complete graph, when one exists.

    Raises StructureError off complete graphs and ContractError when the
    fractional sum of the hatnesses is below 1 (the game is losing and no
    strategy exists).
    """
    verts = game.graph.vertices
    expected_edges = len(verts) * (len(verts) - 1) // 2
    if len(game.graph.edges) != expected_edges:
        raise StructureError("clique strategy requires a complete graph")
    total = sum(Fraction(1, a) for a in game.hat_tuple)
    if total < 1:
        raise ContractError(f"losing clique game: fractional sum {total} < 1")
    n = math.lcm(*game.hat_tuple)
    coeffs = tuple(n // a for a in game.hat_tuple)
    starts = []
    acc = 0
    for c in coeffs:
        starts.append(acc)
        acc = (acc + c) % n
    return CliqueArithStrategy(game, n, coeffs, tuple(starts))


# ---------------------------------------------------------------------------
# Trap table and the almost-complete-graph strategy


TRAP_MODULUS = 42
FIRST_TRAP = (0, 1, 2)
SECOND_TRAP = (0, 4, 8)
K5_VERTICES = ("A2", "A3", "A14", "B14", "C14")
K5_HATNESS = {"A2": 2, "A3": 3, "A14": 14, "B14": 14, "C14": 14}


def cyclic_interval(start: int, length: int, modulus: int = TRAP_MODULUS) -> tuple[int, ...]:
    return tuple((start + i) % modulus for i in range(length))


def _orbit_guesses(target: Sequence[int], w: int, h: int) -> np.ndarray:
    """For each residue q mod 42, the unique x < h with (w*x + q) mod 42
    in ``target``; ContractError when the set meets some orbit {q + w*x}
    other than exactly once."""
    hits = np.isin((np.arange(h)[:, None] * w + np.arange(TRAP_MODULUS)) % TRAP_MODULUS, target)
    if not (hits.sum(axis=0) == 1).all():
        raise ContractError(f"target set {sorted(target)} does not meet every step-{w} orbit once")
    return hits.argmax(axis=0).astype(U)


@dataclass(frozen=True)
class TrapRow:
    d: int
    a2: tuple[int, ...]
    a3: tuple[int, ...]
    a14: tuple[int, ...]

    @property
    def b_trap(self) -> tuple[int, int, int]:
        return (3 * self.d, 3 * self.d + 1, 3 * self.d + 2)

    @property
    def superpositions(self) -> tuple[int, ...]:
        """Residues covered more than once; informational only."""
        counts: dict[int, int] = {}
        for group in (self.a2, self.a3, self.a14, self.b_trap, SECOND_TRAP):
            for x in group:
                counts[x] = counts.get(x, 0) + 1
        return tuple(sorted(x for x, k in counts.items() if k > 1))


@dataclass(frozen=True)
class TrapTable:
    rows: tuple[TrapRow, ...]


def _is_cyclic_interval(values: Sequence[int], length: int) -> bool:
    return len(values) == length and tuple(values) == cyclic_interval(values[0], length)


def validate_trap_table(table: TrapTable) -> list[str]:
    """All invariant violations, empty when the table is sound.

    Checked per row: the three target sets are pairwise disjoint, the
    first two are cyclic intervals of lengths 21 and 14, the third is a
    transversal of the residues modulo 3, and together with the two traps
    they cover all 42 residues.
    """
    violations: list[str] = []
    if len(table.rows) != 14:
        violations.append(f"expected 14 rows, got {len(table.rows)}")
    for pos, row in enumerate(table.rows):
        tag = f"row d={row.d}"
        if row.d != pos:
            violations.append(f"{tag}: out of place (position {pos})")
        for name, values in (("A2", row.a2), ("A3", row.a3), ("A14", row.a14)):
            if any(not 0 <= x < TRAP_MODULUS for x in values):
                violations.append(f"{tag}: {name} has residues outside [0, 42)")
        if not _is_cyclic_interval(row.a2, 21):
            violations.append(f"{tag}: A2 is not a 21-residue cyclic interval")
        if not _is_cyclic_interval(row.a3, 14):
            violations.append(f"{tag}: A3 is not a 14-residue cyclic interval")
        if len(row.a14) != 3 or {x % 3 for x in row.a14} != {0, 1, 2}:
            violations.append(f"{tag}: A14 not a mod-3 transversal")
        sets = {"A2": set(row.a2), "A3": set(row.a3), "A14": set(row.a14)}
        names = sorted(sets)
        for i, na in enumerate(names):
            for nb in names[i + 1:]:
                if sets[na] & sets[nb]:
                    violations.append(f"{tag}: {na} and {nb} overlap")
        covered = set(row.a2) | set(row.a3) | set(row.a14) | set(row.b_trap) | set(SECOND_TRAP)
        missing = sorted(set(range(TRAP_MODULUS)) - covered)
        if missing:
            violations.append(f"{tag}: covering fails ({missing} uncovered)")
    return violations


def load_trap_table() -> TrapTable:
    """Parse the table shipped as package data."""
    text = resources.files("hats.data").joinpath("trap_table.txt").read_text()
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        d, a2s, a3s, *a14 = (int(tok) for tok in line.split())
        rows.append(TrapRow(d, cyclic_interval(a2s, 21), cyclic_interval(a3s, 14), tuple(a14)))
    return TrapTable(tuple(rows))


@cache
def shipped_trap_table() -> TrapTable:
    table = load_trap_table()
    problems = validate_trap_table(table)
    if problems:
        raise ContractError("shipped trap table is invalid: " + "; ".join(problems))
    return table


@dataclass(frozen=True, eq=False, repr=False)
class K5MinusTrapStrategy(Strategy):
    """Strategy for the [2, 3, 14, 14, 14] game on K5 minus one edge.

    All arithmetic is modulo 42 over the checksum
    S = 21*a2 + 14*a3 + 3*a14.  The two non-adjacent sages check the
    hypotheses S + 3b in {0, 1, 2} and S + 3c in {0, 4, 8}; each trap
    meets every step-3 orbit exactly once, so both guesses are uniquely
    determined.  The remaining sages see b and c, shift coordinates so
    the second trap sits at {0, 4, 8} (row index d = (c - b) mod 14),
    and guess into their row's target set, shifted back by -3c.  The
    validated table guarantees the five sets jointly cover Z_42, so some
    sage is always correct.

    Sage i's batch row is one ``np.take`` from its guess table, built once
    per instance: for each residue q mod 42, the unique x < h with
    (w*x + q) mod 42 in the sage's target set.  B14 and C14 key on S.  An
    A sage keys on row d = (c - b) mod 14 and on S minus its own term plus
    3c, which undoes its row's shift.  Sages are read by name, so the
    trap game in any vertex order is accepted, and any other game is
    refused.
    """

    game: Game
    table: TrapTable
    kind = "k5minus-trap"

    def __post_init__(self):
        edges = {frozenset(e) for e in self.game.graph.edges}
        if self.game.hatness != K5_HATNESS or edges != {frozenset(e) for e in k5minus_game().graph.edges}:
            raise ContractError("the trap strategy plays only the k5minus game, in any vertex order")
        if len(self.table.rows) != 14:  # one row per d = (c - b) mod 14
            raise ContractError(f"a trap table has 14 rows, got {len(self.table.rows)}")

    def _shifted_row_sets(self, b14: int, c14: int):
        row = self.table.rows[(c14 - b14) % 14]
        shift = (3 * c14) % TRAP_MODULUS
        return tuple(
            {(x - shift) % TRAP_MODULUS for x in group}
            for group in (row.a2, row.a3, row.a14)
        )

    def guess(self, v: str, assignment: Assignment) -> int:
        a = assignment
        m = TRAP_MODULUS
        if v == "B14":
            s = (21 * a["A2"] + 14 * a["A3"] + 3 * a["A14"]) % m
            cands = [b for b in range(14) if (s + 3 * b) % m in FIRST_TRAP]
        elif v == "C14":
            s = (21 * a["A2"] + 14 * a["A3"] + 3 * a["A14"]) % m
            cands = [c for c in range(14) if (s + 3 * c) % m in SECOND_TRAP]
        else:
            a2set, a3set, a14set = self._shifted_row_sets(a["B14"], a["C14"])
            if v == "A2":
                rest = (14 * a["A3"] + 3 * a["A14"]) % m
                cands = [x for x in range(2) if (21 * x + rest) % m in a2set]
            elif v == "A3":
                rest = (21 * a["A2"] + 3 * a["A14"]) % m
                cands = [x for x in range(3) if (14 * x + rest) % m in a3set]
            elif v == "A14":
                rest = (21 * a["A2"] + 14 * a["A3"]) % m
                cands = [x for x in range(14) if (3 * x + rest) % m in a14set]
            else:
                raise ContractError(f"unknown vertex {v!r}")
        if len(cands) != 1:
            raise ContractError(f"target set at {v!r} matched {len(cands)} colors, expected 1")
        return cands[0]

    @cached_property
    def _guess_tables(self) -> dict[str, np.ndarray]:
        """Per sage, its uint64 guess at each key: 42*d + q for an A sage in
        row d, q for B14 and C14."""
        tables = {v: np.concatenate([_orbit_guesses(getattr(row, v.lower()), w, h) for row in self.table.rows])
                  for v, w, h in (("A2", 21, 2), ("A3", 14, 3), ("A14", 3, 14))}
        return {**tables, "B14": _orbit_guesses(FIRST_TRAP, 3, 14), "C14": _orbit_guesses(SECOND_TRAP, 3, 14)}

    def _row(self, i: int, colors: Sequence[np.ndarray]) -> np.ndarray:
        v, m = self.game.graph.vertices[i], _u(TRAP_MODULUS)
        a = {u: np.asarray(colors[self.game.graph.index[u]], dtype=U) for u in K5_VERTICES}
        rest = sum(_u(w) * a[u] for u, w in (("A2", 21), ("A3", 14), ("A14", 3)) if u != v)
        if v in ("B14", "C14"):
            return np.take(self._guess_tables[v], rest % m)
        d = (a["C14"] + _u(14) - a["B14"]) % _u(14)
        return np.take(self._guess_tables[v], d * m + (rest + _u(3) * a["C14"]) % m)

    def guesses_batch(self, colors: Sequence[np.ndarray]) -> list[np.ndarray]:
        return [self._row(i, colors) for i in range(len(colors))]


def k5minus_game() -> Game:
    return Game(almost_complete_graph(K5_VERTICES), dict(K5_HATNESS))


def k5minus_strategy() -> tuple[Game, K5MinusTrapStrategy]:
    game = k5minus_game()
    return game, K5MinusTrapStrategy(game, shipped_trap_table())


# ---------------------------------------------------------------------------
# Strategy tables (the exact solver's output format)


@dataclass(frozen=True, eq=False, repr=False)
class TableStrategy(Strategy):
    """Explicit lookup table: one guess per visible neighbor pattern.

    The pattern index is the mixed-radix encoding of the neighbors'
    colors, neighbors taken in vertex order with the first as the least
    significant digit.
    """

    game: Game
    tables: Mapping[str, tuple[int, ...]]
    kind = "table"

    def __post_init__(self):
        # Tables are the solver's output and a file format: a bad one is
        # refused here, not in the middle of a sweep.
        for v in self.game.graph.vertices:
            if v not in self.tables:
                raise ContractError(f"no guess table for vertex {v!r}")
            table, h = self.tables[v], self.game.h(v)
            patterns = math.prod(self.game.h(u) for u in self.game.graph.adjacency[v])
            if len(table) != patterns:
                raise ContractError(f"the table at {v!r} has {len(table)} entries, expected {patterns}")
            if not all(0 <= g < h for g in table):
                raise ContractError(f"the table at {v!r} holds a guess outside [0, {h})")

    def pattern_index(self, v: str, assignment: Mapping[str, int]) -> int:
        idx = 0
        place = 1
        for u in self.game.graph.adjacency[v]:
            idx += assignment[u] * place
            place *= self.game.h(u)
        return idx

    def guess(self, v: str, assignment: Assignment) -> int:
        return self.tables[v][self.pattern_index(v, assignment)]

    def _row(self, i: int, colors: Sequence[np.ndarray]) -> np.ndarray:
        _check_guesses(self.game.hat_tuple[i])
        table = np.asarray(self.tables[self.game.graph.vertices[i]], dtype=U)
        return np.take(table, pattern_indices(self.game, i, colors))

    def guesses_batch(self, colors: Sequence[np.ndarray]) -> list[np.ndarray]:
        return [self._row(i, colors) for i in range(len(colors))]


def pattern_indices(game: Game, i: int, colors: Sequence[np.ndarray]) -> np.ndarray:
    """Batch form of ``TableStrategy.pattern_index``: the visible-pattern
    index of row i for every assignment of a batch (0 when it sees nobody)."""
    idx = np.zeros(np.shape(colors[i]), dtype=U)
    place = 1
    for u in game.graph.adjacency[game.graph.vertices[i]]:
        idx = idx + colors[game.graph.index[u]].astype(U) * _u(place)
        place *= game.h(u)
    return idx


# ---------------------------------------------------------------------------
# Majorization adapter


@dataclass(frozen=True, eq=False, repr=False)
class AdaptedStrategy(_Composite):
    """A winning strategy replayed on a game with lower hatness.

    Guesses that are no longer legal colors were always wrong for the
    lower game, so replacing them with 0 cannot lose a correct guess.
    """

    game: Game
    inner: Strategy
    kind = "majorize-adapter"

    def __post_init__(self):
        if self.game.graph.vertices != self.inner.game.graph.vertices:
            raise ContractError("an adapted strategy keeps its inner game's vertex order")

    def _consult(self, v: str, assignment: Assignment) -> Generator:
        g = yield self.inner, v, assignment
        return g if g < self.game.h(v) else 0

    def guesses_batch(self, colors: Sequence[np.ndarray]) -> list[np.ndarray]:
        return list(self._program.rows(colors))

    def _compiled(self, digits) -> Generator:
        forms = yield self.inner, digits
        # A guess is below its own game's hatness, so only lowered rows clamp.
        return [form if h == top else Sum((1,), (form,), h)
                for form, h, top in zip(forms, self.game.hat_tuple, self.inner.game.hat_tuple)]


def adapt_majorized(strategy: Strategy, lower: Mapping[str, int]) -> AdaptedStrategy:
    lower_game = Game(strategy.game.graph, dict(lower))
    if not majorizes(strategy.game, lower_game):
        raise ContractError("strategy's game does not majorize the lower game")
    return AdaptedStrategy(lower_game, strategy)


# ---------------------------------------------------------------------------
# Compiled programs
#
# A digit (row, steps) is a row's color passed through each (div, mod) step,
# x -> x // div % mod (no remainder where mod is None); (row, ()) is the
# color itself.  A form maps the unsigned values of its digits, and nothing
# else, to one row of guesses, shaped as their broadcast, or one element
# long where it reads no digit; only its callers broadcast it further.  Its
# ``top`` is the largest guess it can give, an int below 2**64; its row is in
# the narrowest unsigned dtype that holds ``top``, except a ``Leaf``'s, which
# is its leaf's uint64 row.  ``Program.rows`` widens every row to uint64 and
# to full length.


def _steps(x: np.ndarray, steps) -> np.ndarray:
    for div, mod in steps:
        x = x // _u(div) if mod is None else x // _u(div) % _u(mod)
    return x


def _narrow(x: np.ndarray) -> np.ndarray:
    """``x`` in the narrowest unsigned dtype that holds its values."""
    return x.astype(np.min_scalar_type(int(x.max())), copy=False)


def _check_guesses(hatness: int) -> None:
    """Refuse a leaf vertex whose guesses uint64 cannot hold."""
    if hatness > 2 ** 64:
        raise CapacityError(f"hatness {hatness} is too large for batch evaluation: exact up to 2**64", hatness)


class Gather:
    """``table[sum(w * d)]`` over digits d with weights w.  The table is kept
    in the narrowest unsigned dtype that holds its guesses, and so is the
    row.  The key starts from a one-element 0 and is summed in the narrowest
    unsigned dtype that holds every index and weight: each term lies below
    the table's length, so the cast of a digit is exact."""

    def __init__(self, table: np.ndarray, digits: tuple, weights: tuple):
        self.table, self.digits, self.weights = _narrow(table), digits, weights
        self.top = int(self.table.max())
        self.key_dtype = np.min_scalar_type(max((len(table), *weights)))

    def __call__(self, values) -> np.ndarray:
        key = np.zeros(1, dtype=self.key_dtype)
        for d, w in zip(self.digits, self.weights):
            term = values[d] if w == 1 else np.multiply(values[d], w, dtype=self.key_dtype, casting="unsafe")
            key = np.add(key, term, dtype=self.key_dtype, casting="unsafe")
        return np.take(self.table, key)


class Sum:
    """``sum(place * part)``, then 0 wherever that reaches ``limit``.  The sum
    is taken in the narrowest unsigned dtype that holds every place and
    ``sum(place * top)`` over the parts, so no term or partial sum wraps; a
    place (a split modulus) or that largest sum at 2**64 or above, which
    uint64 cannot hold, is refused with CapacityError."""

    def __init__(self, places: tuple, parts: tuple, limit: int | None = None):
        self.places, self.parts, self.limit = places, parts, limit
        self.digits = tuple(dict.fromkeys(d for f in parts for d in f.digits))
        total = sum(p * f.top for p, f in zip(places, parts))
        for what, n in (("split modulus", max(places)), ("encoded guess", total)):
            if n >= 2 ** 64:
                raise CapacityError(f"{what} {n} is too large for batch evaluation: exact below 2**64", n)
        self.dtype = np.min_scalar_type(max(total, *places))
        self.top = total if limit is None else min(total, limit - 1)

    def __call__(self, values) -> np.ndarray:
        total = None
        for p, f in zip(self.places, self.parts):
            term = np.multiply(f(values), p, dtype=self.dtype)
            total = term if total is None else np.add(total, term)
        return total if self.limit is None else np.where(total < self.limit, total, 0)


class Select:
    """The choice at the first hit whose form equals its digit, else the
    first, in a row that holds every choice and takes the broadcast shape
    of the hits and choices."""

    def __init__(self, hits: tuple, choices: tuple):
        self.hits, self.choices = hits, choices  # hits: (form, digit) pairs
        forms = (*(f for f, _ in hits), *choices)
        self.digits = tuple(dict.fromkeys([*(d for f in forms for d in f.digits), *(d for _, d in hits)]))
        self.top = max(f.top for f in choices)
        self.dtype = np.min_scalar_type(self.top)

    def __call__(self, values) -> np.ndarray:
        # The last hit first, so that the first hit decides; one choice alive at a time.
        first = self.choices[0](values)
        out = first.astype(self.dtype, copy=False)
        for i in reversed(range(len(self.hits))):
            (form, d), choice = self.hits[i], first if i == 0 else self.choices[i](values)
            out = np.where(form(values) == values[d], choice, out)
        return out


class Leaf:
    """A leaf vertex as its leaf's own row (``Strategy._row``) on its
    neighbors' digits as they are and a one-element 0 for every other row;
    kept only where too wide to tabulate.  A guess is a color, so ``top`` is
    the vertex's hatness - 1; a hatness above 2**64 is refused."""

    def __init__(self, strategy: Strategy, inputs: tuple, index: int):
        self.strategy, self.inputs, self.index = strategy, inputs, index  # a digit or None per row
        self.digits = tuple(d for d in inputs if d is not None)
        _check_guesses(strategy.game.hat_tuple[index])
        self.top = strategy.game.hat_tuple[index] - 1

    def __call__(self, values) -> np.ndarray:
        zero = np.zeros(1, dtype=U)
        return self.strategy._row(self.index, [zero if d is None else values[d] for d in self.inputs])


class Known:
    """A form whose row is already made: a part that every block of a sweep
    shares, evaluated once (see :func:`_settled`)."""

    def __init__(self, form, row: np.ndarray):
        self.digits, self.top, self.row = form.digits, form.top, row

    def __call__(self, values) -> np.ndarray:
        return self.row


def _settled(form, known):
    """``form`` with each part for which ``known(part)`` gives a row (not
    None) replaced by that row, as a :class:`Known`."""
    row = known(form)
    if row is not None:
        return Known(form, row)
    if isinstance(form, Sum):
        return Sum(form.places, tuple(_settled(f, known) for f in form.parts), form.limit)
    if isinstance(form, Select):
        return Select(tuple((_settled(f, known), d) for f, d in form.hits),
                      tuple(_settled(f, known) for f in form.choices))
    return form


class Program:
    """A strategy as one form per vertex.  Each form reads only
    its vertex's neighbors, so the program is a local strategy by
    construction, and each distinct digit is computed once per call (by
    lookup where its row has at most CLIQUE_TABLE_SPAN colors)."""

    def __init__(self, game: Game, forms: Sequence):
        graph, hats = game.graph, game.hat_tuple
        for v, form in zip(graph.vertices, forms):
            far = {row for row, _ in form.digits} - {graph.index[u] for u in graph.adjacency[v]}
            if far:
                raise ContractError(f"the compiled guess at {v!r} reads non-neighbor rows {sorted(far)}")
        self.forms, self._luts = tuple(forms), {}
        for row, steps in dict.fromkeys(d for form in forms for d in form.digits):
            lut = _steps(np.arange(hats[row], dtype=U), steps) if steps and hats[row] <= CLIQUE_TABLE_SPAN else None
            self._luts[row, steps] = lut if lut is None else _narrow(lut)

    def values(self, colors: Sequence[np.ndarray]) -> dict:
        """Every digit the forms read, from one row of colors per vertex;
        a row of unsigned colors is read as it is."""
        rows = [row if row.dtype.kind == "u" else row.astype(U) for row in map(np.asarray, colors)]
        return {(row, steps): _steps(rows[row], steps) if lut is None else np.take(lut, rows[row])
                for (row, steps), lut in self._luts.items()}

    def rows(self, colors: Sequence[np.ndarray]) -> Iterator[np.ndarray]:
        """Each vertex's row of guesses, in order, made when it is asked for."""
        values, n = self.values(colors), len(colors[0])
        return (np.broadcast_to(form(values), (n,)).astype(U) for form in self.forms)


def _compile(root: Strategy) -> list:
    """One form per row of ``root``.  Each node is handed the digits its
    rows read, top down, and joins its parts' forms, bottom up; every form a
    node returns that is not already a Gather is tabulated here when it has
    at most CLIQUE_TABLE_SPAN input patterns.  :func:`hats.core.drive`
    compiles trees of any depth."""
    hats = root.game.hat_tuple

    def span(digit) -> int:
        row, steps = digit
        top = hats[row]
        for div, mod in steps:
            top = -(-top // div) if mod is None else min(-(-top // div), mod)
        return top

    def tabulated(form):
        digits = [d for d in form.digits if span(d) > 1]
        spans = [span(d) for d in digits]
        places = [math.prod(spans[:k]) for k in range(len(spans) + 1)]
        if places[-1] > CLIQUE_TABLE_SPAN:
            return form
        values = dict.fromkeys(form.digits, np.zeros(places[-1], dtype=U))
        values.update(zip(digits, np.indices(spans[::-1], dtype=U).reshape(len(spans), places[-1])[::-1]))
        return Gather(np.broadcast_to(form(values), places[-1:]), tuple(digits), tuple(places[:-1]))

    def compiled(part: Strategy, digits) -> Generator:
        forms = yield from part._compiled(digits)
        return [f if isinstance(f, Gather) else tabulated(f) for f in forms]

    return drive(compiled(root, tuple((row, ()) for row in range(len(hats)))), compiled)


# ---------------------------------------------------------------------------
# Composite strategies (built by the constructors module)


@dataclass(frozen=True, eq=False, repr=False)
class ProductStrategy(_Composite):
    """Strategy for two winning games glued at one vertex.

    The glued vertex's color encodes a pair: the left factor reads
    ``c mod h1``, the right factor reads ``c div h1`` (h1 is the left
    factor's hatness at the gluing).  Each side plays its own game on
    what its sages see, decoded; the glued vertex emits the encoding of
    its two sub-guesses.  If neither side produced a correct guess elsewhere,
    both sides' guarantees force their sub-guesses at the gluing to be
    correct, and then the encoded pair is exactly the glued color.

    Each factor is addressed by the rows of its vertices in ``game``, in
    the factor's own vertex order; the glued row is the only row in both.
    """

    game: Game
    left: Strategy
    right: Strategy
    left_rows: Sequence[int]     # row of each left-factor vertex: a range, from row 0
    right_rows: tuple[int, ...]  # row of each right-factor vertex
    kind = "product"

    @cached_property
    def _axis(self) -> tuple[int, int, int]:
        """The glued vertex's position in each factor, and h1."""
        (row,) = set(self.left_rows) & set(self.right_rows)
        la = self.left_rows.index(row)
        return la, self.right_rows.index(row), self.left.game.hat_tuple[la]

    @cached_property
    def _sides(self) -> tuple:
        """Each factor, its rows, and ``split(j, c)``, its position j's color
        when the composite's is c: the glued color's low digit c % h1 for
        the left factor, its high digit c // h1 for the right."""
        la, ra, h1 = self._axis
        return ((self.left, self.left_rows, lambda j, c: c % h1 if j == la else c),
                (self.right, self.right_rows, lambda j, c: c // h1 if j == ra else c))

    def _consult(self, v: str, assignment: Assignment) -> Generator:
        r, h1, guesses = self.game.graph.index[v], self._axis[2], []
        for side in self._sides:
            try:  # one scan: r is in one factor, or in both at the glued row
                k = side[1].index(r)
            except ValueError:
                continue
            guesses.append((yield self._ask(*side, k, assignment)))
        return guesses[0] + h1 * guesses[1] if len(guesses) == 2 else guesses[0]

    def guesses_batch(self, colors: Sequence[np.ndarray]) -> list[np.ndarray]:
        return list(self._program.rows(colors))

    def _compiled(self, digits) -> Generator:
        la, ra, h1 = self._axis
        row, steps = digits[self.left_rows[la]]
        left, right = [digits[r] for r in self.left_rows], [digits[r] for r in self.right_rows]
        left[la], right[ra] = (row, (*steps, (1, h1))), (row, (*steps, (h1, None)))
        parts = [(yield self.left, left), (yield self.right, right)]
        out = [None] * len(digits)
        for rows, forms in zip((self.left_rows, self.right_rows), parts):
            for r, form in zip(rows, forms):
                out[r] = form
        out[self.left_rows[la]] = Sum((1, h1), (parts[0][la], parts[1][ra]))
        return out


@dataclass(frozen=True, eq=False, repr=False)
class ConeStrategy(_Composite):
    """Strategy for petal games sharing an apex, wired by a base game.

    Attachment vertex i carries a pair (u_i, v_i) = (c_i mod h_i,
    c_i div h_i): the u part is its color inside petal i, the v part its
    color in the base game.  Every attachment vertex plays both layers
    and encodes the pair of sub-guesses.  The apex sees every attachment
    vertex, so it can replay the base strategy, find the first petal
    whose base guess is correct, and emit that petal's apex guess.  If no
    interior sage and no attachment vertex guessed right, the petal the
    base points at must have been saved by its apex guess.

    Petal i is addressed by the rows of its vertices in ``game``, in the
    petal's own vertex order; every petal holds the apex row, and its
    attachment row is base vertex i.
    """

    game: Game
    base: Strategy
    petals: tuple[Strategy, ...]
    petal_rows: tuple[tuple[int, ...], ...]  # row of each petal vertex, per petal
    petal_o: tuple[int, ...]  # position of the apex in each petal
    petal_a: tuple[int, ...]  # position of the attachment in each petal
    kind = "cone"

    @cached_property
    def _sides(self) -> tuple:
        """Each petal and the base as a product's sides (a petal reads its
        attachment's low digit c % h, the base each attachment's high digit
        c // h), and each attachment's hatness h in its petal."""
        hs = tuple(p.game.hat_tuple[a] for p, a in zip(self.petals, self.petal_a))
        petals = tuple((p, rows, lambda j, c, a=a, h=h: c % h if j == a else c)
                       for p, rows, a, h in zip(self.petals, self.petal_rows, self.petal_a, hs))
        attach = tuple(rows[a] for rows, a in zip(self.petal_rows, self.petal_a))
        return petals, (self.base, attach, lambda j, c: c // hs[j]), hs

    def _consult(self, v: str, assignment: Assignment) -> Generator:
        r, (petals, base, hs) = self.game.graph.index[v], self._sides
        if r == self.petal_rows[0][self.petal_o[0]]:
            # The apex sees every attachment.
            names, chosen = self.game.graph.vertices, 0
            for i, row in enumerate(base[1]):
                if (yield self._ask(*base, i, assignment)) == assignment[names[row]] // hs[i]:
                    chosen = i
                    break
            return (yield self._ask(*petals[chosen], self.petal_o[chosen], assignment))
        i = next(i for i, rows in enumerate(self.petal_rows) if r in rows)
        k = self.petal_rows[i].index(r)
        guess = yield self._ask(*petals[i], k, assignment)
        if k == self.petal_a[i]:
            return guess + hs[i] * (yield self._ask(*base, i, assignment))
        return guess

    def guesses_batch(self, colors: Sequence[np.ndarray]) -> list[np.ndarray]:
        return list(self._program.rows(colors))

    def _compiled(self, digits) -> Generator:
        # Attachment i splits into its petal part and base vertex i.
        hs = [p.game.hat_tuple[a] for p, a in zip(self.petals, self.petal_a)]
        attach = [digits[rows[a]] for rows, a in zip(self.petal_rows, self.petal_a)]
        base_digits = [(row, (*steps, (h, None))) for (row, steps), h in zip(attach, hs)]
        base_forms = yield self.base, base_digits
        out, apex = [None] * len(digits), []
        for petal, rows, o, a, h, (row, steps), ghat in zip(self.petals, self.petal_rows, self.petal_o,
                                                           self.petal_a, hs, attach, base_forms):
            part = [digits[r] for r in rows]
            part[a] = (row, (*steps, (1, h)))
            forms = yield petal, part
            for r, form in zip(rows, forms):
                out[r] = form
            out[rows[a]] = Sum((1, h), (forms[a], ghat))
            apex.append(forms[o])
        # The first petal whose base guess matched, else petal 0, as the
        # scalar path does.
        out[self.petal_rows[0][self.petal_o[0]]] = Select(tuple(zip(base_forms, base_digits)), tuple(apex))
        return out
