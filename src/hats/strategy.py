"""Deterministic guessing strategies, evaluable one assignment at a time
or vectorized over batches.

Every strategy exposes two evaluation paths:

* ``guess(v, assignment)`` / ``guesses(assignment)`` - plain Python,
  written as directly as possible from the defining arithmetic, scanning
  candidate colors and asserting that the hypothesis set admits exactly
  one.  This is the reference path.
* ``guesses_batch(colors)`` - numpy arithmetic and table gathers over a
  batch of assignments (one row per vertex, in vertex order).  This is
  the path the sweep verifier drives.

The two paths are implemented independently and the test suite checks
them against each other exhaustively on small games.  Both are pure
functions of the neighbors' colors: perturbing a non-neighbor never
changes a vertex's guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, reduce
from importlib import resources
from typing import Mapping, Sequence

import numpy as np

from .core import (
    Assignment,
    CapacityError,
    ContractError,
    Game,
    StructureError,
    almost_complete_graph,
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

    def guess(self, v: str, assignment: Assignment) -> int:
        raise NotImplementedError

    def guesses(self, assignment: Assignment) -> dict[str, int]:
        return {v: self.guess(v, assignment) for v in self.game.graph.vertices}

    def guesses_batch(self, colors: Sequence[np.ndarray]) -> list[np.ndarray]:
        """Guesses for a batch: ``colors[i]`` holds the colors of vertex i
        (its position in ``game.graph.vertices``), one column per
        assignment.  Returns the V rows of uint64 guesses in that order."""
        raise NotImplementedError


def evaluate(strategy: Strategy, assignment: Assignment) -> list[Guess]:
    """One guess per vertex, in vertex order."""
    validate_assignment(strategy.game, assignment)
    return [Guess(v, strategy.guess(v, assignment)) for v in strategy.game.graph.vertices]


# ---------------------------------------------------------------------------
# Clique arithmetic strategy


def _in_interval(t: int, start: int, length: int, modulus: int) -> bool:
    return (t - start) % modulus < length


# Most entries in one vertex's table on the clique gather path.  At 2**16,
# a clique's tables weigh no more than the colors of one default sweep chunk.
CLIQUE_TABLE_SPAN = 1 << 16


def _interval_guess(partial: np.ndarray, n: np.uint64, c: int, s: int, a: int) -> np.ndarray:
    """The own color that lands ``partial + c*x`` (mod n) in [s, s + c),
    for uint64 partial checksums in [0, n).  Intermediate values stay
    under 2n, so this is exact up to n = 2**63."""
    d = (_u(s) + n - partial) % n
    return ((d + _u(c - 1)) // _u(c)) % _u(a)


@dataclass(frozen=True)
class CliqueArithStrategy(Strategy):
    """Checksum strategy on a complete graph.

    Working modulo N = lcm of the hatnesses, sage i with coefficient
    c_i = N / a_i claims the cyclic interval [s_i, s_i + c_i - 1].  The
    intervals are laid end to end, so when the fractional sum of the
    game is at least 1 they cover all of Z_N.  Sage i sees the partial
    checksum P of everyone else and guesses the unique own color that
    would land the full checksum inside its interval; whoever's interval
    contains the true checksum is correct.

    The batch path gathers: sage i's unreduced partial checksum
    sum_{j != i} c_j * x_j lies below span_i = 1 + sum_{j != i} c_j (a_j - 1),
    so a table of span_i guesses, built once per instance, answers it with
    one ``np.take`` and no division.  When some span_i exceeds
    CLIQUE_TABLE_SPAN entries the batch path falls back to uint64
    modular arithmetic, exact up to N = 2**63 (larger moduli raise
    CapacityError on either path).
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

    def _params(self):
        return zip(self.coefficients, self.starts, self.game.hat_tuple)

    @cached_property
    def _tables(self) -> tuple[np.ndarray, ...] | None:
        """Per vertex, its uint64 guess for every unreduced partial
        checksum; None when a table would exceed CLIQUE_TABLE_SPAN."""
        reach = [c * (a - 1) for c, a in zip(self.coefficients, self.game.hat_tuple)]
        spans = [1 + sum(reach) - r for r in reach]
        if max(spans) > CLIQUE_TABLE_SPAN:
            return None
        n = _u(self.modulus)
        return tuple(
            _interval_guess(np.arange(span, dtype=U) % n, n, c, s, a)
            for span, (c, s, a) in zip(spans, self._params())
        )

    def guesses_batch(self, colors: Sequence[np.ndarray]) -> list[np.ndarray]:
        if self.modulus > 2 ** 63:
            raise CapacityError(
                f"clique modulus {self.modulus} is too large for batch evaluation: "
                "exact up to 2**63",
                self.modulus,
            )
        if self._tables is None:
            return self._arith_batch(colors)
        return self._gather_batch(colors)

    def _gather_batch(self, colors: Sequence[np.ndarray]) -> list[np.ndarray]:
        terms = [np.multiply(row, c, dtype=np.intp, casting="unsafe")
                 for row, c in zip(colors, self.coefficients)]
        total = reduce(np.add, terms)
        return [np.take(table, total - term) for table, term in zip(self._tables, terms)]

    def _arith_batch(self, colors: Sequence[np.ndarray]) -> list[np.ndarray]:
        n = _u(self.modulus)
        terms = [(row.astype(U) * _u(c)) % n for row, c in zip(colors, self.coefficients)]
        total = reduce(lambda acc, term: (acc + term) % n, terms)
        return [_interval_guess((total + n - term) % n, n, c, s, a)
                for term, (c, s, a) in zip(terms, self._params())]


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


# Keys per block of a trap guess table; no key (an unreduced checksum, or
# one less a sage's own term plus 3c) exceeds 99.  The batch weights of
# A2, A3, A14, B14, C14 are the checksum coefficients, then the A blocks'
# offset 128*(c - b) and C14's 3c.
_TRAP_KEYS = 128
_TRAP_WEIGHTS = (21, 14, 3, _TRAP_KEYS, _TRAP_KEYS + 3)


def _orbit_guesses(target: Sequence[int], w: int, h: int) -> np.ndarray:
    """For each key q < _TRAP_KEYS, the unique x < h with (w*x + q) mod 42
    in ``target``; ContractError when the set meets some orbit {q + w*x}
    other than exactly once."""
    hits = np.isin((np.arange(h)[:, None] * w + np.arange(_TRAP_KEYS)) % TRAP_MODULUS, target)
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


_SHIPPED_TABLE: TrapTable | None = None


def shipped_trap_table() -> TrapTable:
    global _SHIPPED_TABLE
    if _SHIPPED_TABLE is None:
        table = load_trap_table()
        problems = validate_trap_table(table)
        if problems:
            raise ContractError("shipped trap table is invalid: " + "; ".join(problems))
        _SHIPPED_TABLE = table
    return _SHIPPED_TABLE


@dataclass(frozen=True)
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

    The batch path is one ``np.take`` per sage from a table built once per
    instance, holding for each key q < 128 the unique x < h with
    (w*x + q) mod 42 in the sage's target set.  B14 and C14 key on the
    unreduced S.  An A sage keys on S minus its own term plus 3c (undoing
    its row's shift) in block c - b + 13 of 27, which holds row (c - b) mod 14.
    """

    game: Game
    table: TrapTable
    kind = "k5minus-trap"

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
    def _tables(self) -> tuple[np.ndarray, ...]:
        """One uint64 guess table per sage, in K5_VERTICES order."""
        if self.game.graph.vertices != K5_VERTICES:
            raise ContractError(f"the trap's batch path reads rows in the order {K5_VERTICES}")
        blocks = [self.table.rows[(k - 13) % 14] for k in range(27)]
        a_tables = [
            np.concatenate([_orbit_guesses(getattr(row, name), w, h) for row in blocks])
            for name, w, h in (("a2", 21, 2), ("a3", 14, 3), ("a14", 3, 14))
        ]
        return (*a_tables, _orbit_guesses(FIRST_TRAP, 3, 14), _orbit_guesses(SECOND_TRAP, 3, 14))

    def guesses_batch(self, colors: Sequence[np.ndarray]) -> list[np.ndarray]:
        t2, t3, t14, tb, tc = (np.multiply(row, w, dtype=np.intp, casting="unsafe")
                               for row, w in zip(colors, _TRAP_WEIGHTS))
        s = t2 + t3 + t14
        shifted = s + tc - tb + 13 * _TRAP_KEYS
        keys = (shifted - t2, shifted - t3, shifted - t14, s, s)
        return [np.take(table, key) for table, key in zip(self._tables, keys)]


def k5minus_game() -> Game:
    return Game(almost_complete_graph(K5_VERTICES), dict(K5_HATNESS))


def k5minus_strategy() -> tuple[Game, K5MinusTrapStrategy]:
    game = k5minus_game()
    return game, K5MinusTrapStrategy(game, shipped_trap_table())


# ---------------------------------------------------------------------------
# Strategy tables (the exact solver's output format)


@dataclass(frozen=True)
class TableStrategy(Strategy):
    """Explicit lookup table: one guess per visible neighbor pattern.

    The pattern index is the mixed-radix encoding of the neighbors'
    colors, neighbors taken in vertex order with the first as the least
    significant digit.
    """

    game: Game
    tables: Mapping[str, tuple[int, ...]]
    kind = "table"

    def pattern_index(self, v: str, assignment: Mapping[str, int]) -> int:
        idx = 0
        place = 1
        for u in self.game.graph.adjacency[v]:
            idx += assignment[u] * place
            place *= self.game.h(u)
        return idx

    def guess(self, v: str, assignment: Assignment) -> int:
        return self.tables[v][self.pattern_index(v, assignment)]

    def guesses_batch(self, colors: Sequence[np.ndarray]) -> list[np.ndarray]:
        return [
            np.take(np.asarray(self.tables[v], dtype=U),
                    pattern_indices(self.game, i, colors).astype(np.intp))
            for i, v in enumerate(self.game.graph.vertices)
        ]


def pattern_indices(game: Game, i: int, colors: Sequence[np.ndarray]) -> np.ndarray:
    """Batch form of ``TableStrategy.pattern_index``: the visible-pattern
    index of row i for every assignment of a batch (0 when it sees nobody)."""
    idx = np.zeros(len(colors[i]), dtype=U)
    place = 1
    for u in game.graph.adjacency[game.graph.vertices[i]]:
        idx = idx + colors[game.graph.index[u]].astype(U) * _u(place)
        place *= game.h(u)
    return idx


# ---------------------------------------------------------------------------
# Majorization adapter


@dataclass(frozen=True)
class AdaptedStrategy(Strategy):
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

    def guess(self, v: str, assignment: Assignment) -> int:
        g = self.inner.guess(v, assignment)
        return g if g < self.game.h(v) else 0

    def guesses_batch(self, colors: Sequence[np.ndarray]) -> list[np.ndarray]:
        return [
            np.where(g < _u(h), g, _u(0))
            for g, h in zip(self.inner.guesses_batch(colors), self.game.hat_tuple)
        ]


def adapt_majorized(strategy: Strategy, lower: Mapping[str, int]) -> AdaptedStrategy:
    lower_game = Game(strategy.game.graph, dict(lower))
    if not majorizes(strategy.game, lower_game):
        raise ContractError("strategy's game does not majorize the lower game")
    return AdaptedStrategy(lower_game, strategy)


# ---------------------------------------------------------------------------
# Composite strategies (built by the constructors module)


def _part_rows(game: Game, names: Mapping[str, str], part: Game, *at: str):
    """The rows in ``game`` of ``part``'s vertices, in ``part``'s order, via
    ``names`` (game name -> part name), then the positions of ``at``."""
    rows = {orig: game.graph.index[comp] for comp, orig in names.items()}
    return (tuple(rows[v] for v in part.graph.vertices), *(part.graph.index[v] for v in at))


def _check_uint64(game: Game, moduli: Sequence[int]) -> None:
    """Composite batch paths hold colors, encoded guesses and split moduli
    in uint64: every hatness must be at most 2**64 and every modulus below
    it.  Anything larger would wrap silently, so it is refused."""
    top = max(game.hat_tuple)
    if top > 2 ** 64:
        raise CapacityError(f"hatness {top} is too large for batch evaluation: exact up to 2**64", top)
    if max(moduli) >= 2 ** 64:
        raise CapacityError(f"split modulus {max(moduli)} is too large for batch evaluation: "
                            "exact below 2**64", max(moduli))


@dataclass(frozen=True)
class ProductStrategy(Strategy):
    """Strategy for two winning games glued at one vertex.

    The glued vertex's color encodes a pair: the left factor reads
    ``c mod h1``, the right factor reads ``c div h1`` (h1 is the left
    factor's hatness at the gluing).  Each side plays its own game on its
    decoded view; the glued vertex emits the encoding of its two
    sub-guesses.  If neither side produced a correct guess elsewhere,
    both sides' guarantees force their sub-guesses at the gluing to be
    correct, and then the encoded pair is exactly the glued color.
    """

    game: Game
    axis: str
    left: Strategy
    right: Strategy
    left_names: Mapping[str, str]   # composed name -> left-factor name
    right_names: Mapping[str, str]  # composed name -> right-factor name
    kind = "product"

    @property
    def left_axis_hatness(self) -> int:
        return self.left.game.h(self.left_names[self.axis])

    def _split_scalar(self, assignment: Assignment):
        h1 = self.left_axis_hatness
        la = {orig: assignment[comp] for comp, orig in self.left_names.items()}
        ra = {orig: assignment[comp] for comp, orig in self.right_names.items()}
        la[self.left_names[self.axis]] = assignment[self.axis] % h1
        ra[self.right_names[self.axis]] = assignment[self.axis] // h1
        return la, ra

    def guess(self, v: str, assignment: Assignment) -> int:
        la, ra = self._split_scalar(assignment)
        if v == self.axis:
            gl = self.left.guess(self.left_names[v], la)
            gr = self.right.guess(self.right_names[v], ra)
            return gl + self.left_axis_hatness * gr
        if v in self.left_names:
            return self.left.guess(self.left_names[v], la)
        return self.right.guess(self.right_names[v], ra)

    @cached_property
    def _rows(self):
        _check_uint64(self.game, [self.left_axis_hatness])
        return tuple(
            _part_rows(self.game, names, part.game, names[self.axis])
            for names, part in ((self.left_names, self.left), (self.right_names, self.right))
        )

    def guesses_batch(self, colors: Sequence[np.ndarray]) -> list[np.ndarray]:
        (left_rows, la), (right_rows, ra) = self._rows
        h1 = _u(self.left.game.hat_tuple[la])
        axis = left_rows[la]
        lc = [colors[r] for r in left_rows]
        rc = [colors[r] for r in right_rows]
        rc[ra], lc[la] = divmod(colors[axis].astype(U), h1)
        lg = self.left.guesses_batch(lc)
        rg = self.right.guesses_batch(rc)
        out = [None] * len(colors)
        for rows, guesses in ((left_rows, lg), (right_rows, rg)):
            for r, g in zip(rows, guesses):
                out[r] = g
        out[axis] = lg[la] + h1 * rg[ra]
        return out


@dataclass(frozen=True)
class ConeStrategy(Strategy):
    """Strategy for petal games sharing an apex, wired by a base game.

    Attachment vertex i carries a pair (u_i, v_i) = (c_i mod h_i,
    c_i div h_i): the u part is its color inside petal i, the v part its
    color in the base game.  Every attachment vertex plays both layers
    and encodes the pair of sub-guesses.  The apex sees every attachment
    vertex, so it can replay the base strategy, find the first petal
    whose base guess is correct, and emit that petal's apex guess.  If no
    interior sage and no attachment vertex guessed right, the petal the
    base points at must have been saved by its apex guess.
    """

    game: Game
    apex: str
    base: Strategy
    petals: tuple[Strategy, ...]
    petal_names: tuple[Mapping[str, str], ...]  # composed name -> petal name
    petal_o: tuple[str, ...]      # petal-local apex name, per petal
    petal_a: tuple[str, ...]      # petal-local attachment name, per petal
    attach: tuple[str, ...]       # composed attachment name, per petal
    kind = "cone"

    @cached_property
    def _attach_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.attach)}

    @cached_property
    def _owner(self) -> dict[str, int]:
        owner = {}
        for i, names in enumerate(self.petal_names):
            for comp in names:
                if comp != self.apex:
                    owner[comp] = i
        return owner

    def _attach_hatness(self, i: int) -> int:
        return self.petals[i].game.h(self.petal_a[i])

    def _base_vertex(self, i: int) -> str:
        return self.base.game.graph.vertices[i]

    def _decode_scalar(self, assignment: Assignment):
        base_assign = {}
        u_parts = []
        for i in range(len(self.petals)):
            c = assignment[self.attach[i]]
            h = self._attach_hatness(i)
            u_parts.append(c % h)
            base_assign[self._base_vertex(i)] = c // h
        return u_parts, base_assign

    def _petal_assign(self, i: int, assignment: Assignment, u_i: int) -> Assignment:
        pa = {orig: assignment[comp] for comp, orig in self.petal_names[i].items()}
        pa[self.petal_a[i]] = u_i
        return pa

    def guess(self, v: str, assignment: Assignment) -> int:
        u_parts, base_assign = self._decode_scalar(assignment)
        if v == self.apex:
            chosen = 0
            for i in range(len(self.petals)):
                if self.base.guess(self._base_vertex(i), base_assign) == base_assign[self._base_vertex(i)]:
                    chosen = i
                    break
            pa = self._petal_assign(chosen, assignment, u_parts[chosen])
            return self.petals[chosen].guess(self.petal_o[chosen], pa)
        if v in self._attach_index:
            i = self._attach_index[v]
            pa = self._petal_assign(i, assignment, u_parts[i])
            sub = self.petals[i].guess(self.petal_a[i], pa)
            ghat = self.base.guess(self._base_vertex(i), base_assign)
            return sub + self._attach_hatness(i) * ghat
        i = self._owner[v]
        pa = self._petal_assign(i, assignment, u_parts[i])
        return self.petals[i].guess(self.petal_names[i][v], pa)

    @cached_property
    def _rows(self):
        _check_uint64(self.game, [p.game.h(a) for p, a in zip(self.petals, self.petal_a)])
        return tuple(
            (*_part_rows(self.game, names, p.game, a, o), _u(p.game.h(a)))
            for p, names, a, o in zip(self.petals, self.petal_names, self.petal_a, self.petal_o)
        )

    def guesses_batch(self, colors: Sequence[np.ndarray]) -> list[np.ndarray]:
        # Split each attachment into (base, petal) parts; base vertex i is petal i's attachment.
        splits = [divmod(colors[rows[a]].astype(U), h) for rows, a, _, h in self._rows]
        base_colors = [high for high, _ in splits]
        base_guesses = self.base.guesses_batch(base_colors)

        out = [None] * len(colors)
        apex_guesses = []
        for petal, (rows, a, o, h), (_, low), ghat in zip(
                self.petals, self._rows, splits, base_guesses):
            pc = [colors[r] for r in rows]
            pc[a] = low
            guesses = petal.guesses_batch(pc)
            for r, g in zip(rows, guesses):
                out[r] = g
            out[rows[a]] = guesses[a] + h * ghat
            apex_guesses.append(guesses[o])
        # The first petal whose base guess matched, else petal 0, as the
        # scalar path does.  rows[o] is the apex.
        hits = [g == c for g, c in zip(base_guesses, base_colors)]
        out[rows[o]] = np.select(hits, apex_guesses, apex_guesses[0])
        return out
