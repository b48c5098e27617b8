"""Deterministic guessing strategies, evaluable one assignment at a time
or vectorized over batches.

Every strategy exposes two evaluation paths:

* ``guess(v, assignment)`` / ``guesses(assignment)`` - plain Python,
  written as directly as possible from the defining arithmetic, scanning
  candidate colors and asserting that the hypothesis set admits exactly
  one.  This is the reference path.
* ``guesses_batch(colors)`` - closed-form numpy arithmetic over a batch
  of assignments (one array per vertex).  This is the path the sweep
  verifier drives.

The two paths are implemented independently and the test suite checks
them against each other exhaustively on small games.  Both are pure
functions of the neighbors' colors: perturbing a non-neighbor never
changes a vertex's guess.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from importlib import resources
from typing import Mapping, Sequence

import numpy as np

from .core import (
    Assignment,
    CapacityError,
    ContractError,
    Game,
    Graph,
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

    def guesses_batch(self, colors: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        raise NotImplementedError


def evaluate(strategy: Strategy, assignment: Assignment) -> list[Guess]:
    """One guess per vertex, in vertex order."""
    validate_assignment(strategy.game, assignment)
    return [Guess(v, strategy.guess(v, assignment)) for v in strategy.game.graph.vertices]


# ---------------------------------------------------------------------------
# Clique arithmetic strategy


def _in_interval(t: int, start: int, length: int, modulus: int) -> bool:
    return (t - start) % modulus < length


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

    def guesses_batch(self, colors: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        # Every intermediate value below stays under 2 * modulus, so uint64
        # arithmetic is exact up to a modulus of 2**63.
        if self.modulus > 2 ** 63:
            raise CapacityError(
                f"clique modulus {self.modulus} is too large for batch evaluation: "
                "exact up to 2**63",
                self.modulus,
            )
        n = _u(self.modulus)
        verts = self.game.graph.vertices
        total = None
        terms = {}
        for v, c in zip(verts, self.coefficients):
            term = (colors[v].astype(U) * _u(c)) % n
            terms[v] = term
            total = term if total is None else (total + term) % n
        out = {}
        for v, c, s, a in zip(verts, self.coefficients, self.starts, self.game.hat_tuple):
            partial = (total + n - terms[v]) % n
            d = (_u(s) + n - partial) % n
            out[v] = ((d + _u(c - 1)) // _u(c)) % _u(a)
        return out


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
    def _lookup(self):
        a2_start = np.array([row.a2[0] for row in self.table.rows], dtype=U)
        a3_start = np.array([row.a3[0] for row in self.table.rows], dtype=U)
        by_res = np.zeros((14, 3), dtype=U)
        for row in self.table.rows:
            for x in row.a14:
                by_res[row.d, x % 3] = x
        return a2_start, a3_start, by_res

    def guesses_batch(self, colors: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        m = _u(TRAP_MODULUS)
        a2 = colors["A2"].astype(U)
        a3 = colors["A3"].astype(U)
        a14 = colors["A14"].astype(U)
        b14 = colors["B14"].astype(U)
        c14 = colors["C14"].astype(U)
        t2, t3, t14 = (a2 * _u(21)) % m, (a3 * _u(14)) % m, (a14 * _u(3)) % m
        s = (t2 + t3 + t14) % m

        # The unique trap element sharing S's residue class modulo 3.
        target_b = s % _u(3)
        target_c = (s % _u(3)) * _u(4)
        out: dict[str, np.ndarray] = {
            "B14": ((target_b + m - s) % m) // _u(3),
            "C14": ((target_c + m - s) % m) // _u(3),
        }

        a2_start, a3_start, by_res = self._lookup
        d = ((c14 + _u(14) - b14) % _u(14)).astype(np.intp)
        shift = (c14 * _u(3)) % m

        rest2 = (t3 + t14) % m
        left2 = (np.take(a2_start, d) + m - shift) % m
        out["A2"] = ((rest2 + m - left2) % m) // _u(21)

        rest3 = (t2 + t14) % m
        left3 = (np.take(a3_start, d) + m - shift) % m
        off3 = (rest3 + m - left3) % m
        out["A3"] = (_u(3) - off3 // _u(14)) % _u(3)

        rest14 = (t2 + t3) % m
        res = (rest14 % _u(3)).astype(np.intp)
        t = (by_res[d, res] + m - shift) % m
        out["A14"] = ((t + m - rest14) % m) // _u(3)
        return out


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

    def guesses_batch(self, colors: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        return {
            v: np.take(np.asarray(self.tables[v], dtype=U),
                       pattern_indices(self.game, v, colors).astype(np.intp))
            for v in self.game.graph.vertices
        }


def pattern_indices(game: Game, v: str, colors: Mapping[str, np.ndarray]) -> np.ndarray:
    """Batch form of ``TableStrategy.pattern_index``: v's visible-pattern
    index for every assignment of a batch (all zero when v sees nobody)."""
    idx = np.zeros(len(colors[v]) if v in colors else 1, dtype=U)
    place = 1
    for u in game.graph.adjacency[v]:
        idx = idx + colors[u].astype(U) * _u(place)
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

    def guess(self, v: str, assignment: Assignment) -> int:
        g = self.inner.guess(v, assignment)
        return g if g < self.game.h(v) else 0

    def guesses_batch(self, colors: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        inner = self.inner.guesses_batch(colors)
        out = {}
        for v in self.game.graph.vertices:
            g = inner[v]
            out[v] = np.where(g < _u(self.game.h(v)), g, _u(0))
        return out


def adapt_majorized(strategy: Strategy, lower: Mapping[str, int]) -> AdaptedStrategy:
    lower_game = Game(strategy.game.graph, dict(lower))
    if not majorizes(strategy.game, lower_game):
        raise ContractError("strategy's game does not majorize the lower game")
    return AdaptedStrategy(lower_game, strategy)


# ---------------------------------------------------------------------------
# Composite strategies (built by the constructors module)


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

    def guesses_batch(self, colors: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        h1 = _u(self.left_axis_hatness)
        axis_colors = colors[self.axis].astype(U)
        lc = {orig: colors[comp] for comp, orig in self.left_names.items()}
        rc = {orig: colors[comp] for comp, orig in self.right_names.items()}
        lc[self.left_names[self.axis]] = axis_colors % h1
        rc[self.right_names[self.axis]] = axis_colors // h1
        lg = self.left.guesses_batch(lc)
        rg = self.right.guesses_batch(rc)
        out: dict[str, np.ndarray] = {}
        for comp in self.game.graph.vertices:
            if comp == self.axis:
                out[comp] = lg[self.left_names[comp]] + h1 * rg[self.right_names[comp]]
            elif comp in self.left_names:
                out[comp] = lg[self.left_names[comp]]
            else:
                out[comp] = rg[self.right_names[comp]]
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

    def guesses_batch(self, colors: Mapping[str, np.ndarray]) -> dict[str, np.ndarray]:
        k = len(self.petals)
        base_colors = {}
        u_parts = []
        for i in range(k):
            c = colors[self.attach[i]].astype(U)
            h = _u(self._attach_hatness(i))
            u_parts.append(c % h)
            base_colors[self._base_vertex(i)] = c // h
        base_guesses = self.base.guesses_batch(base_colors)

        petal_guesses = []
        for i in range(k):
            pc = {orig: colors[comp] for comp, orig in self.petal_names[i].items()}
            pc[self.petal_a[i]] = u_parts[i]
            petal_guesses.append(self.petals[i].guesses_batch(pc))

        out: dict[str, np.ndarray] = {}
        # First petal whose base guess matched; argmax picks index 0 when
        # none did, which is the documented fallback.
        hits = np.stack([
            base_guesses[self._base_vertex(i)] == base_colors[self._base_vertex(i)]
            for i in range(k)
        ])
        chosen = np.argmax(hits, axis=0)
        apex_guesses = np.stack([petal_guesses[i][self.petal_o[i]] for i in range(k)])
        out[self.apex] = np.take_along_axis(apex_guesses, chosen[None, :], axis=0)[0]

        for i in range(k):
            for comp, orig in self.petal_names[i].items():
                if comp == self.apex:
                    continue
                if comp == self.attach[i]:
                    ghat = base_guesses[self._base_vertex(i)]
                    out[comp] = petal_guesses[i][orig] + _u(self._attach_hatness(i)) * ghat
                else:
                    out[comp] = petal_guesses[i][orig]
        return out
