"""Exact winning/losing decision for tiny games.

Strategy existence is a covering problem: choose a table entry
f_v(pattern) for every vertex and visible pattern so that each hat
assignment has at least one vertex whose entry matches its own color.
The search state keeps a color-set domain per table cell; branching
picks the uncovered assignment with the fewest live covering options and
tries them in vertex order, refuting each before moving to the next, so
exhausting the root proves the game losing.  The search is iterative:
its depth is bounded by the number of assignments (each level covers
one more), not by the interpreter's recursion limit.

Two propagation rules keep tiny instances tiny: an uncovered assignment
with a single live option forces that entry (unit propagation), and a
counting bound prunes branches where the undecided cells cannot cover
the remaining assignments even in the best case (each cell can newly
cover at most the number of assignments that agree with it on the
pattern and the chosen color).
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Generator, Optional

from .core import (
    CapacityError,
    ContractError,
    Game,
    LOSING,
    UNKNOWN,
    WINNING,
)
from .strategy import TableStrategy, pattern_indices
from .verifier import _decode_chunk

MAX_PATTERNS = 2 ** 16
MAX_ASSIGNMENTS = 2 ** 24


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 1_000_000

    def __post_init__(self):
        if self.max_nodes < 1:
            raise ContractError("budget must be positive")


@dataclass
class SolveResult:
    status: str  # winning / losing / unknown
    strategy: Optional[TableStrategy]
    nodes: int

    def to_json(self) -> dict:
        doc = {"status": self.status, "nodes": self.nodes}
        if self.strategy is not None:
            doc["table"] = {v: list(t) for v, t in self.strategy.tables.items()}
        return doc


class _Search:
    def __init__(self, game: Game, budget: SearchBudget):
        self.game = game
        self.budget = budget
        verts = game.graph.vertices

        self.pattern_counts = []
        for v in verts:
            count = math.prod(game.h(u) for u in game.graph.adjacency[v])
            if count > MAX_PATTERNS:
                raise CapacityError(
                    f"game too large for exact solving: {count} visible patterns at {v!r}",
                    count,
                )
            self.pattern_counts.append(count)
        total = game.color_space
        if total > MAX_ASSIGNMENTS:
            raise CapacityError(
                f"game too large for exact solving: {total} assignments", total
            )

        # Per cell: its color-set domain and how many assignments one
        # fixed entry can cover (the colors of vertices outside the
        # closed neighborhood are free).
        self.cell_base = []
        self.dom = []
        self.cell_cap = []
        for v, count in zip(verts, self.pattern_counts):
            self.cell_base.append(len(self.dom))
            self.dom += [(1 << game.h(v)) - 1] * count
            closed = set(game.graph.adjacency[v]) | {v}
            self.cell_cap += [math.prod(game.h(u) for u in verts if u not in closed)] * count

        # Per assignment: its option list [(vertex, cell, own color)];
        # per cell: the assignments referencing it.
        self.options: list[list[tuple[int, int, int]]] = [[] for _ in range(total)]
        self.cell_refs: list[list[tuple[int, int]]] = [[] for _ in self.dom]
        colors = _decode_chunk(game, 0, total)
        for i in range(len(verts)):
            cells = (self.cell_base[i] + pattern_indices(game, i, colors)).tolist()
            for a, (cell, own) in enumerate(zip(cells, colors[i].tolist())):
                self.options[a].append((i, cell, own))
                self.cell_refs[cell].append((a, own))

        self.assured = [0] * total
        self.npos = [len(verts)] * total
        self.uncovered = total
        self.trail: list[tuple] = []
        self.units: deque[int] = deque()
        self.nodes = 0

    # -- state updates ----------------------------------------------------

    def _assure(self, a: int) -> None:
        if self.assured[a] == 0:
            self.uncovered -= 1
        self.assured[a] += 1
        self.trail.append(("assured", a))

    def _assure_fixed(self, cell: int) -> None:
        """Mark covered every assignment a singleton cell now guesses."""
        fixed = self.dom[cell].bit_length() - 1
        for a, req in self.cell_refs[cell]:
            if req == fixed:
                self._assure(a)

    def _remove(self, cell: int, color: int) -> bool:
        """Drop a color from a cell's domain; False on conflict."""
        mask = 1 << color
        if not self.dom[cell] & mask:
            return True
        self.dom[cell] &= ~mask
        self.trail.append(("dom", cell, mask))
        if self.dom[cell] == 0:
            return False
        ok = True
        for a, req in self.cell_refs[cell]:
            if req == color:
                self.npos[a] -= 1
                self.trail.append(("npos", a))
                if self.assured[a] == 0:
                    if self.npos[a] == 0:
                        ok = False
                    elif self.npos[a] == 1:
                        self.units.append(a)
        if ok and self.dom[cell].bit_count() == 1:
            self._assure_fixed(cell)
        return ok

    def _fix(self, cell: int, color: int) -> bool:
        rest = self.dom[cell] & ~(1 << color)
        while rest:
            low = rest & -rest
            if not self._remove(cell, low.bit_length() - 1):
                return False
            rest &= rest - 1
        return True

    def _undo(self, mark: int) -> None:
        while len(self.trail) > mark:
            entry = self.trail.pop()
            if entry[0] == "dom":
                self.dom[entry[1]] |= entry[2]
            elif entry[0] == "npos":
                self.npos[entry[1]] += 1
            else:
                self.assured[entry[1]] -= 1
                if self.assured[entry[1]] == 0:
                    self.uncovered += 1

    def _propagate(self) -> bool:
        while self.units:
            a = self.units.popleft()
            if self.assured[a] > 0:
                continue
            if self.npos[a] == 0:
                return False
            if self.npos[a] != 1:
                continue
            for _, cell, req in self.options[a]:
                if self.dom[cell] & (1 << req):
                    if not self._fix(cell, req):
                        return False
                    break
        return True

    def _capacity_ok(self) -> bool:
        potential = 0
        for dom, cap in zip(self.dom, self.cell_cap):
            if dom & (dom - 1):
                potential += cap
                if potential >= self.uncovered:
                    return True
        return False

    # -- search ------------------------------------------------------------

    def run(self) -> str:
        self.units.extend(range(len(self.options)))
        # Hatness-1 vertices start with singleton cells; fire their
        # assurances before anything else.
        for cell, dom in enumerate(self.dom):
            if dom.bit_count() == 1:
                self._assure_fixed(cell)
        if not self._propagate():
            return "unsat"
        # Each search level is a generator that yields to descend; the
        # stack of suspended levels replaces the call stack.
        stack = [self._search()]
        result = None
        while stack:
            try:
                stack[-1].send(result)
            except StopIteration as done:
                stack.pop()
                result = done.value
            else:
                stack.append(self._search())
                result = None
        return result

    def _search(self) -> Generator[None, str, str]:
        if self.uncovered == 0:
            return "sat"
        if not self._capacity_ok():
            return "unsat"
        best = None
        for a in range(len(self.options)):
            if self.assured[a] == 0:
                if best is None or self.npos[a] < self.npos[best]:
                    best = a
                    if self.npos[a] <= 1:
                        break
        for i, cell, req in self.options[best]:
            if not self.dom[cell] & (1 << req):
                continue
            self.nodes += 1
            if self.nodes > self.budget.max_nodes:
                return "budget"
            mark = len(self.trail)
            self.units.clear()
            if self._fix(cell, req) and self._propagate():
                result = yield
                if result in ("sat", "budget"):
                    return result
            self._undo(mark)
            self.units.clear()
            if not (self._remove(cell, req) and self._propagate()):
                return "unsat"
        return "unsat"

    def extract_tables(self) -> TableStrategy:
        tables = {}
        for i, v in enumerate(self.game.graph.vertices):
            base = self.cell_base[i]
            entries = []
            for p in range(self.pattern_counts[i]):
                dom = self.dom[base + p]
                entries.append((dom & -dom).bit_length() - 1 if dom else 0)
            tables[v] = tuple(entries)
        return TableStrategy(self.game, tables)


def solve_exact(game: Game, budget: SearchBudget = SearchBudget()) -> SolveResult:
    """Decide a tiny game exactly.

    Winning results carry an explicit table strategy; Losing means the
    whole search space was refuted; Unknown means the node budget ran
    out first.  Games with more than MAX_PATTERNS visible patterns at a
    vertex or more than MAX_ASSIGNMENTS assignments raise CapacityError.
    """
    search = _Search(game, budget)
    outcome = search.run()
    if outcome == "sat":
        return SolveResult(WINNING, search.extract_tables(), search.nodes)
    if outcome == "unsat":
        return SolveResult(LOSING, None, search.nodes)
    return SolveResult(UNKNOWN, None, search.nodes)


# ---------------------------------------------------------------------------
# Cross-check against the complete-graph criterion


@dataclass
class CliqueCheckReport:
    games_checked: int
    disagreements: list[tuple[tuple[int, ...], str, bool]] = field(default_factory=list)
    unknown: list[tuple[int, ...]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.disagreements and not self.unknown


def check_against_clique_theorem(max_n: int, max_hatness: int,
                                 budget: SearchBudget = SearchBudget()) -> CliqueCheckReport:
    """Solve every complete-graph game up to the given size both ways.

    The solver verdict must match the reciprocal-sum criterion on every
    instance; any disagreement lands in the report.
    """
    from itertools import combinations_with_replacement

    from .core import complete_graph

    report = CliqueCheckReport(0)
    for n in range(1, max_n + 1):
        for hats in combinations_with_replacement(range(1, max_hatness + 1), n):
            names = tuple(f"v{i}" for i in range(n))
            game = Game(complete_graph(names), dict(zip(names, hats)))
            expected = sum(Fraction(1, a) for a in hats) >= 1
            result = solve_exact(game, budget)
            report.games_checked += 1
            if result.status == UNKNOWN:
                report.unknown.append(hats)
            elif (result.status == WINNING) != expected:
                report.disagreements.append((hats, result.status, expected))
    return report
