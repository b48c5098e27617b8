"""Exact winning/losing decision for tiny games.

Strategy existence is a covering problem: choose a table entry
f_v(pattern) for every vertex and visible pattern so that each hat
assignment has at least one vertex whose entry matches its own color.
The search state keeps a color-set domain per table cell; branching
picks the uncovered assignment with the fewest live covering options and
tries them in vertex order, refuting each before moving to the next, so
exhausting the root proves the game losing.  Each search level is a
generator run by :func:`hats.core.drive`, so the search depth is bounded
by the number of assignments (each level covers one more), not by the
interpreter's recursion limit.

Two propagation rules keep tiny instances tiny: an uncovered assignment
with a single live option forces that entry (unit propagation), and a
counting bound prunes branches where the undecided cells cannot cover
the remaining assignments even in the best case (each cell can newly
cover at most the number of assignments that agree with it on the
pattern and the chosen color).

The undo trail holds domain removals only, one (cell, color) each; every
count is a function of the domains, so undo recomputes it.
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
    drive,
    require_int,
)
from .strategy import TableStrategy, pattern_indices
from .verifier import decode_block

MAX_PATTERNS = 2 ** 16
MAX_OPTIONS = 2 ** 20


@dataclass(frozen=True)
class SearchBudget:
    max_nodes: int = 1_000_000

    def __post_init__(self):
        if require_int("max_nodes", self.max_nodes) < 1:
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
        options = total * len(verts)
        if options > MAX_OPTIONS:
            raise CapacityError(f"game too large for exact solving: {options} options", options)

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

        # Per assignment: its option list [(cell, own color)] in vertex
        # order; per cell: the assignments referencing it.
        self.options: list[list[tuple[int, int]]] = [[] for _ in range(total)]
        self.cell_refs: list[list[tuple[int, int]]] = [[] for _ in self.dom]
        colors = decode_block(game, 0, total)
        for i in range(len(verts)):
            cells = (self.cell_base[i] + pattern_indices(game, i, colors)).tolist()
            for a, (cell, own) in enumerate(zip(cells, colors[i].tolist())):
                self.options[a].append((cell, own))
                self.cell_refs[cell].append((a, own))

        # Counts derived from the domains: per assignment its live options
        # and the fixed cells already guessing its color; the assignments
        # with none; the summed capacity of the cells with two or more
        # colors.  Hatness-1 cells start fixed at color 0.
        self.npos = [len(verts)] * total
        self.assured = [0] * total
        for cell, dom in enumerate(self.dom):
            if dom == 1:
                for a, _ in self.cell_refs[cell]:
                    self.assured[a] += 1
        self.uncovered = self.assured.count(0)
        self.potential = sum(cap for dom, cap in zip(self.dom, self.cell_cap) if dom & (dom - 1))
        self.trail: list[tuple[int, int]] = []  # removed (cell, color)
        self.units: deque[int] = deque()
        self.nodes = 0

    # -- state updates ----------------------------------------------------

    def _remove(self, cell: int, color: int) -> bool:
        """Drop a color from a cell's domain; False on conflict.  Counts
        are updated even then: every False is undone before they are read."""
        dom = self.dom[cell] & ~(1 << color)
        if dom == self.dom[cell]:
            return True
        self.dom[cell] = dom
        self.trail.append((cell, color))
        fixed = -1 if dom & (dom - 1) else dom.bit_length() - 1
        if fixed >= 0:
            self.potential -= self.cell_cap[cell]
        npos, assured = self.npos, self.assured
        ok = dom != 0
        for a, req in self.cell_refs[cell]:
            if req == color:
                npos[a] -= 1
                if assured[a] == 0:
                    if npos[a] == 0:
                        ok = False
                    elif npos[a] == 1:
                        self.units.append(a)
            elif req == fixed:
                if assured[a] == 0:
                    self.uncovered -= 1
                assured[a] += 1
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
        """Restore removals down to the trail mark, reversing _remove's
        counts from the domain each removal left behind."""
        npos, assured = self.npos, self.assured
        while len(self.trail) > mark:
            cell, color = self.trail.pop()
            dom = self.dom[cell]
            fixed = -1 if dom & (dom - 1) else dom.bit_length() - 1
            if fixed >= 0:
                self.potential += self.cell_cap[cell]
            for a, req in self.cell_refs[cell]:
                if req == color:
                    npos[a] += 1
                elif req == fixed:
                    assured[a] -= 1
                    if assured[a] == 0:
                        self.uncovered += 1
            self.dom[cell] = dom | 1 << color

    def _propagate(self) -> bool:
        while self.units:
            a = self.units.popleft()
            if self.assured[a] > 0:
                continue
            if self.npos[a] == 0:
                return False
            if self.npos[a] != 1:
                continue
            for cell, req in self.options[a]:
                if self.dom[cell] & (1 << req):
                    if not self._fix(cell, req):
                        return False
                    break
        return True

    # -- search ------------------------------------------------------------

    def run(self) -> str:
        self.units.extend(range(len(self.options)))
        if not self._propagate():
            return "unsat"
        return drive(self._search(), self._search)

    def _search(self) -> Generator[tuple[()], str, str]:
        if self.uncovered == 0:
            return "sat"
        if self.potential < self.uncovered:
            return "unsat"
        best = None
        for a in range(len(self.options)):
            if self.assured[a] == 0:
                if best is None or self.npos[a] < self.npos[best]:
                    best = a
                    if self.npos[a] <= 1:
                        break
        for cell, req in self.options[best]:
            if not self.dom[cell] & (1 << req):
                continue
            self.nodes += 1
            if self.nodes > self.budget.max_nodes:
                return "budget"
            mark = len(self.trail)
            self.units.clear()
            if self._fix(cell, req) and self._propagate():
                result = yield ()
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
    vertex or more than MAX_OPTIONS options (assignments times vertices)
    raise CapacityError before the search state is built.
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

    require_int("max_n", max_n)
    require_int("max_hatness", max_hatness)
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
