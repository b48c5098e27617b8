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

Fixing a cell is one removal of every other color.  The undo trail
holds one (cell, mask of removed colors) entry per removal, and every
count is a function of the domains, so undo recomputes it.  Each cell
keeps its referencing assignments in one list per color, so a removal
walks only the lists of the colors it removes and of the color it
fixes.  An assignment's two counts, its live options and the fixed
cells already guessing its color, are packed into one branch key,
live + stride * fixed with stride above every live count: the key is
below stride iff the assignment is uncovered, and is then its live
option count.  The branching pick is the first index of the key list's
minimum, found without a Python loop over the assignments.
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
        # order; per cell and color: the assignments whose own color it
        # is, in assignment order.
        self.options: list[list[tuple[int, int]]] = [[] for _ in range(total)]
        self.refs: list[list[list[int]]] = [
            [[] for _ in range(game.h(v))]
            for v, count in zip(verts, self.pattern_counts) for _ in range(count)
        ]
        colors = decode_block(game, 0, total)
        for i in range(len(verts)):
            cells = (self.cell_base[i] + pattern_indices(game, i, colors)).tolist()
            for a, (cell, own) in enumerate(zip(cells, colors[i].tolist())):
                self.options[a].append((cell, own))
                self.refs[cell][own].append(a)

        # Counts derived from the domains: per assignment its branch key
        # npos + stride * assured (live options, and fixed cells already
        # guessing its color); the assignments with no such cell; the
        # summed capacity of the cells with two or more colors.
        # Hatness-1 cells start fixed at color 0.
        self.stride = len(verts) + 1
        self.key = [len(verts)] * total
        for cell, dom in enumerate(self.dom):
            if dom == 1:
                for a in self.refs[cell][0]:
                    self.key[a] += self.stride
        self.uncovered = sum(k < self.stride for k in self.key)
        self.potential = sum(cap for dom, cap in zip(self.dom, self.cell_cap) if dom & (dom - 1))
        self.trail: list[tuple[int, int]] = []  # (cell, mask of removed colors)
        self.units: deque[int] = deque()
        self.nodes = 0

    @property
    def npos(self) -> list[int]:
        """Per assignment: its live options."""
        return [k % self.stride for k in self.key]

    @property
    def assured(self) -> list[int]:
        """Per assignment: the fixed cells guessing its color."""
        return [k // self.stride for k in self.key]

    # -- state updates ----------------------------------------------------

    def _remove(self, cell: int, mask: int) -> bool:
        """Drop the colors in a mask from a cell's domain; False on
        conflict.  Counts are updated even then: every False is undone
        before they are read."""
        old = self.dom[cell]
        gone = old & mask
        if not gone:
            return True
        dom = old ^ gone
        self.dom[cell] = dom
        self.trail.append((cell, gone))
        refs, key = self.refs[cell], self.key
        ok = dom != 0
        while gone:
            low = gone & -gone
            gone ^= low
            for a in refs[low.bit_length() - 1]:
                n = key[a] = key[a] - 1
                if n < 2:
                    if n == 0:
                        ok = False
                    else:
                        self.units.append(a)
        if dom and not dom & (dom - 1):
            self.potential -= self.cell_cap[cell]
            stride = self.stride
            for a in refs[dom.bit_length() - 1]:
                n = key[a]
                if n < stride:
                    self.uncovered -= 1
                key[a] = n + stride
        return ok

    def _undo(self, mark: int) -> None:
        """Restore the removed color masks down to the trail mark,
        reversing _remove's counts from the domain each removal left
        behind."""
        key, stride = self.key, self.stride
        while len(self.trail) > mark:
            cell, gone = self.trail.pop()
            dom = self.dom[cell]
            refs = self.refs[cell]
            if dom and not dom & (dom - 1):
                self.potential += self.cell_cap[cell]
                for a in refs[dom.bit_length() - 1]:
                    n = key[a] = key[a] - stride
                    if n < stride:
                        self.uncovered += 1
            self.dom[cell] = dom | gone
            while gone:
                low = gone & -gone
                gone ^= low
                for a in refs[low.bit_length() - 1]:
                    key[a] += 1

    def _propagate(self) -> bool:
        while self.units:
            a = self.units.popleft()
            n = self.key[a]
            if n == 0:
                return False
            if n != 1:
                continue
            for cell, req in self.options[a]:
                if self.dom[cell] & (1 << req):
                    if not self._remove(cell, ~(1 << req)):
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
        # Some key is below stride, and each such key is at least 1 (an
        # uncovered assignment without live options was a conflict), so
        # the minimum's first index is the first assignment with at most
        # one live option, or else the lowest-index one with the fewest.
        key = self.key
        best = key.index(min(key))
        for cell, req in self.options[best]:
            if not self.dom[cell] & (1 << req):
                continue
            self.nodes += 1
            if self.nodes > self.budget.max_nodes:
                return "budget"
            mark = len(self.trail)
            self.units.clear()
            if self._remove(cell, ~(1 << req)) and self._propagate():
                result = yield ()
                if result in ("sat", "budget"):
                    return result
            self._undo(mark)
            self.units.clear()
            if not (self._remove(cell, 1 << req) and self._propagate()):
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
