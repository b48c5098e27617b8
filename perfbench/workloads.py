"""The benchmark's workloads: inputs made from a seed, the operations
timed on them, and the check of every operation's output.

A workload is a list of slots.  A slot is one operation on fixed inputs
(one verify call, or one solver call on one game document) with the
check of its output; a round runs every slot once.  Nothing here imports ``hats`` at module level, so a
set-up probe can start its clock before the program is imported.
"""

from __future__ import annotations

import json
import random
import time
from fractions import Fraction
from itertools import combinations_with_replacement
from pathlib import Path

# Reports of the verify workloads at the commit that defined this
# benchmark, keyed by workload, size and seed (see record_expected.py).
EXPECTED_FILE = Path(__file__).with_name("expected.json")

# The trefoil's twelve hatness-6 sages, named as the README promises
# (`L/`, `R/` gluing prefixes, petal index, clique vertex).
TREFOIL_SIXES = tuple(
    f"{side}/{petal}/v{v}"
    for side in ("L/L", "L/R", "R")
    for petal in (0, 1)
    for v in (1, 2)
)
FULL_TREFOIL = 8 * 6 ** 12


def _layers(import_s: float, elaborate_s: float = 0.0, check_s: float = 0.0) -> dict:
    return {"core.import_s": import_s, "dsl.elaborate_s": elaborate_s,
            "embedding.check_s": check_s}


def _import_hats():
    start = time.perf_counter()
    import hats
    import hats.dsl
    import hats.embedding
    return hats, time.perf_counter() - start


def report_fields(report) -> dict:
    doc = report.to_json()
    del doc["seconds"]
    return doc


class _VerifyWorkload:
    """A workload of one op, a verify call.  Its report must match the one
    recorded for the seed, or, for a seed without a record, be clean over
    the full size."""

    name = ""

    def __init__(self, seed: int):
        self.seed = seed
        self.label = self.name
        self.text = self.expression()
        self.slots: list = []

    def expression(self) -> str:
        raise NotImplementedError

    def certify(self, hats, composed) -> float:
        return 0.0

    def size(self, composed) -> int:
        raise NotImplementedError

    def setup(self) -> dict:
        hats, import_s = _import_hats()
        start = time.perf_counter()
        composed = hats.dsl.elaborate(hats.dsl.parse(self.text))
        elaborate_s = time.perf_counter() - start
        check_s = self.certify(hats, composed)
        self.composed = composed
        self.assignments = self.size(composed)
        recorded = json.loads(EXPECTED_FILE.read_text()).get(self.name, {})
        self.expected = recorded.get(str(self.assignments), {}).get(str(self.seed))
        self.slots = [self]
        return _layers(import_s, elaborate_s, check_s)

    def run(self, hats, jobs):
        raise NotImplementedError

    def decided(self, report) -> int:
        """The game's verdict comes from its construction."""
        return int(self.composed.verdict.status in ("winning", "losing"))

    def key(self, report) -> str:
        return json.dumps(report_fields(report))

    def check(self, hats, report):
        got = report_fields(report)
        if self.expected is not None:
            return None if got == self.expected else f"report {got} != recorded {self.expected}"
        if got["counterexample"] is not None:
            return f"counterexample {got['counterexample']}"
        if got["checked"] != self.assignments:
            return f"checked {got['checked']} of {self.assignments}"
        return None


class SweepTrefoil(_VerifyWorkload):
    """Exhaustive sweep of the trefoil with `lowered` of its twelve
    hatness-6 sages lowered to 2, chosen by the seed.

    Lowering keeps the whole strategy tree (cone, product, clique
    arithmetic, plus one majorization adapter) and all 13 decode digits,
    so each assignment costs what a full-trefoil assignment costs.
    """

    name = "sweep-trefoil"

    def __init__(self, seed: int, lowered: int = 8):
        self.lowered = lowered
        super().__init__(seed)

    def expression(self) -> str:
        chosen = sorted(random.Random(self.seed).sample(range(12), self.lowered))
        overrides = ", ".join(f'"{TREFOIL_SIXES[i]}"=2' for i in chosen)
        return f"lower(trefoil; {overrides})"

    def size(self, composed) -> int:
        return composed.game.color_space

    def run(self, hats, jobs):
        return hats.verify_exhaustive(self.composed.game, self.composed.strategy, jobs=jobs)


class SamplePlanar14(_VerifyWorkload):
    """Sampled verification of planar14, with the seed as the Philox key.

    Set-up includes the rotation-system (Euler) check that certifies the
    build is planar.
    """

    name = "sample-planar14"

    def __init__(self, seed: int, samples: int = 1 << 17):
        self.samples = samples
        super().__init__(seed)

    def expression(self) -> str:
        return "planar14"

    def certify(self, hats, composed) -> float:
        start = time.perf_counter()
        if not hats.embedding.is_planar_embedding(composed.game.graph, composed.rotation):
            raise RuntimeError("planar14 rotation system failed the Euler check")
        return time.perf_counter() - start

    def size(self, composed) -> int:
        return self.samples

    def run(self, hats, jobs):
        return hats.verify_sampled(self.composed.game, self.composed.strategy,
                                   self.samples, self.seed, jobs=jobs)


# ---------------------------------------------------------------------------
# Exact solving


def clique_doc(hatnesses) -> str:
    names = [f"v{i}" for i in range(len(hatnesses))]
    return json.dumps({
        "vertices": [{"name": v, "hatness": h} for v, h in zip(names, hatnesses)],
        "edges": [[a, b] for i, a in enumerate(names) for b in names[i + 1:]],
    })


def cycle_doc(n: int, hatness: int) -> str:
    names = [f"v{i}" for i in range(n)]
    return json.dumps({
        "vertices": [{"name": v, "hatness": hatness} for v in names],
        "edges": [[names[i], names[(i + 1) % n]] for i in range(n)],
    })


def solve_games(max_n: int = 3, max_hatness: int = 4, larger: bool = True):
    """(label, game document, budget, ground truth: True = winning).

    Complete graphs follow the criterion sum(1/h) >= 1; at 3 colors the
    4-cycle wins and the 5-cycle loses (Szczechla 2017).
    """
    games = []
    for n in range(1, max_n + 1):
        for hats in combinations_with_replacement(range(1, max_hatness + 1), n):
            games.append((f"clique{list(hats)}", clique_doc(hats), 50_000,
                          sum(Fraction(1, h) for h in hats) >= 1))
    if larger:
        games += [
            ("C4@3", cycle_doc(4, 3), 50_000, True),
            ("clique[3]*5", clique_doc([3] * 5), 50_000, True),
            ("clique[4]*4", clique_doc([4] * 4), 10_000, True),
            ("C5@3", cycle_doc(5, 3), 10_000, False),
            # Overflows the solver's recursion at the seed commit; its
            # budget sits just above that depth, so a fix adds no time.
            ("clique[3]*7", clique_doc([3] * 7), 1_000, True),
        ]
    return games


class SolveSlot:
    """One solver call on one game document; its verdict must agree with
    ground truth, and a winning table must sweep clean."""

    def __init__(self, label, game, budget, winning, solve):
        self.label = label
        self.game = game
        self.budget = budget
        self.winning = winning
        self.solve = solve
        self.assignments = game.color_space

    def run(self, hats, jobs):
        solve = self.solve or hats.solve_exact
        return solve(self.game, hats.SearchBudget(self.budget))

    @staticmethod
    def decided(result) -> int:
        return int(result.status in ("winning", "losing"))

    def key(self, result) -> str:
        return json.dumps(result.to_json())

    def check(self, hats, result):
        if result.status == "unknown":
            return None
        if (result.status == "winning") != self.winning:
            return f"verdict {result.status}, ground truth {'winning' if self.winning else 'losing'}"
        if result.status == "winning":
            report = hats.verify_exhaustive(self.game, result.strategy, jobs=1)
            if report.counterexample is not None:
                return f"winning table fails at {report.counterexample}"
        return None


class SolveSet:
    """`solve_exact` one game at a time over a fixed list of game
    documents, in an order shuffled by the seed."""

    name = "solve-set"

    def __init__(self, seed: int, games=None, solve=None):
        self.seed = seed
        self.games = list(solve_games() if games is None else games)
        random.Random(seed).shuffle(self.games)
        self.solve = solve
        self.slots: list = []

    def setup(self) -> dict:
        hats, import_s = _import_hats()
        self.slots = [
            SolveSlot(label, hats.load_game(doc)[0], budget, winning, self.solve)
            for label, doc, budget, winning in self.games
        ]
        return _layers(import_s)


WORKLOADS = {w.name: w for w in (SweepTrefoil, SamplePlanar14, SolveSet)}
