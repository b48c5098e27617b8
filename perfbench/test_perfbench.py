"""Tests of the benchmark itself, on tiny sizes.

    python3 -m pytest perfbench
"""

import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import run  # noqa: E402
from tracing import STRATEGY_KINDS, Tracer, instrument  # noqa: E402
from workloads import SamplePlanar14, SolveSet, SweepTrefoil, clique_doc, solve_games  # noqa: E402

END_TO_END = {"assignments_per_s", "wall_s", "cpu_s", "setup_s", "peak_rss_mb", "solve_decided"}


def tiny(name, seed=0, **kw):
    if name == "sweep-trefoil":
        return SweepTrefoil(seed, lowered=12)
    if name == "sample-planar14":
        return SamplePlanar14(seed, samples=512)
    return SolveSet(seed, games=solve_games(max_n=2, max_hatness=3, larger=False), **kw)


@pytest.mark.parametrize("name", ["sweep-trefoil", "sample-planar14", "solve-set"])
def test_smoke_end_to_end(name):
    record = run.bench(tiny(name), seconds=0.0, trace=False, setup_runs=1)
    assert record["correct"] and record["failed"] == 0
    assert set(record["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in record["metrics"].values())
    assert record["stamp"]["executions"] == run.TIMED_ROUNDS * record["attempted"]


@pytest.mark.parametrize("name", ["sweep-trefoil", "sample-planar14", "solve-set"])
def test_smoke_traced(name):
    record = run.bench(tiny(name), seconds=0.0, trace=True, setup_runs=1)
    assert record["correct"] and record["failed"] == 0
    assert not record["missing"]
    metrics = {k: m["value"] for k, m in record["metrics"].items()}
    for kind in STRATEGY_KINDS:
        assert f"strategy.{kind}.calls" in metrics
    if name == "solve-set":
        assert metrics["solver.nodes"] > 0 and metrics["strategy.self_s"] == 0
    else:
        assert metrics["strategy.clique-arith.calls"] > 0 and metrics["solver.nodes"] == 0
    check = record["trace_check"]
    assert 0 < check["layer_self_s"] <= check["traced_wall_s"]


def test_verify_reports_match_recorded_seed():
    workload = SamplePlanar14(14)
    workload.setup()
    assert workload.expected == {"mode": "sampled", "checked": 1 << 17,
                                          "counterexample": None, "min_correct": 3}


def _flip_one_entry(hats):
    def solve(game, budget):
        result = hats.solve_exact(game, budget)
        v = game.graph.vertices[0]
        table = list(result.strategy.tables[v])
        table[0] = (table[0] + 1) % game.h(v)
        tables = dict(result.strategy.tables, **{v: tuple(table)})
        return type(result)(result.status, type(result.strategy)(game, tables), result.nodes)
    return solve


def test_corrupted_table_is_a_failed_op():
    import hats

    # clique[2, 2] is covered exactly once per assignment, so any flipped
    # entry leaves an assignment nobody guesses.
    games = [("clique[2, 2]", clique_doc([2, 2]), 100, True),
             ("clique[1]", clique_doc([1]), 100, True)]
    record = run.bench(SolveSet(0, games=games, solve=_flip_one_entry(hats)),
                       seconds=0.0, trace=False, setup_runs=1)
    assert record["attempted"] == 2 and record["failed"] == 1
    assert not record["correct"]
    assert record["failures"][0][0] == "clique[2, 2]"


def test_raising_op_is_a_failed_op():
    import hats

    def solve(game, budget):
        if len(game.graph.vertices) == 2:
            raise RecursionError("maximum recursion depth exceeded")
        return hats.solve_exact(game, budget)

    record = run.bench(tiny("solve-set", solve=solve), seconds=0.0, trace=False, setup_runs=1)
    pairs = sum(1 for label, *_ in solve_games(2, 3, larger=False) if label.count(",") == 1)
    assert record["failed"] == pairs and record["attempted"] == 9
    assert record["correct"]  # raised, but no output was wrong
    assert record["metrics"]["solve_decided"]["value"] == 9 - pairs


def test_output_that_changes_between_runs_is_a_failed_op():
    import hats

    calls = []

    def solve(game, budget):
        calls.append(1)
        result = hats.solve_exact(game, budget)
        return type(result)(result.status, result.strategy, result.nodes + len(calls))

    games = [("clique[2, 2]", clique_doc([2, 2]), 100, True)]
    record = run.bench(SolveSet(0, games=games, solve=solve), seconds=0.0, trace=False,
                       setup_runs=1)
    assert record["failed"] == 1 and not record["correct"]
    assert "differs" in record["failures"][0][1]


def test_instrument_tolerates_missing_layers():
    with instrument(Tracer(), types.SimpleNamespace()) as (kinds, api):
        assert kinds == set()
        with pytest.raises(AttributeError):
            api.verify_exhaustive


def test_self_time_excludes_children():
    tracer = Tracer()
    inner = tracer.wrap(lambda: None, "inner")
    outer = tracer.wrap(lambda: inner(), "outer")
    outer()
    self_s, calls = tracer.self_times()
    (_, start, end, _, _), (_, istart, iend, parent, _) = tracer.spans
    assert parent == 0 and calls == {"outer": 1, "inner": 1}
    assert self_s["outer"] == pytest.approx((end - start) - (iend - istart))
