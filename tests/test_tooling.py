"""The test configuration itself: checks that a misspelt mark cannot
silently deselect or skip a test, that the parallel sweep and the solver
are warning free in a fresh interpreter, that verifying writes nothing to stdout but
its report, in strict JSON, that a build's output does not depend on
the interpreter's hash seed, that the benchmark's verify workloads
still give the reports it recorded, that the package imports numpy
and the standard library only, that it reads every name it imports,
and that the verifier takes from the strategy module only the program,
the strategy base class and ``_settled``."""

import ast
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PYPROJECT = ROOT / "pyproject.toml"


def test_unknown_mark_fails_collection(tmp_path):
    test_file = tmp_path / "test_typo.py"
    test_file.write_text(
        "import pytest\n\n\n@pytest.mark.slwo\ndef test_marked():\n    pass\n"
    )
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(test_file)],
        capture_output=True, text=True, timeout=120, cwd=tmp_path,
    )
    # Exit code 2 is pytest's "interrupted": the module failed to collect.
    assert result.returncode == 2, result.stdout
    assert "Unknown pytest.mark.slwo" in result.stdout


def run_dev_mode(tmp_path, *args):
    """Python in development mode with every warning an error.  Warnings
    raised in the pool's threads or at interpreter exit (unclosed
    resources, threads left running) reach stderr here, out of reach of
    pytest's in-process warning filter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run([sys.executable, "-X", "dev", "-W", "error", *args],
                          capture_output=True, text=True, timeout=300, cwd=tmp_path, env=env)


def test_early_stopping_sweep_is_warning_free(tmp_path):
    # Everyone guesses 0, so the lowest counterexample is the first
    # assignment without a 0, index 3280 of 6561: the sweep stops early.
    script = (
        "from hats.core import Game, complete_graph\n"
        "from hats.strategy import TableStrategy\n"
        "from hats.verifier import verify_exhaustive\n"
        "names = tuple(f'v{i}' for i in range(8))\n"
        "game = Game(complete_graph(names), dict.fromkeys(names, 3))\n"
        "zeros = TableStrategy(game, {v: (0,) * 3 ** 7 for v in names})\n"
        "report = verify_exhaustive(game, zeros, jobs=2, chunk=16)\n"
        "assert report.checked == 3281, report\n"
    )
    result = run_dev_mode(tmp_path, "-c", script)
    assert (result.returncode, result.stderr) == (0, "")


def strict_json(text):
    """``text`` as one JSON document; NaN and Infinity, which json.dumps
    writes but JSON does not have, are refused."""
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_clean_cli_verify_is_warning_free(tmp_path):
    (tmp_path / "game.expr").write_text("game26666")
    result = run_dev_mode(tmp_path, "-m", "hats.cli", "verify", "game.expr", "--jobs", "2")
    assert (result.returncode, result.stderr) == (0, "")
    assert strict_json(result.stdout)["counterexample"] is None
    # planar14 keeps untabulated Selects, which run in the pool's threads;
    # a sampled verify is evidence only, so it exits 2 (unknown).
    (tmp_path / "planar14.expr").write_text("planar14")
    result = run_dev_mode(tmp_path, "-m", "hats.cli", "verify", "planar14.expr",
                          "--sample", "2048", "--jobs", "2")
    assert (result.returncode, result.stderr) == (2, "")
    assert strict_json(result.stdout)["counterexample"] is None


def test_clean_cli_solve_is_warning_free(tmp_path):
    # The 4-cycle wins at 3 colors (Szczechla 2017): a search several levels deep.
    names = [f"v{i}" for i in range(4)]
    doc = {"vertices": [{"name": v, "hatness": 3} for v in names],
           "edges": [[names[i], names[(i + 1) % 4]] for i in range(4)]}
    (tmp_path / "c4.json").write_text(json.dumps(doc))
    result = run_dev_mode(tmp_path, "-m", "hats.cli", "solve", "c4.json")
    assert (result.returncode, result.stderr) == (0, "")
    assert strict_json(result.stdout)["status"] == "winning"


def test_verifiers_write_nothing(capfd, trefoil_composed, planar14_composed):
    # Whatever reads a report from stdout must find nothing else there,
    # compiling the strategy on the first block included.
    from hats.strategy import adapt_majorized
    from hats.verifier import verify_exhaustive, verify_sampled

    game = trefoil_composed.game
    lowered = adapt_majorized(trefoil_composed.strategy,
                              {v: 2 if game.h(v) == 6 else game.h(v) for v in game.graph.vertices})
    capfd.readouterr()
    reports = [verify_exhaustive(lowered.game, lowered, jobs=2),
               verify_sampled(lowered.game, lowered, 4096, seed=1, jobs=2),
               verify_sampled(planar14_composed.game, planar14_composed.strategy, 2048, seed=2,
                              jobs=2)]
    assert capfd.readouterr() == ("", "")
    assert [r.counterexample for r in reports] == [None] * 3
    for report in reports:
        assert strict_json(report.dumps()) == report.to_json()


def test_build_is_byte_identical_across_hash_seeds(tmp_path):
    # Set iteration order differs between interpreters with different
    # hash seeds; the built document must not depend on it, on either
    # kind of gluing (products in the windmill, cones in the last).
    for text in ("planar14", "windmill(3, 5)",
                 "cone(clique[2, 2]; k5minus@A2/A3, game26666@O/\"0/v1\")"):
        (tmp_path / "game.expr").write_text(text)
        outputs = []
        for seed in ("0", "1"):
            env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=seed)
            result = subprocess.run([sys.executable, "-m", "hats.cli", "build", "game.expr"],
                                    capture_output=True, text=True, timeout=300, cwd=tmp_path,
                                    env=env)
            assert result.returncode == 0, (text, result.stderr)
            outputs.append(result.stdout)
        assert outputs[0] == outputs[1], text


def _bench_workloads():
    """perfbench/workloads.py, loaded from its file: the benchmark's inputs
    and the reports it recorded for them (read, never written, here)."""
    spec = importlib.util.spec_from_file_location("bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name,seeds", [("sweep-trefoil", range(32)), ("sample-planar14", (0, 1))],
                         ids=["sweep-trefoil", "sample-planar14"])
def test_bench_reports_match_the_recorded_ones(name, seeds):
    # A report that differs fails the benchmark as "outputs incorrect";
    # this fails first, in the test suite.
    import hats

    workloads = _bench_workloads()
    for seed in seeds:
        workload = workloads.WORKLOADS[name](seed)
        workload.setup()
        assert workload.expected is not None, (name, seed)
        for jobs in (1, 2):
            assert workloads.report_fields(workload.run(hats, jobs)) == workload.expected, (name, seed, jobs)


def test_bench_solve_set_checks_and_decides():
    # Every solver verdict the benchmark times must pass its check, and the
    # number decided within budget is a gated metric.
    import hats

    workload = _bench_workloads().SolveSet(0)
    workload.setup()
    decided = 0
    for slot in workload.slots:
        result = slot.run(hats, 1)
        assert slot.check(hats, result) is None, slot.label
        decided += slot.decided(result)
    assert len(workload.slots) == 39 and decided >= 36


def test_package_imports_numpy_and_the_stdlib_only():
    # hats has one runtime dependency; a new one must not slip in.
    foreign = set()
    for path in sorted((ROOT / "src" / "hats").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign |= {(path.name, name) for name in names
                        if name.split(".")[0] != "numpy" and name.split(".")[0] not in sys.stdlib_module_names}
    assert not foreign


def test_package_reads_every_name_it_imports():
    # A name bound by an import and never read is dead code; __init__.py
    # imports to re-export, so it is skipped.
    unused = set()
    for path in sorted((ROOT / "src" / "hats").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        bound = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                bound |= {a.asname or a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                bound |= {a.asname or a.name for a in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused |= {(path.name, name) for name in bound - read}
    assert not unused


def test_verifier_reads_the_strategy_module_through_the_program():
    # A sweep's digits come from Program.values alone: the verifier knows
    # no digit format of its own, so it imports no digit helper.
    path = ROOT / "src" / "hats" / "verifier.py"
    imports = [node for node in ast.walk(ast.parse(path.read_text(), str(path)))
               if isinstance(node, ast.ImportFrom) and "strategy" in (node.module or "")]
    assert [(node.level, node.module) for node in imports] == [(1, "strategy")]
    assert {alias.name for alias in imports[0].names} == {"Program", "Strategy", "_settled"}
