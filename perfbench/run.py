"""Benchmark for hats: times the public entry points behind `hats verify`
and `hats solve` on three workloads and checks every output.

    python3 perfbench/run.py --workload sweep-trefoil --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the program is imported from its
`src/`.  The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
with `--trace 0`, the per-layer metrics with `--trace 1` (README.md
defines each one).  Lines before it stamp the run; the full record,
spans included, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracing import ENTRY_POINTS, STRATEGY_KINDS, Tracer, instrument
from workloads import FULL_TREFOIL, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_SAMPLES = 7  # fresh interpreters per run: this one plus six probes
TIMED_ROUNDS = 3    # the least number of timed rounds with --trace 0


@dataclass
class Op:
    slot: object
    result: object
    error: str | None
    wall: float
    cpu: float
    faults: int
    switches: int


def timed(slot, api, jobs: int) -> Op:
    """Run one operation; an exception is recorded as its failure."""
    before = resource.getrusage(resource.RUSAGE_SELF)
    cpu0, wall0 = time.process_time(), time.perf_counter()
    result = error = None
    try:
        result = slot.run(api, jobs)
    except Exception as exc:  # noqa: BLE001 - a failing op is counted, not fatal
        error = f"{type(exc).__name__}: {exc}"
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    after = resource.getrusage(resource.RUSAGE_SELF)
    return Op(slot, result, error, wall, cpu, after.ru_minflt - before.ru_minflt,
              after.ru_nvcsw - before.ru_nvcsw)


def run_rounds(slots, api, jobs: int, seconds: float, min_rounds: int,
               between=None) -> list[list[Op]]:
    """Whole rounds over every slot, started until `seconds` of rounds
    have run; `between` runs after each round, outside the window."""
    rounds = []
    deadline = time.perf_counter() + seconds
    while len(rounds) < min_rounds or time.perf_counter() < deadline:
        rounds.append([timed(slot, api, jobs) for slot in slots])
        if between is not None:
            start = time.perf_counter()
            between()
            deadline += time.perf_counter() - start
    return rounds


def round_cost(rounds: list[list[Op]], field: str, slots=None,
               average=statistics.fmean) -> float:
    """One round's cost: the sum over slots of each slot's average over
    the rounds.  Times take the mean: the machine's speed drifts in spells
    of tens of seconds, and the mean over the whole window, which weighs
    every spell by its length, varies less from run to run than a median,
    which lands in whichever spell holds the middle round."""
    picked = range(len(rounds[0])) if slots is None else slots
    return sum(average(getattr(r[i], field) for r in rounds) for i in picked)


def gate(hats, ops: list[Op]) -> tuple[list[tuple[str, str]], bool]:
    """Check every execution of every op (slot).

    An op fails if any execution raised, gave a wrong output, or gave an
    output that differs from another execution of the same op (across
    rounds, job counts and tracing).  Returns the first failure of each
    failed op, and whether any output was wrong rather than raised.
    """
    failures: dict[int, tuple[str, str]] = {}
    wrong = False
    first: dict[int, object] = {}
    for op in ops:
        reason = op.error
        if reason is None:
            try:
                reason = op.slot.check(hats, op.result)
                key = op.slot.key(op.result)
            except Exception as exc:  # noqa: BLE001 - a failing check is a failed op
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is None and first.setdefault(id(op.slot), key) != key:
                reason = "output differs from an earlier run of the same op"
            wrong = wrong or reason is not None
        if reason is not None:
            failures.setdefault(id(op.slot), (op.slot.label, reason))
    return list(failures.values()), wrong


class SetupProbes:
    """Set-up times from fresh interpreters (`probe.py`), taken between
    rounds and spread over the run, so that they see the machine in more
    than one state.  The first sample is this interpreter's own set-up."""

    def __init__(self, workload, count: int, seconds: float):
        self.workload = workload
        self.count = count
        self.every = seconds / count
        start = time.perf_counter()
        self.samples = [workload.setup()]
        self.samples[0]["setup_s"] = time.perf_counter() - start
        self.last = time.perf_counter()

    def take(self) -> None:
        proc = subprocess.run(
            [sys.executable, str(HERE / "probe.py"), self.workload.name, str(self.workload.seed)],
            capture_output=True, text=True, timeout=120, check=True)
        self.samples.append(json.loads(proc.stdout.splitlines()[-1]))
        self.last = time.perf_counter()

    def between_rounds(self) -> None:
        if len(self.samples) < self.count and time.perf_counter() - self.last >= self.every:
            self.take()

    def medians(self) -> dict[str, float]:
        while len(self.samples) < self.count:
            self.take()
        return {key: statistics.median(s[key] for s in self.samples) for key in self.samples[0]}


def end_to_end(workload, rounds, setup) -> dict:
    wall = round_cost(rounds, "wall")
    decided = sum(op.slot.decided(op.result) for op in rounds[0] if op.error is None)
    return {
        "assignments_per_s": (sum(s.assignments for s in workload.slots) / wall, "1/s"),
        "wall_s": (wall, "s"),
        "cpu_s": (round_cost(rounds, "cpu"), "s"),
        "setup_s": (setup["setup_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "solve_decided": (decided, "count"),
    }


def per_layer(hats, nproc, phases, tracer, kinds, setup) -> tuple[dict, list, dict]:
    """Metrics of single layers from the untraced jobs=nproc and jobs=1
    phases and the traced jobs=1 phase; span metrics are per round.

    Also returns the summed self time of every traced layer next to the
    traced wall time, which it should match within the tracing overhead.
    """
    full, one, traced = phases
    self_s, calls = tracer.self_times()
    n = len(traced)
    metrics: dict = {}
    missing = []
    for kind in STRATEGY_KINDS:
        if kind in kinds:
            metrics[f"strategy.{kind}.self_s"] = (self_s.get(f"strategy.{kind}", 0.0) / n, "s")
            metrics[f"strategy.{kind}.calls"] = (calls.get(f"strategy.{kind}", 0) // n, "count")
        else:
            missing += [f"strategy.{kind}.self_s", f"strategy.{kind}.calls"]
    if kinds:
        metrics["strategy.self_s"] = (sum(v for k, v in self_s.items()
                                          if k.startswith("strategy.")) / n, "s")
    else:
        missing.append("strategy.self_s")
    gone = {layer for name, layer in ENTRY_POINTS.items() if not hasattr(hats, name)}
    if "verifier" in gone:
        missing.append("verifier.self_s")
    else:
        metrics["verifier.self_s"] = (self_s.get("verifier", 0.0) / n, "s")
    metrics["verifier.parallel_efficiency"] = (
        round_cost(one, "wall") / (nproc * round_cost(full, "wall")), "ratio")
    # Counts take the median, which leaves out the first round's
    # first-touch page faults.
    metrics["verifier.minor_faults"] = (
        round_cost(full, "faults", average=statistics.median), "count")
    metrics["verifier.voluntary_switches"] = (
        round_cost(full, "switches", average=statistics.median), "count")
    if "solver" in gone:
        missing += ["solver.nodes", "solver.nodes_per_s"]
    else:
        solved = [i for i, op in enumerate(full[0]) if hasattr(op.result, "nodes")]
        nodes = sum(full[0][i].result.nodes for i in solved)
        metrics["solver.nodes"] = (nodes, "count")
        metrics["solver.nodes_per_s"] = (
            nodes / round_cost(full, "wall", solved) if solved else 0.0, "1/s")
    for name in ("dsl.elaborate_s", "embedding.check_s", "core.import_s"):
        metrics[name] = (setup[name], "s")
    metrics["trace.overhead_s"] = (round_cost(traced, "wall") - round_cost(one, "wall"), "s")
    check = {"layer_self_s": sum(self_s.values()) / n,
             "traced_wall_s": sum(op.wall for r in traced for op in r) / n}
    return metrics, missing, check


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "hats").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_commit() -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree.  Git
    is asked only when the checkout has its own .git, so that nothing
    outside the checkout is read."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def bench(workload, seconds: float, trace: bool, setup_runs: int = SETUP_SAMPLES) -> dict:
    """Set up, time and check one workload; return the run's record."""
    probes = SetupProbes(workload, setup_runs, seconds)
    import hats
    import numpy

    if not Path(hats.__file__).resolve().is_relative_to(SRC):
        raise RuntimeError(f"imported hats from {hats.__file__}, not from {SRC}")
    nproc = len(os.sched_getaffinity(0))
    slots = workload.slots
    tracer = None
    if trace:
        full = run_rounds(slots, hats, nproc, seconds / 3, 1, probes.between_rounds)
        one = run_rounds(slots, hats, 1, seconds / 3, 1, probes.between_rounds)
        tracer = Tracer()
        with instrument(tracer, hats) as (kinds, api):
            traced = run_rounds(slots, api, 1, seconds / 3, 1, probes.between_rounds)
        phases = [full, one, traced]
        metrics, missing, trace_check = per_layer(hats, nproc, phases, tracer,
                                                  kinds, probes.medians())
    else:
        full = run_rounds(slots, hats, nproc, seconds, TIMED_ROUNDS, probes.between_rounds)
        phases = [full]
        metrics, missing, trace_check = end_to_end(workload, full, probes.medians()), [], None
    ops = [op for rounds in phases for r in rounds for op in r]
    failures, wrong = gate(hats, ops)
    record = {
        "correct": not wrong,
        "attempted": len(slots),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
        "stamp": {
            "workload": workload.name, "seed": workload.seed, "trace": int(trace),
            "seconds": seconds, "nproc": nproc, "jobs": [nproc, 1] if trace else [nproc],
            "rounds": [len(p) for p in phases], "executions": len(ops),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": git_commit(), "source_sha256": source_digest(),
        },
        "missing": missing,
        "failures": failures,
        "op_walls": [[[r[i].wall for r in rounds] for i in range(len(slots))]
                     for rounds in phases],
    }
    if workload.name == "sweep-trefoil":
        per_asg = round_cost(full, "cpu") / sum(s.assignments for s in slots)
        record["derived"] = {"full_trefoil_cpu_hours": FULL_TREFOIL * per_asg / 3600}
    if tracer is not None:
        record["trace_check"] = trace_check
        record["spans"] = tracer.spans
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "hats" / "__init__.py").is_file():
        print(f"error: no hats source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    record = bench(WORKLOADS[args.workload](args.seed), args.seconds, bool(args.trace))

    OUT.mkdir(exist_ok=True)
    out = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record) + "\n")
    for label, reason in record["failures"]:
        print(f"failed op {label}: {reason}", file=sys.stderr)
    print("stamp: " + json.dumps(record["stamp"]))
    for key in ("derived", "trace_check"):
        if key in record:
            print(f"{key}: " + json.dumps(record[key]))
    if record["missing"]:
        print("missing: " + json.dumps(record["missing"]))
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
