"""Record the verify workloads' reports, every field but `seconds`, for
seeds 0..31 at the default sizes into expected.json.  The benchmark
fails any later run whose report for one of these differs, so record
only at a commit whose verdicts are trusted.

    python3 perfbench/record_expected.py
"""

import json
import os
import sys
from pathlib import Path

from workloads import EXPECTED_FILE, SamplePlanar14, SweepTrefoil, report_fields

SEEDS = range(32)

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
jobs = len(os.sched_getaffinity(0))
recorded = {}
for cls in (SweepTrefoil, SamplePlanar14):
    for seed in SEEDS:
        workload = cls(seed)
        workload.setup()
        import hats

        (slot,) = workload.slots
        report = report_fields(slot.run(hats, jobs))
        recorded.setdefault(cls.name, {}).setdefault(str(slot.assignments), {})[str(seed)] = report
        print(cls.name, seed, report, flush=True)
EXPECTED_FILE.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")
