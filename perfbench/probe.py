"""Set-up probe: times one fresh interpreter from `import hats` to game
and strategy ready, and prints the layer times as one JSON line.

    python3 perfbench/probe.py <workload> <seed>
"""

import json
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]))
start = time.perf_counter()
layers = workload.setup()
layers["setup_s"] = time.perf_counter() - start
print(json.dumps(layers))
