"""Time one set-up: import impactdp and build a workload's trees.

run.py starts this script in fresh processes, so the import is a real one:
    python3 perfbench/setup_probe.py <workload> <seed>
Prints the elapsed seconds.
"""

import sys
import time
from pathlib import Path

start = time.perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import workloads  # noqa: E402  (imports impactdp)

workloads.build(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - start))
