"""Set-up probe: in a fresh process, time importing gedpower from the
checkout's ``src/`` and building one workload's inputs; print the seconds.

    python3 perfbench/probe.py <workload> <seed>
"""

import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
import gedpower  # noqa: E402,F401
from workloads import WORKLOADS  # noqa: E402

WORKLOADS[sys.argv[1]].build(int(sys.argv[2]))
print(perf_counter() - t0)
