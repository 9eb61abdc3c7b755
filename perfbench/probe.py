"""Set-up probe: ``python3 perfbench/probe.py WORKLOAD SEED``.

Does what a workload process does before its first experiment (imports,
model zoo, tuning-table load, first cluster build) and exits.  ``run.py``
times several of these fresh processes for ``setup_s``.
"""

import os
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(BENCH_DIR), "src"))

from workloads import make_workload  # noqa: E402

if __name__ == "__main__":
    make_workload(sys.argv[1], int(sys.argv[2])).ready()
