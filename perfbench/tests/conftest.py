"""Put the benchmark modules and the source tree on the path; pin streams.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import os
import sys

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
for path in (os.path.join(ROOT, "src"), BENCH):
    if path not in sys.path:
        sys.path.insert(0, path)

import gate  # noqa: E402

os.environ["OPLIMITS_WORKERS"] = str(gate.STREAMS)
