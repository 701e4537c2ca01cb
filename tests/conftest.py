"""Shared test setup.

Monte Carlo results depend on (seed, samples, stream count).  The stream
count defaults to 4 on every machine; pinning OPLIMITS_WORKERS to that value
keeps the suite independent of an override set in the caller's environment.
"""

import os

os.environ["OPLIMITS_WORKERS"] = "4"
