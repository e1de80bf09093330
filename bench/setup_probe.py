"""Time one set-up in a fresh interpreter: import relfrob, build the inputs.

    python3 bench/setup_probe.py <workload> <seed>

Prints the elapsed seconds scaled to the nominal machine speed
(``speed.py``), then the raw elapsed seconds.  ``run.py`` starts this
several times and reports the median as ``setup_s``.
"""

from time import perf_counter

START = perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import relfrob  # noqa: E402,F401
import workloads  # noqa: E402

workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
elapsed = perf_counter() - START
speed = workloads.Speed()
for _ in range(5):
    speed.sample()
print(elapsed * speed.factor(), elapsed)
