"""Set-up probe: a fresh process that imports the CLI and builds the inputs.

Prints the monotonic clock (system-wide on Linux) once it is ready for the
first operation; ``run.py`` subtracts the time it started the process.

    python3 perfbench/probe.py WORKLOAD SEED
"""

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import arborium.cli  # noqa: E402,F401  the import is part of what is measured
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print(repr(time.monotonic()), flush=True)
