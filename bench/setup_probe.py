"""One set-up of a workload in a fresh interpreter, for the setup_s metric.

Usage: python setup_probe.py WORKLOAD SEED WORKDIR

Imports factorlab, builds the workload's inputs and prints ``time.monotonic()``
once they are ready; the parent subtracts the time it started this process.
"""

import sys
import time
from pathlib import Path

from run import make_workload

make_workload(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
print(time.monotonic())
