"""Set-up as a user pays it: a fresh process imports linkdelay and builds one workload's inputs.

    python3 perfbench/setup_child.py WORKLOAD SEED CONFIG_DIR

run.py starts this with ``src/`` on PYTHONPATH and times it from outside.
"""

import sys
from pathlib import Path

import workloads
from spans import NullTracer

workloads.build_deck(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]), NullTracer())
