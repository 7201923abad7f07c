"""A CLI invocation with the per-layer wrappers installed.

    python perfbench/traced_cli.py COUNTERS.json ARGS...

behaves like ``python -m gfaber.cli ARGS...`` and writes the layer
counters of the process to COUNTERS.json when it ends.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracing  # noqa: E402

if __name__ == "__main__":
    sys.exit(tracing.main_traced(sys.argv[1:]))
