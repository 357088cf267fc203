"""Put the program sources and the benchmark modules on ``sys.path``.

Run with ``python3 -m pytest perfbench/tests -q`` from the repository
root.
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent.parent / "src"))
sys.path.insert(0, str(HERE.parent))
