"""Tests of the benchmark's own parts. Run: python3 -m pytest perfbench/tests"""

import sys
from pathlib import Path

# The package under test is imported from the checkout's src/.
_SRC = str(Path(__file__).resolve().parents[2] / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
