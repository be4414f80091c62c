"""Make ``import repro`` work when benchmark scripts run directly.

Mirrors ``examples/_bootstrap.py`` for the timing script ``perf.py``,
which is executed as a plain script rather than through pytest (pytest
runs get the path from the repository-root ``conftest.py``).
"""

import os
import sys

_SRC = os.path.abspath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
)
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
