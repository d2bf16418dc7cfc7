"""The two-clock benchmark: five canonical workloads, end to end and per layer.

Run it with ``python -m bench`` from the repository root; see ``README.md``
in this directory.  The package makes ``src/`` importable itself, because
the PR driver's command line cannot set ``PYTHONPATH``.
"""

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if _SRC.is_dir() and str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))
