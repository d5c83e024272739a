"""Interpreters that the tests start import ``orliczval`` from ``src/`` as well.

``pythonpath = ["src"]`` in ``pyproject.toml`` serves this process only; the
entry-point and cold-import tests run ``python -m orliczval.cli`` and
``python -c`` in a child, which reads ``PYTHONPATH``.
"""

import os
from pathlib import Path

_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
