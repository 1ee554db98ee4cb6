"""The tests import ``cpi`` from ``src`` (``pythonpath`` in
``pyproject.toml``); the Python processes that some tests start find it
there too."""

import os
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))
