"""Let the CLI subprocesses import the same package source as the tests."""

import os
from pathlib import Path

import stablekit

_SRC = str(Path(stablekit.__file__).resolve().parent.parent)
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [_SRC, os.environ.get("PYTHONPATH")]))
