"""CLI tests run `python -m z3calc` in child processes; put the source tree
the tests import z3calc from on their PYTHONPATH too, so that
`python -m pytest` works from the repo root without setting it."""

import os
import sys
from pathlib import Path

import pytest

import z3calc

_SRC = str(Path(z3calc.__file__).resolve().parents[1])
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)


@pytest.fixture
def default_recursion_limit():
    """Run the test under the interpreter's default recursion limit."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)
