"""The tests import ``cpi`` from ``src`` (``pythonpath`` in
``pyproject.toml``); the Python processes that some tests start find it
there too.  The ``shallow`` fixture runs a call under a recursion limit
only a little above the current depth; the ``renders`` fixture counts
the texts a call renders."""

import os
import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    filter(None, (SRC, os.environ.get("PYTHONPATH"))))


def _call_shallow(call, *args, **kwargs):
    """``call(*args, **kwargs)`` with the recursion limit set to the
    current frame depth plus 60, restored afterwards.  A call that
    recurses once per level of a 200-deep term then raises
    ``RecursionError``, whatever the default limit."""
    depth, frame = 0, sys._getframe()
    while frame is not None:
        depth, frame = depth + 1, frame.f_back
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(depth + 60)
    try:
        return call(*args, **kwargs)
    finally:
        sys.setrecursionlimit(limit)


@pytest.fixture
def shallow():
    """The helper :func:`_call_shallow`, for tests of walks that must not
    recurse along a term."""
    return _call_shallow


def _count_renders(call) -> int:
    """The number of calls of ``parser._render``, the walk under every
    ``render``, that ``call()`` makes."""
    from cpi import parser

    code = parser._render.__code__
    count = 0

    def profile(frame, event, arg):
        nonlocal count
        if event == "call" and frame.f_code is code:
            count += 1

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return count


@pytest.fixture
def renders():
    """The helper :func:`_count_renders`, for tests of work that must
    render no target."""
    return _count_renders
