"""Shared setup for the benchmark harness.

Run with::

    pytest benchmarks/ --benchmark-only -s

``-s`` lets each benchmark print the paper-style table it regenerates
(Table I/II rows, the Figure 1-3 series). Without ``-s`` the numbers
are still asserted, just not displayed.
"""

from __future__ import annotations

import sys
from pathlib import Path

_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

import pytest

# The paper's pricing constants, re-exported for the bench modules.
from repro.scenarios import RE_BATCH, RE_ONLINE, RT_BATCH, RT_ONLINE  # noqa: F401


def emit(text: str) -> None:
    """Print a regenerated table (visible with ``pytest -s``)."""
    print()
    print(text)
    sys.stdout.flush()


@pytest.fixture(scope="session")
def spec_batch():
    from repro.workloads import spec_tasks

    return spec_tasks()
