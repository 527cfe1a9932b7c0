"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and
asserts the relationships the paper states.  Besides the timing
collected by pytest-benchmark, each benchmark prints the regenerated
rows/series, so ``pytest -s`` shows them.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Allow running the benchmarks without installing the package first.
_SRC = Path(__file__).resolve().parent.parent / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))


@pytest.fixture()
def record_result():
    """Echo an ExperimentResult's text report to stdout."""

    def _record(result) -> None:
        print()
        print(result.to_text())

    return _record
