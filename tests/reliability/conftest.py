"""Shared fixtures for the chaos/reliability tests.

Every test in this package runs against a clean failpoint registry:
the autouse fixture clears :data:`repro.reliability.FAILPOINTS` before
and after each test, so no injected fault can leak into the rest of
the suite (the registry is process-global by design).
"""

from __future__ import annotations

import pytest

from repro.reliability import FAILPOINTS
from repro.system.engine import VoiceQueryEngine

from tests.serving.conftest import append_table, make_config, make_engine  # noqa: F401


@pytest.fixture(autouse=True)
def _clean_failpoints():
    """No chaos bleeds between tests (or out of this package)."""
    FAILPOINTS.clear()
    yield
    FAILPOINTS.clear()


@pytest.fixture()
def engine(example_table) -> VoiceQueryEngine:
    """A pre-processed engine over the running-example table."""
    return make_engine(example_table)


@pytest.fixture()
def advanced_engine(example_table) -> VoiceQueryEngine:
    """The same engine with comparison/extremum answers enabled."""
    return make_engine(example_table, advanced=True)


@pytest.fixture()
def append_batch():
    """One append batch over the running-example schema."""
    return append_table([("East", "Winter", 55.0), ("North", "Summer", 44.0)])
