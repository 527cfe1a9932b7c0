"""The pair runner's verdict, on canned ``run.py`` result lines."""

from __future__ import annotations

import json

import pytest

from paired import compare, quartiles, verdict, worse_share

METRICS = [
    {"name": "setup_s", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "better": "higher", "bound": 0.2},
]


def line(setup_s: float, ops_per_s: float, failed: int = 0) -> dict:
    """A result line as ``run.py`` prints it last, parsed."""
    return json.loads(
        f'{{"correct": {json.dumps(failed == 0)}, "attempted": 100, '
        f'"failed": {failed}, "metrics": {{'
        f'"setup_s": {{"value": {setup_s}, "unit": "s"}}, '
        f'"ops_per_s": {{"value": {ops_per_s}, "unit": "1/s"}}}}}}'
    )


def rows_by_name(rows):
    return {row["name"]: row for row in rows}


def test_faster_change_wins_every_pair_and_passes():
    base = [line(0.19, 1000), line(0.20, 1010), line(0.18, 990)]
    change = [line(0.06, 1005), line(0.07, 1000), line(0.06, 1000)]
    rows, problems = verdict(base, change, METRICS)
    assert problems == []
    setup = rows_by_name(rows)["setup_s"]
    assert setup["wins"] == 3 and setup["pairs"] == 3
    assert setup["clear"]
    assert setup["base"][1] == pytest.approx(0.19)
    assert setup["change"][1] == pytest.approx(0.06)


def test_lower_is_better_regression_past_the_bound_fails():
    base = [line(0.20, 1000), line(0.20, 1000)]
    change = [line(0.26, 1000), line(0.26, 1000)]
    rows, problems = verdict(base, change, METRICS)
    assert rows_by_name(rows)["setup_s"]["regressed"]
    assert len(problems) == 1 and problems[0].startswith("setup_s")


def test_higher_is_better_regression_past_the_bound_fails():
    base = [line(0.20, 1000), line(0.20, 1000)]
    change = [line(0.20, 790), line(0.20, 790)]
    _, problems = verdict(base, change, METRICS)
    assert len(problems) == 1 and problems[0].startswith("ops_per_s")


def test_worse_within_the_bound_passes():
    base = [line(0.20, 1000), line(0.20, 1000)]
    change = [line(0.24, 850), line(0.24, 850)]
    rows, problems = verdict(base, change, METRICS)
    assert problems == []
    assert rows_by_name(rows)["setup_s"]["wins"] == 0
    assert rows_by_name(rows)["setup_s"]["worse_share"] == pytest.approx(0.2)


def test_any_failed_op_fails_the_verdict():
    base = [line(0.20, 1000), line(0.20, 1000)]
    change = [line(0.06, 1000), line(0.06, 1000, failed=2)]
    rows, problems = verdict(base, change, METRICS)
    assert rows == []
    assert problems == ["change run 1: 2 failed ops"]


def test_a_run_without_a_result_line_fails_the_verdict():
    broken = {"correct": False, "failed": None, "metrics": {}, "error": "Traceback"}
    _, problems = verdict([broken], [line(0.06, 1000)], METRICS)
    assert problems == ["parent run 0: Traceback"]


def test_medians_within_the_parents_iqr_are_not_clear():
    base = [line(0.10, 1000), line(0.20, 1000), line(0.30, 1000), line(0.40, 1000)]
    change = [line(0.25, 1000)] * 4
    setup = rows_by_name(compare(base, change, METRICS))["setup_s"]
    assert not setup["clear"]
    assert setup["wins"] == 2


def test_quartiles_and_worse_share():
    assert quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (1.5, 3.0, 4.5)
    assert worse_share(1.0, 0.5, "lower") == 0.0
    assert worse_share(1.0, 1.5, "lower") == pytest.approx(0.5)
    assert worse_share(1.0, 0.5, "higher") == pytest.approx(0.5)
