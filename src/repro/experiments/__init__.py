"""Experiment harness: one module per table / figure of the paper.

Every module exposes a ``run_*`` function that executes the experiment
on the synthetic datasets (scaled down so the whole suite runs on a
laptop) and returns an :class:`ExperimentResult` whose rows mirror the
rows/series of the corresponding table or figure.
``python -m repro.cli experiment NAME`` prints one, and
``tests/experiments/test_paper_claims.py`` asserts what the paper states
about each.
"""

from repro.experiments.runner import ExperimentResult, format_rows

__all__ = ["ExperimentResult", "format_rows"]
