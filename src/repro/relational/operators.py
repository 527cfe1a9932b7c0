"""Relational selection: the one operator pre-processing is phrased in.

Each query scope of the paper's pre-processing selects the data rows
that match its dimension values (σ).  Production finds those rows on
cached column codes; :func:`select` is the row-level reference that
code is checked against, and the stage the end-to-end benchmark traces.
"""

from __future__ import annotations

from repro.relational.expressions import Predicate
from repro.relational.table import Table


def select(table: Table, predicate: Predicate, name: str | None = None) -> Table:
    """σ — return rows of ``table`` satisfying ``predicate``."""
    mask = predicate.evaluate(table)
    result = table.mask(mask)
    return result.renamed(name) if name else result
