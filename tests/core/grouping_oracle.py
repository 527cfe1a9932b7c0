"""Test-only oracle: one column combination's row grouping, sorted on its own.

This is :meth:`SummarizationRelation.group_layout` as it stood before
every combination of a problem was grouped in one batched pass: one
stable sort per combination on its mixed-radix codes (``lexsort`` on the
columns' codes past the int64 radix), runs renumbered by first
appearance.  The batched pass must give the same ``(inverse, order,
offsets)`` for every combination.
"""

from __future__ import annotations

import numpy as np

from repro.core.model import GroupLayout, SummarizationRelation


def group(relation: SummarizationRelation, columns: tuple[str, ...]) -> GroupLayout:
    """``relation``'s rows grouped by ``columns``, groups in first-appearance order."""
    n = relation.num_rows
    if not columns:
        return np.zeros(n, dtype=np.int64), np.arange(n), np.array([0, n], dtype=np.intp)
    if n == 0:
        return np.zeros(0, dtype=np.int64), np.arange(0), np.zeros(1, dtype=np.intp)
    per_column = [relation.dimension_codes(c) for c in columns]
    radix_product = 1
    for _, decode, _ in per_column:
        radix_product *= max(len(decode), 1)
    starts_run = np.empty(n, dtype=bool)
    starts_run[0] = True
    if radix_product > 2**62:
        perm = np.lexsort([codes for codes, _, _ in reversed(per_column)])
        starts_run[1:] = False
        for codes, _, _ in per_column:
            ordered = codes[perm]
            starts_run[1:] |= ordered[1:] != ordered[:-1]
    else:
        combined = per_column[0][0]
        for codes, decode, _ in per_column[1:]:
            combined = combined * len(decode) + codes
        perm = np.argsort(combined, kind="stable")
        ordered = combined[perm]
        np.not_equal(ordered[1:], ordered[:-1], out=starts_run[1:])
    starts = np.flatnonzero(starts_run)
    appearance = np.argsort(perm[starts])
    rank = np.empty(starts.size, dtype=np.int64)
    rank[appearance] = np.arange(starts.size)
    inverse = np.empty(n, dtype=np.int64)
    inverse[perm] = rank[np.cumsum(starts_run) - 1]
    counts = np.diff(np.append(starts, n))[appearance]
    offsets = np.zeros(starts.size + 1, dtype=np.intp)
    np.cumsum(counts, out=offsets[1:])
    shift = np.repeat(starts[appearance] - offsets[:-1], counts)
    order = perm[np.arange(n) + shift]
    return inverse, order, offsets
