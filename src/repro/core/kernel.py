"""Vectorized optimizer kernel: batch gain evaluation over fact scopes.

The greedy family of algorithms (Algorithm 2 and its pruned variants)
spends almost all of its time answering one question per iteration:
*what is the utility gain of every candidate fact against the current
expectation state?*  The per-fact path answers it with one NumPy
fancy-indexing round-trip per fact — O(|candidates|) interpreter
crossings per iteration.

:class:`FactScopeIndex` removes that overhead.  It stores every
candidate fact's scope rows in CSR form, built once per problem:

* ``row_indices`` — the concatenation of each fact's scope row indices,
* ``offsets`` — ``offsets[i]:offsets[i+1]`` slices fact ``i``'s rows,
* ``fact_ids`` — the owning fact id per flat entry (for ``bincount``),
* ``fact_errors`` — ``|fact.value − v_r|`` per flat entry, precomputed
  because neither fact values nor data values change during a solve,
* ``groups`` — the fact ids per restricted column combination, which
  the pruned-greedy variants evaluate group by group.

The fact generator already knows every fact's rows and groups and
hands them to :meth:`FactScopeIndex.from_rows`; :meth:`FactScopeIndex.build`
resolves them for hand-built fact lists.

With that layout, the gain of *all* facts under the closest-relevant-
value model is a single clipped subtraction over the flat arrays
followed by one ``np.bincount`` — no per-fact Python.  Subset and
sampled variants reuse the same flat pass for the pruned-greedy and
sampling-baseline algorithms.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.model import Fact, SummarizationRelation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.utility import ExpectationState

_EMPTY_INDICES = np.empty(0, dtype=np.intp)


class FactScopeIndex:
    """CSR index of candidate-fact scopes over one relation.

    Built once per summarization problem (the problem owns it); all
    batch kernels are then
    pure NumPy passes over the flat arrays.  Under the closest-relevant-
    value expectation model the per-row gain of a fact is
    ``max(error[r] − |fact.value − v_r|, 0)``, so precomputing the fact
    errors makes every gain query a gather + clip + segmented sum.
    """

    __slots__ = (
        "facts",
        "row_indices",
        "offsets",
        "fact_ids",
        "fact_errors",
        "values",
        "supports",
        "groups",
    )

    def __init__(
        self,
        facts: Sequence[Fact],
        row_indices: np.ndarray,
        offsets: np.ndarray,
        fact_ids: np.ndarray,
        fact_errors: np.ndarray,
        values: np.ndarray,
        groups: dict[tuple[str, ...], np.ndarray],
    ):
        self.facts = list(facts)
        self.row_indices = row_indices
        self.offsets = offsets
        self.fact_ids = fact_ids
        self.fact_errors = fact_errors
        self.values = values
        self.supports = np.diff(offsets)
        self.groups = groups

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        relation: SummarizationRelation,
        facts: Sequence[Fact],
        rows: Sequence[np.ndarray],
        groups: dict[tuple[str, ...], np.ndarray],
    ) -> "FactScopeIndex":
        """Lay out facts whose scope rows are already known in CSR form.

        ``rows[i]`` lists fact ``i``'s scope rows in ascending order.
        ``groups`` maps each restricted column combination (the sorted
        scope columns) to its fact ids, ascending, in the order the
        combinations first appear among ``facts``.
        """
        facts = list(facts)
        offsets = np.zeros(len(facts) + 1, dtype=np.intp)
        np.cumsum([r.size for r in rows], out=offsets[1:])
        row_indices = (np.concatenate(rows) if rows else _EMPTY_INDICES).astype(
            np.intp, copy=False
        )
        fact_ids = np.repeat(np.arange(len(facts), dtype=np.intp), np.diff(offsets))
        values = np.array([f.value for f in facts], dtype=float)
        fact_errors = np.abs(values[fact_ids] - relation.target_values[row_indices])
        return cls(facts, row_indices, offsets, fact_ids, fact_errors, values, groups)

    @classmethod
    def build(cls, relation: SummarizationRelation, facts: Sequence[Fact]) -> "FactScopeIndex":
        """Resolve every fact's scope rows, then lay them out in CSR form.

        Facts are grouped by the dimension columns their scope restricts
        so each column combination is resolved with one grouping pass
        over the relation instead of one mask evaluation per fact.
        """
        facts = list(facts)
        rows: list[np.ndarray] = [_EMPTY_INDICES] * len(facts)
        by_columns: dict[tuple[str, ...], list[int]] = {}
        for i, fact in enumerate(facts):
            by_columns.setdefault(fact.scope.columns, []).append(i)
        for columns, members in by_columns.items():
            order, offsets, key_to_group = relation.group_segments(columns)
            for i in members:
                # Scope columns are sorted, so the sorted value tuple is
                # the grouping key directly.
                group = key_to_group.get(facts[i].scope.sorted_values)
                if group is not None:
                    rows[i] = order[offsets[group] : offsets[group + 1]]
        groups = {
            columns: np.array(members, dtype=np.intp) for columns, members in by_columns.items()
        }
        return cls.from_rows(relation, facts, rows, groups)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_facts(self) -> int:
        """Number of indexed facts."""
        return len(self.facts)

    @property
    def total_scope_rows(self) -> int:
        """Total flat entries (sum of per-fact scope sizes)."""
        return int(self.row_indices.size)

    def rows_of(self, fact_id: int) -> np.ndarray:
        """Scope row indices of fact ``fact_id`` (ascending)."""
        return self.row_indices[self.offsets[fact_id] : self.offsets[fact_id + 1]]

    def errors_of(self, fact_id: int) -> np.ndarray:
        """Per-row fact errors of fact ``fact_id``."""
        return self.fact_errors[self.offsets[fact_id] : self.offsets[fact_id + 1]]

    def copies_of(self, fact_id: int) -> list[int]:
        """Ids of the facts equal to fact ``fact_id``, itself included.

        Summarizers retire a selected fact together with its copies, as
        a set of selected facts would; only facts of equal value are
        compared as objects.
        """
        fact = self.facts[fact_id]
        same_value = self.values == self.values[fact_id]
        same_value[fact_id] = True
        return [int(j) for j in np.flatnonzero(same_value) if self.facts[j] == fact]

    # ------------------------------------------------------------------
    # Batch gain kernels (closest-relevant-value model)
    # ------------------------------------------------------------------
    def batch_gains(self, error: np.ndarray) -> np.ndarray:
        """Utility gain of every fact against the per-row ``error`` vector.

        One flat pass: gather current errors, subtract the precomputed
        fact errors, clip at zero, and sum per fact via ``bincount``.
        """
        deltas = error[self.row_indices] - self.fact_errors
        np.maximum(deltas, 0.0, out=deltas)
        return np.bincount(self.fact_ids, weights=deltas, minlength=self.num_facts)

    def subset_gains(self, fact_mask: np.ndarray, error: np.ndarray) -> np.ndarray:
        """Gains of the facts selected by ``fact_mask`` (others stay 0).

        Used by the pruned-greedy variants, which evaluate pruning
        sources first and surviving groups afterwards.
        """
        selected = fact_mask[self.fact_ids]
        ids = self.fact_ids[selected]
        deltas = error[self.row_indices[selected]] - self.fact_errors[selected]
        np.maximum(deltas, 0.0, out=deltas)
        return np.bincount(ids, weights=deltas, minlength=self.num_facts)

    def sampled_gains(
        self, error: np.ndarray, row_mask: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gains restricted to sampled rows, plus per-fact in-sample counts.

        ``row_mask`` marks the sampled rows; the sampling baseline scales
        the returned gains by ``support / in_sample_count`` itself.
        """
        selected = row_mask[self.row_indices]
        ids = self.fact_ids[selected]
        deltas = error[self.row_indices[selected]] - self.fact_errors[selected]
        np.maximum(deltas, 0.0, out=deltas)
        gains = np.bincount(ids, weights=deltas, minlength=self.num_facts)
        counts = np.bincount(ids, minlength=self.num_facts)
        return gains, counts

    def gain_of(self, fact_id: int, error: np.ndarray) -> float:
        """Gain of one fact (used by the lazy-greedy re-evaluation).

        Summed through a single-bin ``bincount`` so the accumulation
        order matches :meth:`batch_gains` exactly — lazy greedy's
        stale-bound argument needs re-evaluated gains to be bitwise
        replays of what the batch pass would produce, and pairwise
        ``sum()`` can differ from ``bincount`` in the last ulp.
        """
        lo = self.offsets[fact_id]
        hi = self.offsets[fact_id + 1]
        if lo == hi:
            return 0.0
        deltas = error[self.row_indices[lo:hi]] - self.fact_errors[lo:hi]
        np.maximum(deltas, 0.0, out=deltas)
        return float(
            np.bincount(np.zeros(deltas.size, dtype=np.intp), weights=deltas, minlength=1)[0]
        )

    def apply_fact(self, fact_id: int, state: "ExpectationState") -> float:
        """Apply fact ``fact_id`` to ``state`` in place; return the gain.

        Mirrors :meth:`UtilityEvaluator.apply_fact` but reuses the
        precomputed scope rows and fact errors.
        """
        lo = self.offsets[fact_id]
        hi = self.offsets[fact_id + 1]
        if lo == hi:
            return 0.0
        rows = self.row_indices[lo:hi]
        fact_err = self.fact_errors[lo:hi]
        improves = fact_err < state.error[rows]
        improved_rows = rows[improves]
        gain = float((state.error[improved_rows] - fact_err[improves]).sum())
        state.expected[improved_rows] = self.values[fact_id]
        state.error[improved_rows] = fact_err[improves]
        return gain
