"""Vectorized optimizer kernel: batch gain evaluation over fact scopes.

The greedy family of algorithms (Algorithm 2 and its pruned variants)
spends almost all of its time answering one question per iteration:
*what is the utility gain of every candidate fact against the current
expectation state?*  The per-fact path answers it with one NumPy
fancy-indexing round-trip per fact — O(|candidates|) interpreter
crossings per iteration.

:class:`FactScopeIndex` removes that overhead for one problem.  It
stores every candidate fact's scope rows in CSR form:

* ``row_indices`` — the concatenation of each fact's scope row indices,
* ``offsets`` — ``offsets[i]:offsets[i+1]`` slices fact ``i``'s rows,
* ``fact_ids`` — the owning fact id per flat entry (for ``bincount``),
* ``fact_errors`` — ``|fact.value − v_r|`` per flat entry, precomputed
  because neither fact values nor data values change during a solve,
* ``groups`` — the fact ids per restricted column combination, which
  the pruned-greedy variants evaluate group by group.

Only ``fact_errors`` (and the fact values) depend on the target column.

The fact generator already knows every fact's rows and groups and
hands them to :meth:`FactScopeIndex.from_rows`; :meth:`FactScopeIndex.build`
resolves them for hand-built fact lists.

With that layout, the gain of *all* facts under the closest-relevant-
value model is a single clipped subtraction over the flat arrays
followed by one ``np.bincount`` — no per-fact Python.  The pruned-greedy
variants make that pass once per greedy step and read from it the gains
of the facts they evaluate; the sampling baseline restricts it to the
sampled rows.

The greedy loop reads the same layout for several problems at once:
:class:`ScopeSegments` concatenates the facts of disjoint scopes over
one target (a walked dimension combination's scopes, or one problem's
index as a single segment), and a :class:`ScopeBatch` builds those
segments on first need and keeps only each solve's per-scope results.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, NamedTuple, Sequence

import numpy as np

from repro.core.model import Fact, SummarizationRelation

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.core.utility import ExpectationState

_EMPTY_INDICES = np.empty(0, dtype=np.intp)

#: A map from each restricted column combination to its fact ids, or a
#: function that returns it.
Groups = dict[tuple[str, ...], np.ndarray] | Callable[[], dict[tuple[str, ...], np.ndarray]]


def segment_sums(values: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Sum of each consecutive segment of ``values``, bit for bit ``float(segment.sum())``.

    ``np.add.reduce`` sums a segment as the identity 0.0 plus the
    pairwise sum of its elements, while ``np.add.reduceat`` starts from
    the segment's first element and adds the pairwise sum of the rest.
    Prefixing every segment with 0.0 makes the two the same sum, and
    gives an empty segment 0.0.
    """
    if sizes.size == 1:
        return np.add.reduce(values, keepdims=True)
    if not sizes.size:
        return np.empty(0)
    # Segment k's 0.0 goes before its values, k places further on.
    heads = np.zeros(sizes.size, dtype=np.intp)
    np.cumsum(sizes[:-1] + 1, out=heads[1:])
    padded = np.zeros(values.size + sizes.size)
    at_value = np.ones(padded.size, dtype=bool)
    at_value[heads] = False
    padded[at_value] = values
    return np.add.reduceat(padded, heads)


class ScopeSegments(NamedTuple):
    """The candidate facts of disjoint scopes over one target, in one CSR layout.

    Scope ``s`` owns the facts ``fact_starts[s]:fact_starts[s + 1]``
    and the next ``row_counts[s]`` rows of ``error``, the per-row error
    of the empty speech (the greedy loop lowers it in place).  Fact
    ``i`` owns the entries ``offsets[i]:offsets[i + 1]`` of ``rows``
    (positions in ``error``, inside its scope's rows), ``fact_ids`` and
    ``fact_errors`` (``|values[i] − v_r|``), laid out as
    :class:`FactScopeIndex` lays out one problem's facts.
    """

    fact_starts: np.ndarray
    row_counts: np.ndarray
    offsets: np.ndarray
    rows: np.ndarray
    fact_ids: np.ndarray
    fact_errors: np.ndarray
    values: np.ndarray
    error: np.ndarray


class ScopeBatch:
    """The problems of disjoint scopes over one target, solved together.

    ``segments`` builds their :class:`ScopeSegments` (one pass over
    every scope's entries).  :meth:`solved` runs a solver over them on
    first need and keeps only its result, per key: the segments are
    dropped as soon as it is made.  A problem of the batch names it
    with its scope's slot (:attr:`SummarizationProblem.batch`).
    """

    __slots__ = ("_segments", "_solutions")

    def __init__(self, segments: Callable[[], ScopeSegments]):
        self._segments = segments
        self._solutions: dict = {}

    def solved(self, key: Any, solve: Callable[[ScopeSegments], Any]) -> Any:
        """``solve(segments)``, made once per ``key``."""
        solution = self._solutions.get(key)
        if solution is None:
            solution = self._solutions[key] = solve(self._segments())
        return solution


def clipped_sums(
    ids: np.ndarray,
    rows: np.ndarray,
    fact_errors: np.ndarray,
    error: np.ndarray,
    num_facts: int,
) -> np.ndarray:
    """Per fact, the sum of ``max(error[rows[k]] − fact_errors[k], 0)`` over its entries ``k``.

    Entry ``k`` belongs to fact ``ids[k]``; each fact's entries are
    summed in the order given, so two calls listing a fact's entries in
    the same order return the same bits for it, whatever other facts'
    entries they list.
    """
    deltas = error[rows]
    deltas -= fact_errors
    np.maximum(deltas, 0.0, out=deltas)
    return np.bincount(ids, weights=deltas, minlength=num_facts)


class FactScopeIndex:
    """CSR index of candidate-fact scopes over one relation.

    Built for a summarization problem on first need (the problem owns
    it); all batch kernels are then pure NumPy passes over the flat
    arrays.  Under the closest-relevant-value expectation model the
    per-row gain of a fact is ``max(error[r] − |fact.value − v_r|, 0)``,
    so precomputing the fact errors makes every gain query a gather +
    clip + segmented sum.
    """

    __slots__ = (
        "facts",
        "row_indices",
        "offsets",
        "fact_ids",
        "fact_errors",
        "values",
        "supports",
        "_groups",
        "cache",
    )

    def __init__(
        self,
        facts: Sequence[Fact],
        row_indices: np.ndarray,
        offsets: np.ndarray,
        fact_ids: np.ndarray,
        fact_errors: np.ndarray,
        values: np.ndarray,
        groups: Groups,
    ):
        self.facts = facts
        self.row_indices = row_indices
        self.offsets = offsets
        self.fact_ids = fact_ids
        self.fact_errors = fact_errors
        self.values = values
        self.supports = offsets[1:] - offsets[:-1]
        self._groups = groups
        #: What summarizers derive from the fact structure and the rows,
        #: not the target (group order, prepared and chosen pruning
        #: plans); the problem generator hands the indexes of one
        #: predicate scope's targets one dict.
        self.cache: dict = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_rows(
        cls,
        relation: SummarizationRelation,
        facts: Sequence[Fact],
        values: np.ndarray,
        row_indices: np.ndarray,
        supports: np.ndarray,
        groups: Groups,
        fact_errors: np.ndarray | None = None,
    ) -> "FactScopeIndex":
        """Lay out facts whose scope rows are already known in CSR form.

        ``values[i]`` is fact ``i``'s value and ``supports[i]`` its row
        count; ``row_indices`` concatenates every fact's scope rows, each
        fact's in ascending order.  ``groups`` maps each restricted
        column combination (the sorted scope columns) to its fact ids,
        ascending, in the order the combinations first appear among
        ``facts``, or is a function that returns that map.  ``facts`` is
        only read when a summarizer needs a fact object, so it may build
        them lazily.  ``fact_errors`` are the entries' errors, when
        already known.
        """
        offsets = np.zeros(len(supports) + 1, dtype=np.intp)
        supports.cumsum(out=offsets[1:])
        row_indices = row_indices.astype(np.intp, copy=False)
        fact_ids = np.arange(len(supports), dtype=np.intp).repeat(supports)
        if fact_errors is None:
            fact_errors = values[fact_ids]
            fact_errors -= relation.target_values[row_indices]
            np.abs(fact_errors, out=fact_errors)
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
        return cls.from_rows(
            relation,
            facts,
            np.array([f.value for f in facts], dtype=float),
            np.concatenate(rows) if rows else _EMPTY_INDICES,
            np.array([r.size for r in rows], dtype=np.intp),
            groups,
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def groups(self) -> dict[tuple[str, ...], np.ndarray]:
        """The fact ids of each restricted column combination (see :meth:`from_rows`).

        An index given a function for them calls it on the first read:
        only the pruned greedy variants read them.
        """
        if callable(self._groups):
            self._groups = self._groups()
        return self._groups

    @property
    def num_facts(self) -> int:
        """Number of indexed facts."""
        return len(self.facts)

    def copies_of(self, fact_id: int) -> list[int]:
        """Ids of the facts equal to fact ``fact_id``, itself included.

        Summarizers retire a selected fact together with its copies, as
        a set of selected facts would.  Generated candidates (whose
        sequence declares ``distinct_scopes``) have no copies; otherwise
        only facts of equal value and support are compared as objects.
        """
        if getattr(self.facts, "distinct_scopes", False):
            return [fact_id]
        fact = self.facts[fact_id]
        alike = (self.values == self.values[fact_id]) & (
            self.supports == self.supports[fact_id]
        )
        alike[fact_id] = True
        return [int(j) for j in np.flatnonzero(alike) if self.facts[j] == fact]

    def segments(self, error: np.ndarray) -> ScopeSegments:
        """The index as one scope whose rows start at the per-row ``error``."""
        return ScopeSegments(
            np.array([0, self.num_facts]),
            np.array([error.size]),
            self.offsets,
            self.row_indices,
            self.fact_ids,
            self.fact_errors,
            self.values,
            error,
        )

    # ------------------------------------------------------------------
    # Batch gain kernels (closest-relevant-value model)
    # ------------------------------------------------------------------
    def batch_gains(self, error: np.ndarray) -> np.ndarray:
        """Utility gain of every fact against the per-row ``error`` vector.

        One flat pass: gather current errors, subtract the precomputed
        fact errors, clip at zero, and sum per fact via ``bincount``.
        """
        return clipped_sums(
            self.fact_ids, self.row_indices, self.fact_errors, error, self.num_facts
        )

    def sampled_gains(
        self, error: np.ndarray, row_mask: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Gains restricted to sampled rows, plus per-fact in-sample counts.

        ``row_mask`` marks the sampled rows; the sampling baseline scales
        the returned gains by ``support / in_sample_count`` itself.
        """
        selected = row_mask[self.row_indices]
        ids = self.fact_ids[selected]
        gains = clipped_sums(
            ids, self.row_indices[selected], self.fact_errors[selected], error, self.num_facts
        )
        counts = np.bincount(ids, minlength=self.num_facts)
        return gains, counts

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
