"""Pruning-plan generation and selection (Section VI-D, Algorithm 4).

Algorithm 4 generates a restricted set of candidate plans: sources are
prefixes of the groups sorted by ascending fact count (small groups
have higher expected per-fact utility), and targets are picked greedily
by the heuristic H(t, S, L) = Pr(P_t) · |{l ∈ L : t ⊆ l}| — the
expected number of groups removed when ``t`` is used as a target.
``OPT_PRUNE`` then returns the candidate with minimal estimated cost.
The trivial no-pruning plan is always a candidate, so the optimizer can
fall back to plain greedy when pruning is unlikely to pay off.

Both run on the groups' integer ids in a
:class:`~repro.algorithms.cost_model.CostedLattice`: sets of groups are
bitsets, ties are broken on precomputed ranks, and each source prefix's
candidates are costed incrementally as its targets are picked.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Iterator, Mapping, Sequence

from repro.algorithms.cost_model import CostedLattice, PlanCosting, PruningCostModel, PruningPlan
from repro.facts.groups import FactGroup, GroupLattice

#: A candidate plan by group ids: ``(sources, targets, estimated cost)``.
_Candidate = tuple[Sequence[int], Sequence[int], float]


def candidate_plans(
    groups: Sequence[FactGroup] | GroupLattice,
    fact_counts: Mapping[FactGroup, int],
    cost_model: PruningCostModel,
    max_source_prefix: int | None = None,
) -> list[tuple[PruningPlan, float]]:
    """Algorithm 4's candidate pruning plans, in order, with their estimated costs.

    Parameters
    ----------
    groups:
        All (distinct) fact groups with candidate facts, or their lattice.
    fact_counts:
        Number of facts per group, used to order source prefixes.
    cost_model:
        Supplies Pr(P_t) for the target-selection heuristic, and the costs.
    max_source_prefix:
        Optional cap on the number of source prefixes considered
        (keeps optimization overhead bounded for many groups).
    """
    lattice = CostedLattice(cost_model, groups)
    return [
        (_plan(lattice, sources, targets), cost)
        for sources, targets, cost in _candidates(lattice, fact_counts, max_source_prefix)
    ]


def _candidates(
    lattice: CostedLattice,
    fact_counts: Mapping[FactGroup, int],
    max_source_prefix: int | None,
) -> Iterator[_Candidate]:
    yield (), (), PlanCosting(lattice, ()).cost()
    ordered = _by_fact_count(lattice, fact_counts)
    if len(ordered) < 2:
        return
    prefix_limit = len(ordered) - 1
    if max_source_prefix is not None:
        prefix_limit = min(prefix_limit, max_source_prefix)

    # survive[t]: the product of 1 − Pr(P_{s→t}) over the sources so far,
    # so Pr(P_t) = 1 − survive[t].
    survive = [1.0] * lattice.size
    specializations = lattice.specializations
    tie_rank = lattice.tie_rank
    for prefix_length in range(1, prefix_limit + 1):
        keep = lattice.keep(ordered[prefix_length - 1])
        survive = [s * k for s, k in zip(survive, keep)]
        sources = ordered[:prefix_length]
        rest = ordered[prefix_length:]
        remaining = lattice.bitset(rest)
        costing = PlanCosting(lattice, sources)
        targets: list[int] = []
        while remaining:
            best_target = max(
                (t for t in rest if remaining >> t & 1),
                key=lambda t: (
                    (1.0 - survive[t]) * (specializations[t] & remaining).bit_count(),
                    tie_rank[t],
                ),
            )
            targets.append(best_target)
            costing.add_target(best_target)
            yield sources, tuple(targets), costing.cost()
            remaining &= ~specializations[best_target]


def _by_fact_count(lattice: CostedLattice, fact_counts: Mapping[FactGroup, int]) -> list[int]:
    """Group ids by ascending fact count, ties broken by dimensions."""
    groups = lattice.groups
    tie_rank = lattice.tie_rank
    return sorted(range(lattice.size), key=lambda g: (fact_counts.get(groups[g], 1), tie_rank[g]))


def _plan(lattice: CostedLattice, sources: Sequence[int], targets: Sequence[int]) -> PruningPlan:
    groups = lattice.groups
    return PruningPlan(tuple(groups[s] for s in sources), tuple(groups[t] for t in targets))


class PruningPlanOptimizer:
    """OPT_PRUNE: select the minimum-cost plan among Algorithm 4's candidates."""

    def __init__(self, cost_model: PruningCostModel, max_source_prefix: int | None = 4):
        self._cost_model = cost_model
        self._max_source_prefix = max_source_prefix

    def choose_plan(
        self,
        groups: Sequence[FactGroup] | GroupLattice,
        fact_counts: Mapping[FactGroup, int],
    ) -> PruningPlan:
        """Return the first candidate plan with minimal estimated cost."""
        lattice = CostedLattice(self._cost_model, groups)
        candidates = _candidates(lattice, fact_counts, self._max_source_prefix)
        sources, targets, _ = min(candidates, key=itemgetter(2))
        return _plan(lattice, sources, targets)

    def naive_plan(
        self,
        groups: Sequence[FactGroup] | GroupLattice,
        fact_counts: Mapping[FactGroup, int],
    ) -> PruningPlan:
        """The simple strategy used by the "G-P" variant.

        It uses all fact groups for pruning in the order Algorithm 4
        would consider them: the smallest group (fewest facts) is the
        single pruning source, every other group is a pruning target,
        ordered by the target-selection heuristic without discarding
        specializations.
        """
        lattice = CostedLattice(self._cost_model, groups)
        if lattice.size < 2:
            return PruningPlan((), ())
        source, *rest = _by_fact_count(lattice, fact_counts)
        keep = lattice.keep(source)
        rest_bits = lattice.bitset(rest)
        targets = sorted(
            rest,
            key=lambda t: (
                -((1.0 - keep[t]) * (lattice.specializations[t] & rest_bits).bit_count()),
                lattice.tie_rank[t],
            ),
        )
        return _plan(lattice, (source,), targets)
