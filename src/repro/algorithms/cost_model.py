"""Cost model for pruning plans (Section VI-C).

A pruning plan consists of *source* groups (whose facts' utility gains
are computed first) and *target* groups (whose per-scope bounds are
compared against the best source gain).  The cost of executing
Algorithm 3 under a plan is estimated as

    Σ_{s∈S} C_U(s)  +  Σ_{t∈T} C_D(t)  +  Σ_{g∈G\\S} Pr(¬P_g)·C_U(g)

where ``C_U`` is the cost of the utility join for a group, ``C_D`` the
cost of its bound computation, and ``Pr(¬P_g)`` the probability that
group ``g`` survives pruning.  Following the paper, per-fact utilities
are modelled as normal random variables whose mean is inversely
proportional to the number of facts in the group (facts of small groups
cover more rows), with a shared variance σ²; pruning outcomes are
assumed independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.facts.groups import FactGroup
from repro.relational.planner import CostEstimator


def _standard_normal_cdf(x: float) -> float:
    """Φ(x) for the standard normal distribution."""
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


@dataclass(frozen=True)
class PruningPlan:
    """A pruning plan: source groups and (ordered) target groups."""

    sources: tuple[FactGroup, ...]
    targets: tuple[FactGroup, ...]

    @property
    def is_trivial(self) -> bool:
        """True for the no-pruning plan (no sources or no targets)."""
        return not self.sources or not self.targets

    def __repr__(self) -> str:
        src = ", ".join(repr(s) for s in self.sources) or "<none>"
        tgt = ", ".join(repr(t) for t in self.targets) or "<none>"
        return f"PruningPlan(sources=[{src}], targets=[{tgt}])"


class PruningCostModel:
    """Estimates the processing cost of a pruning plan.

    Parameters
    ----------
    fact_counts:
        Number of candidate facts per fact group (M(g) in the paper).
        Obtained either from catalog statistics or from the actual
        generated fact sets.
    cost_estimator:
        Provides C_U / C_D estimates from relation statistics.
    sigma:
        Standard deviation of the per-fact utility distribution
        (a fixed model parameter; the paper assumes a constant σ²).

    The components M(g), C_U, C_D and Pr(P_{s→t}) are memoized per
    model instance: plan selection asks for the same values many times.
    """

    def __init__(
        self,
        fact_counts: Mapping[FactGroup, int],
        cost_estimator: CostEstimator,
        sigma: float = 0.25,
    ):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self._fact_counts = dict(fact_counts)
        self._estimator = cost_estimator
        self._sigma = float(sigma)
        self._fact_count_memo: dict[FactGroup, int] = {}
        self._utility_cost_memo: dict[FactGroup, float] = {}
        self._deviation_cost_memo: dict[FactGroup, float] = {}
        self._prune_memo: dict[tuple[FactGroup, FactGroup], float] = {}

    # ------------------------------------------------------------------
    # Model components
    # ------------------------------------------------------------------
    def fact_count(self, group: FactGroup) -> int:
        """M(g): number of facts in the group (≥ 1)."""
        count = self._fact_count_memo.get(group)
        if count is None:
            count = self._fact_counts.get(group)
            if count is None:
                count = self._estimator.fact_count(group.dimensions)
            count = self._fact_count_memo[group] = max(1, count)
        return count

    def utility_cost(self, group: FactGroup) -> float:
        """C_U(g): cost of computing utility gains for all facts of ``g``."""
        cost = self._utility_cost_memo.get(group)
        if cost is None:
            cost = float(self._estimator.utility_cost(group.dimensions))
            self._utility_cost_memo[group] = cost
        return cost

    def deviation_cost(self, group: FactGroup) -> float:
        """C_D(g): cost of computing the per-scope bounds of ``g``."""
        cost = self._deviation_cost_memo.get(group)
        if cost is None:
            cost = float(self._estimator.deviation_cost(group.dimensions))
            self._deviation_cost_memo[group] = cost
        return cost

    def prune_probability(self, source: FactGroup, target: FactGroup) -> float:
        """Pr(P_{s→t}): probability the source's best gain dominates the target bound.

        Per-fact utilities are modelled as N(1/M(g), σ²); the difference
        of two independent normals is normal with variance 2σ², hence

            Pr(u_s > u_t) = Φ((1/M(s) − 1/M(t)) / (σ·√2)).
        """
        key = (source, target)
        probability = self._prune_memo.get(key)
        if probability is None:
            mean_source = 1.0 / self.fact_count(source)
            mean_target = 1.0 / self.fact_count(target)
            z = (mean_source - mean_target) / (self._sigma * math.sqrt(2.0))
            probability = self._prune_memo[key] = _standard_normal_cdf(z)
        return probability

    def target_prune_probability(self, target: FactGroup, sources: Sequence[FactGroup]) -> float:
        """Pr(P_t): probability that *some* source dominates the target."""
        if not sources:
            return 0.0
        survive = 1.0
        for source in sources:
            survive *= 1.0 - self.prune_probability(source, target)
        return 1.0 - survive

    def group_survival_probability(
        self,
        group: FactGroup,
        sources: Sequence[FactGroup],
        targets: Sequence[FactGroup],
    ) -> float:
        """Pr(¬P_g): probability that group ``g`` is *not* pruned.

        A group may be pruned through any target it specializes (``t ⊆ g``);
        pruning outcomes are assumed independent.
        """
        probability = 1.0
        for target in targets:
            if not group.is_specialization_of(target):
                continue
            for source in sources:
                probability *= 1.0 - self.prune_probability(source, target)
        return probability

    # ------------------------------------------------------------------
    # Plan cost
    # ------------------------------------------------------------------
    def plan_cost(self, plan: PruningPlan, groups: Sequence[FactGroup]) -> float:
        """Estimated total processing cost of Algorithm 3 under ``plan``."""
        sources = set(plan.sources)
        cost = sum(self.utility_cost(s) for s in plan.sources)
        cost += sum(self.deviation_cost(t) for t in plan.targets)
        for group in groups:
            if group in sources:
                continue
            survival = self.group_survival_probability(group, plan.sources, plan.targets)
            cost += survival * self.utility_cost(group)
        return cost
