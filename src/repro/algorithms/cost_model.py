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

from repro.facts.groups import FactGroup, GroupLattice
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

    M(g) is memoized per model instance; plan selection reads each
    group's components once through a :class:`CostedLattice`.
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

    def group_costs(self, group: FactGroup) -> tuple[float, float]:
        """``(C_U(g), C_D(g))``: the utility join's and the bound query's cost."""
        return self._estimator.group_costs(group.dimensions)

    def utility_cost(self, group: FactGroup) -> float:
        """C_U(g): cost of computing utility gains for all facts of ``g``."""
        return self.group_costs(group)[0]

    def deviation_cost(self, group: FactGroup) -> float:
        """C_D(g): cost of computing the per-scope bounds of ``g``."""
        return self.group_costs(group)[1]

    def prune_probability(self, source: FactGroup, target: FactGroup) -> float:
        """Pr(P_{s→t}): probability the source's best gain dominates the target bound.

        Per-fact utilities are modelled as N(1/M(g), σ²); the difference
        of two independent normals is normal with variance 2σ², hence

            Pr(u_s > u_t) = Φ((1/M(s) − 1/M(t)) / (σ·√2)).
        """
        return self._dominance(1.0 / self.fact_count(source), 1.0 / self.fact_count(target))

    def _dominance(self, mean_source: float, mean_target: float) -> float:
        z = (mean_source - mean_target) / (self._sigma * math.sqrt(2.0))
        return _standard_normal_cdf(z)

    # ------------------------------------------------------------------
    # Plan cost
    # ------------------------------------------------------------------
    def plan_cost(
        self, plan: PruningPlan, groups: Sequence[FactGroup] | GroupLattice
    ) -> float:
        """Estimated total processing cost of Algorithm 3 under ``plan``."""
        lattice = CostedLattice(self, groups)
        sources = [lattice.id_of(s) for s in plan.sources]
        targets = [lattice.id_of(t) for t in plan.targets]
        costing = PlanCosting(lattice, sources)
        for target in targets:
            costing.add_target(target)
        return costing.cost()


class CostedLattice:
    """A :class:`~repro.facts.groups.GroupLattice` with each group's cost-model components.

    ``groups``, ``ids``, ``size``, ``specializations`` and ``tie_rank``
    are the lattice's, read and never changed: a lattice passed in may
    be shared by every problem over its group set.  :meth:`id_of` adds a
    group from outside it to this view's own copies.  ``utility[g]`` and
    ``deviation[g]`` are C_U and C_D, costed once per group from one
    combination count.
    """

    bitset = staticmethod(GroupLattice.bitset)

    def __init__(self, model: PruningCostModel, groups: Sequence[FactGroup] | GroupLattice):
        lattice = groups if isinstance(groups, GroupLattice) else GroupLattice(groups)
        self._lattice = lattice
        self.groups = lattice.groups
        self.ids = lattice.ids
        self.size = lattice.size
        self.specializations = lattice.specializations
        self.tie_rank = lattice.tie_rank
        self._model = model
        self.utility: list[float] = []
        self.deviation: list[float] = []
        self._means: list[float] = []
        self._keep: dict[int, list[float]] = {}
        for group in self.groups:
            self._cost(group)

    def id_of(self, group: FactGroup) -> int:
        """The id of ``group``, adding it (and its costs) when it is new."""
        gid = self.ids.get(group)
        if gid is None:
            if self.ids is self._lattice.ids:
                # The first group from outside: stop reading the lattice's own lists.
                self.groups = list(self.groups)
                self.ids = dict(self.ids)
                self.specializations = list(self.specializations)
            gid = self.ids[group] = len(self.groups)
            self.groups.append(group)
            self.specializations.append(self._lattice.specializing(group))
            self._cost(group)
        return gid

    def _cost(self, group: FactGroup) -> None:
        utility, deviation = self._model.group_costs(group)
        self.utility.append(utility)
        self.deviation.append(deviation)
        self._means.append(1.0 / self._model.fact_count(group))

    def keep(self, source: int) -> list[float]:
        """1 − Pr(P_{s→t}) for every group ``t``, by id (all ids known so far)."""
        row = self._keep.get(source)
        if row is None:
            mean = self._means[source]
            dominance = self._model._dominance
            row = self._keep[source] = [1.0 - dominance(mean, other) for other in self._means]
        return row


class PlanCosting:
    """The cost of plans sharing one source list, as targets are appended.

    The cost is the module formula, with Pr(¬P_g) the product of
    1 − Pr(P_{s→t}) over every target ``t ⊆ g`` (in target order) and
    every source (in source order), summed group by group.  Appending a
    target multiplies each specializing group's survival by that
    target's factors, the same factors in the same order a from-scratch
    evaluation multiplies, so a growing target list is costed
    incrementally and bit for bit.
    """

    def __init__(self, lattice: CostedLattice, sources: Sequence[int]):
        self._lattice = lattice
        self._keeps = [lattice.keep(s) for s in sources]
        source_bits = lattice.bitset(sources)
        self._not_sources = ~source_bits
        self._others = [g for g in range(lattice.size) if not source_bits >> g & 1]
        self._source_cost = sum(lattice.utility[s] for s in sources)
        self._deviations: list[float] = []
        self._survival = [1.0] * lattice.size

    def add_target(self, target: int) -> None:
        """Append ``target`` to the plan's targets."""
        self._deviations.append(self._lattice.deviation[target])
        factors = [keep[target] for keep in self._keeps]
        survival = self._survival
        bits = self._lattice.specializations[target] & self._not_sources
        while bits:
            low = bits & -bits
            gid = low.bit_length() - 1
            bits ^= low
            probability = survival[gid]
            for factor in factors:
                probability *= factor
            survival[gid] = probability

    def cost(self) -> float:
        """Estimated cost of the plan with the targets appended so far."""
        cost = self._source_cost
        cost += sum(self._deviations)
        utility = self._lattice.utility
        survival = self._survival
        for gid in self._others:
            cost += survival[gid] * utility[gid]
        return cost
