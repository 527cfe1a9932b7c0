"""Test-only oracle: Algorithm 4 and the plan cost over ``FactGroup`` objects.

This is plan choice as it stood before it ran on integer group ids:
candidate targets are picked from a ``set`` of groups with
:meth:`FactGroup.is_specialization_of` tests, and every candidate is
costed from scratch, group by group, and the cheapest chosen.  The cost
is the shared-pass formula (:func:`plan_cost`): every group's C_U plus
the targets' C_D.  The production optimizer must list the same
candidates with bit-equal costs and choose the same plan.
:func:`paper_plan_cost` keeps the paper's formula, whose survivors'
term assumes a pruned group's gains are skipped.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.algorithms.cost_model import LatticeCosts, PruningPlan
from repro.facts.groups import FactGroup, GroupLattice
from tests.algorithms.cost_oracle import PruningCostModel


def model_costs(
    model: PruningCostModel, lattice: GroupLattice, fact_counts: Mapping[FactGroup, int]
) -> LatticeCosts:
    """``lattice``'s components under ``model``, in the production chooser's form.

    A group missing from ``fact_counts`` orders as count 1, and its
    1/M(g) comes from the model's estimate.
    """
    groups = lattice.groups
    return LatticeCosts(
        [fact_counts.get(group, 1) for group in groups],
        [model.utility_cost(group) for group in groups],
        [model.deviation_cost(group) for group in groups],
        [1.0 / model.fact_count(group) for group in groups],
    )


def target_prune_probability(
    model: PruningCostModel, target: FactGroup, sources: Sequence[FactGroup]
) -> float:
    """Pr(P_t): probability that *some* source dominates the target."""
    if not sources:
        return 0.0
    survive = 1.0
    for source in sources:
        survive *= 1.0 - model.prune_probability(source, target)
    return 1.0 - survive


def group_survival_probability(
    model: PruningCostModel,
    group: FactGroup,
    sources: Sequence[FactGroup],
    targets: Sequence[FactGroup],
) -> float:
    """Pr(¬P_g): the product over every target ``t ⊆ g`` and every source."""
    probability = 1.0
    for target in targets:
        if not group.is_specialization_of(target):
            continue
        for source in sources:
            probability *= 1.0 - model.prune_probability(source, target)
    return probability


def plan_cost(model: PruningCostModel, plan: PruningPlan, groups: Sequence[FactGroup]) -> float:
    """Estimated cost of Algorithm 3 under ``plan`` on the one-pass gain kernel.

    Each step computes every fact's gain whatever is pruned, so the
    sources' and the survivors' terms are every group's C_U, added in
    ``groups`` order; the targets' C_D follow, in target order.
    """
    cost = 0.0
    for group in groups:
        cost += model.utility_cost(group)
    for target in plan.targets:
        cost += model.deviation_cost(target)
    return cost


def paper_plan_cost(
    model: PruningCostModel, plan: PruningPlan, groups: Sequence[FactGroup]
) -> float:
    """The paper's Section VI-C estimate: a pruned group's C_U is skipped."""
    sources = set(plan.sources)
    cost = sum(model.utility_cost(s) for s in plan.sources)
    cost += sum(model.deviation_cost(t) for t in plan.targets)
    for group in groups:
        if group in sources:
            continue
        survival = group_survival_probability(model, group, plan.sources, plan.targets)
        cost += survival * model.utility_cost(group)
    return cost


def _target_value(
    model: PruningCostModel,
    target: FactGroup,
    sources: Sequence[FactGroup],
    remaining: set[FactGroup],
) -> float:
    """H(t, S, L): expected number of groups removed by target ``t``."""
    covered = sum(1 for g in remaining if g.is_specialization_of(target))
    return target_prune_probability(model, target, sources) * covered


def generate_candidate_plans(
    groups: Sequence[FactGroup],
    fact_counts: Mapping[FactGroup, int],
    model: PruningCostModel,
    max_source_prefix: int | None = None,
) -> list[PruningPlan]:
    """Algorithm 4's candidate plans, in order."""
    plans: list[PruningPlan] = [PruningPlan((), ())]
    ordered = sorted(groups, key=lambda g: (fact_counts.get(g, 1), g.dimensions))
    if len(ordered) < 2:
        return plans
    prefix_limit = len(ordered) - 1
    if max_source_prefix is not None:
        prefix_limit = min(prefix_limit, max_source_prefix)
    for prefix_length in range(1, prefix_limit + 1):
        sources = tuple(ordered[:prefix_length])
        remaining = set(ordered[prefix_length:])
        targets: list[FactGroup] = []
        while remaining:
            best_target = max(
                remaining,
                key=lambda t: (_target_value(model, t, sources, remaining), t.dimensions),
            )
            targets.append(best_target)
            plans.append(PruningPlan(sources, tuple(targets)))
            remaining = {g for g in remaining if not g.is_specialization_of(best_target)}
    return plans


def choose_plan(
    groups: Sequence[FactGroup],
    fact_counts: Mapping[FactGroup, int],
    model: PruningCostModel,
    max_source_prefix: int | None = 4,
) -> PruningPlan:
    """OPT_PRUNE: the first candidate with minimal cost."""
    candidates = generate_candidate_plans(groups, fact_counts, model, max_source_prefix)
    return min(candidates, key=lambda plan: plan_cost(model, plan, groups))


def naive_plan(
    groups: Sequence[FactGroup], fact_counts: Mapping[FactGroup, int], model: PruningCostModel
) -> PruningPlan:
    """G-P's plan: the smallest group as source, every other group a target."""
    if len(groups) < 2:
        return PruningPlan((), ())
    ordered = sorted(groups, key=lambda g: (fact_counts.get(g, 1), g.dimensions))
    sources = (ordered[0],)
    rest = ordered[1:]
    rest_set = set(rest)
    targets = sorted(
        rest, key=lambda t: (-_target_value(model, t, sources, rest_set), t.dimensions)
    )
    return PruningPlan(sources, tuple(targets))
