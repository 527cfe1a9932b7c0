"""Test-only reference: Algorithm 4's candidate pruning plans with their costs.

Production's :func:`~repro.algorithms.plan_optimizer.choose_plan`
returns the trivial plan without listing the candidates; its proof is
that every candidate costs at least the trivial plan.  This enumerator
lists and prices them on a :class:`~repro.facts.groups.GroupLattice`
(groups are ids, sets of groups are bitsets, ties are broken on the
lattice's ranks), so tests can check that proof and compare the
candidates against the ``FactGroup`` oracle in
``tests/algorithms/plan_oracle.py``.  A candidate is priced by the work
the one-pass gain kernel runs: every group's C_U, summed in id order
(the trivial plan's cost), plus its targets' C_D, added one by one in
target order.
"""

from __future__ import annotations

from repro.algorithms.cost_model import LatticeCosts, PruningPlan, keep_row
from repro.algorithms.plan_optimizer import _plan, _source_order
from repro.facts.groups import GroupLattice


def candidate_plans(
    lattice: GroupLattice,
    costs: LatticeCosts,
    sigma: float,
    max_source_prefix: int | None = None,
) -> list[tuple[PruningPlan, float]]:
    """Algorithm 4's candidate pruning plans, in order, with their estimated costs.

    ``costs`` holds the components of ``lattice``'s groups and ``sigma``
    the per-fact utility deviation; ``max_source_prefix`` optionally
    caps the number of source prefixes considered (keeps optimization
    overhead bounded for many groups).
    """
    utility, deviation, means = costs.utility, costs.deviation, costs.means
    trivial_cost = 0.0  # every group's gains are computed
    for join in utility:
        trivial_cost += join
    candidates = [(PruningPlan((), ()), trivial_cost)]
    size = lattice.size
    if size < 2:
        return candidates
    ordered = _source_order(lattice, costs)
    prefix_limit = size - 1
    if max_source_prefix is not None:
        prefix_limit = min(prefix_limit, max_source_prefix)

    specializations = lattice.specializations
    tie_rank = lattice.tie_rank
    # survive[t]: the product of 1 − Pr(P_{s→t}) over the sources so far,
    # so Pr(P_t) = 1 − survive[t].
    survive = [1.0] * size
    for prefix_length in range(1, prefix_limit + 1):
        sources = ordered[:prefix_length]
        alive = ordered[prefix_length:]
        keep = keep_row(means[ordered[prefix_length - 1]], means, sigma)
        survive = [s * k for s, k in zip(survive, keep)]
        pruned = [1.0 - s for s in survive]
        remaining = lattice.bitset(alive)
        cost = trivial_cost
        targets: list[int] = []
        while alive:
            # H(t, S, L), ties to the higher rank (no two ranks are equal).
            target = -1
            value = rank = -1.0
            for t in alive:
                h = pruned[t] * (specializations[t] & remaining).bit_count()
                if h > value or (h == value and tie_rank[t] > rank):
                    target, value, rank = t, h, tie_rank[t]
            targets.append(target)
            cost += deviation[target]
            candidates.append((_plan(lattice, sources, targets), cost))
            remaining &= ~specializations[target]
            alive = [t for t in alive if remaining >> t & 1]
    return candidates
