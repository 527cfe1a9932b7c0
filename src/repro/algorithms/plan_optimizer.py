"""Pruning-plan generation and selection (Section VI-D, Algorithm 4).

Algorithm 4 generates a restricted set of candidate plans: sources are
prefixes of the groups sorted by ascending fact count (small groups
have higher expected per-fact utility), and targets are picked greedily
by the heuristic H(t, S, L) = Pr(P_t) · |{l ∈ L : t ⊆ l}| — the
expected number of groups removed when ``t`` is used as a target.
``OPT_PRUNE`` then returns the candidate with minimal estimated cost.
The trivial no-pruning plan is always a candidate.

Candidates are generated on a :class:`~repro.facts.groups.GroupLattice`
and its groups' :class:`~repro.algorithms.cost_model.LatticeCosts`:
groups are ids, sets of groups are bitsets and ties are broken on the
lattice's ranks.  A candidate is priced by the work the one-pass gain
kernel runs (:mod:`~repro.algorithms.cost_model`): every group's C_U,
summed in id order (the trivial plan's cost), plus its targets' C_D,
added one by one in target order.
"""

from __future__ import annotations

from repro.algorithms.cost_model import LatticeCosts, PruningPlan, keep_row
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


def choose_plan() -> PruningPlan:
    """OPT_PRUNE: the first candidate plan with minimal estimated cost.

    That is the trivial plan, whatever the lattice, its costs, σ or the
    prefix cap, so no candidate is priced.  Proof: the trivial plan is
    the first candidate, priced c₀ = Σ_g C_U(g).  Every other candidate
    is priced c₀ + C_D(t₁) + … + C_D(t_k), added left to right.  Each
    C_D is non-negative, and a rounded float sum never falls below its
    left operand when the right one is non-negative (rounding is
    monotone and the left operand is representable), so each candidate
    costs at least c₀.  Only a strictly cheaper candidate would replace
    the first minimum.  :func:`candidate_plans` lists and prices them all.
    """
    return PruningPlan((), ())


def naive_plan(lattice: GroupLattice, costs: LatticeCosts, sigma: float) -> PruningPlan:
    """The simple strategy used by the "G-P" variant.

    It uses all fact groups for pruning in the order Algorithm 4 would
    consider them: the smallest group (fewest facts) is the single
    pruning source, every other group is a pruning target, ordered by
    the target-selection heuristic without discarding specializations.
    """
    if lattice.size < 2:
        return PruningPlan((), ())
    source, *rest = _source_order(lattice, costs)
    keep = keep_row(costs.means[source], costs.means, sigma)
    rest_bits = lattice.bitset(rest)
    specializations = lattice.specializations
    tie_rank = lattice.tie_rank
    targets = sorted(
        rest,
        key=lambda t: (
            -((1.0 - keep[t]) * (specializations[t] & rest_bits).bit_count()),
            tie_rank[t],
        ),
    )
    return _plan(lattice, (source,), targets)


def _source_order(lattice: GroupLattice, costs: LatticeCosts) -> list[int]:
    """Group ids by ascending fact count, ties broken by dimensions."""
    return sorted(range(lattice.size), key=list(zip(costs.counts, lattice.tie_rank)).__getitem__)


def _plan(lattice: GroupLattice, sources, targets) -> PruningPlan:
    groups = lattice.groups
    return PruningPlan(tuple(groups[s] for s in sources), tuple(groups[t] for t in targets))
