"""Pruning-plan generation and selection (Section VI-D, Algorithm 4).

Algorithm 4 generates a restricted set of candidate plans: sources are
prefixes of the groups sorted by ascending fact count (small groups
have higher expected per-fact utility), and targets are picked greedily
by the heuristic H(t, S, L) = Pr(P_t) · |{l ∈ L : t ⊆ l}| — the
expected number of groups removed when ``t`` is used as a target.
``OPT_PRUNE`` then returns the candidate with minimal estimated cost.
The trivial no-pruning plan is always a candidate, so the optimizer can
fall back to plain greedy when pruning is unlikely to pay off.

Both run on a :class:`~repro.facts.groups.GroupLattice` and its
groups' :class:`~repro.algorithms.cost_model.LatticeCosts`: groups are
ids, sets of groups are bitsets, ties are broken on the lattice's
ranks, and each source prefix's candidates are costed incrementally as
its targets are picked.  A candidate's cost is the module formula of
:mod:`~repro.algorithms.cost_model`, with Pr(¬P_g) the product of
1 − Pr(P_{s→t}) over every target ``t ⊆ g`` (in target order) and every
source (in source order), summed group by group in id order.  Appending
a target multiplies each specializing group's survival by that target's
factors, one at a time, so a growing target list is costed bit for bit
as a from-scratch evaluation costs it.

:func:`choose_plan` stops searching early without changing its answer.
Every cost component is non-negative, so a candidate costs at least its
sources' C_U plus its targets' C_D, and only a strictly cheaper
candidate replaces the best.  It skips a source prefix, and every
longer one, once the prefix's source cost plus the smallest C_D among
its candidate targets reaches the best cost so far; it stops growing a
target list once sources plus deviations so far reach it.  Both rest on
a float sum of non-negative terms never falling as terms are appended,
which holds for plain and for compensated (Python 3.12) summation.
:func:`candidate_plans` still lists every candidate.
"""

from __future__ import annotations

from repro.algorithms.cost_model import LatticeCosts, PruningPlan, keep_row
from repro.facts.groups import GroupLattice

#: A candidate plan by group ids: ``(sources, targets, estimated cost)``.
_Candidate = tuple[tuple[int, ...], tuple[int, ...], float]


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
    candidates: list[_Candidate] = []
    _optimize(lattice, costs, sigma, max_source_prefix, candidates)
    return [(_plan(lattice, sources, targets), cost) for sources, targets, cost in candidates]


def choose_plan(
    lattice: GroupLattice,
    costs: LatticeCosts,
    sigma: float,
    max_source_prefix: int | None = 4,
) -> PruningPlan:
    """OPT_PRUNE: the first candidate plan with minimal estimated cost."""
    return _plan(lattice, *_optimize(lattice, costs, sigma, max_source_prefix))


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


def _optimize(
    lattice: GroupLattice,
    costs: LatticeCosts,
    sigma: float,
    max_source_prefix: int | None,
    candidates: list[_Candidate] | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The first minimal-cost candidate's ids; ``candidates`` collects every candidate.

    Without ``candidates`` the search stops early (see the module docstring).
    """
    size = lattice.size
    utility, deviation, means = costs.utility, costs.deviation, costs.means
    best_cost = 0.0  # the trivial plan: every group survives
    for join in utility:
        best_cost += join
    best: tuple[tuple[int, ...], tuple[int, ...]] = ((), ())
    if candidates is not None:
        candidates.append(((), (), best_cost))
    if size < 2:
        return best
    ordered = _source_order(lattice, costs)
    prefix_limit = size - 1
    if max_source_prefix is not None:
        prefix_limit = min(prefix_limit, max_source_prefix)

    specializations = lattice.specializations
    tie_rank = lattice.tie_rank
    keeps: list[list[float]] = []
    # survive[t]: the product of 1 − Pr(P_{s→t}) over the sources so far,
    # so Pr(P_t) = 1 − survive[t].
    survive = [1.0] * size
    for prefix_length in range(1, prefix_limit + 1):
        sources = tuple(ordered[:prefix_length])
        alive = ordered[prefix_length:]
        source_cost = sum(utility[source] for source in sources)
        if candidates is None and source_cost + min(deviation[t] for t in alive) >= best_cost:
            # Every candidate of this prefix costs at least this much, and
            # a longer prefix adds sources and picks from fewer targets.
            break
        keep = keep_row(means[ordered[prefix_length - 1]], means, sigma)
        keeps.append(keep)
        survive = [s * k for s, k in zip(survive, keep)]
        pruned = [1.0 - s for s in survive]
        others = sorted(alive)
        remaining = lattice.bitset(alive)
        deviations: list[float] = []
        survival = [1.0] * size
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
            deviations.append(deviation[target])
            cost = source_cost + sum(deviations)
            if candidates is None and cost >= best_cost:
                break  # the survivors' terms only add, and so does a longer target list
            factors = [keep[target] for keep in keeps]
            specializing = specializations[target]
            for gid in others:
                if specializing >> gid & 1:
                    probability = survival[gid]
                    for factor in factors:
                        probability *= factor
                    survival[gid] = probability
                cost += survival[gid] * utility[gid]
            if candidates is not None:
                candidates.append((sources, tuple(targets), cost))
            if cost < best_cost:
                best_cost = cost
                best = sources, tuple(targets)
            remaining &= ~specializing
            alive = [t for t in alive if remaining >> t & 1]
    return best


def _source_order(lattice: GroupLattice, costs: LatticeCosts) -> list[int]:
    """Group ids by ascending fact count, ties broken by dimensions."""
    return sorted(range(lattice.size), key=list(zip(costs.counts, lattice.tie_rank)).__getitem__)


def _plan(lattice: GroupLattice, sources, targets) -> PruningPlan:
    groups = lattice.groups
    return PruningPlan(tuple(groups[s] for s in sources), tuple(groups[t] for t in targets))
