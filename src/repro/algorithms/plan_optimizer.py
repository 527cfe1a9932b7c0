"""Pruning-plan selection (Section VI-D, Algorithm 4).

Algorithm 4 generates a restricted set of candidate plans: sources are
prefixes of the groups sorted by ascending fact count (small groups
have higher expected per-fact utility), and targets are picked greedily
by the heuristic H(t, S, L) = Pr(P_t) · |{l ∈ L : t ⊆ l}| — the
expected number of groups removed when ``t`` is used as a target.
``OPT_PRUNE`` then returns the candidate with minimal estimated cost.
The trivial no-pruning plan is always a candidate.  Priced by the work
the one-pass gain kernel runs (:mod:`~repro.algorithms.cost_model`), no
candidate is cheaper, so :func:`choose_plan` returns the trivial plan
without listing the others; ``tests/algorithms/plan_candidates.py``
lists and prices them, the reference its proof is checked against.

:func:`naive_plan` (the "G-P" variant) works on a
:class:`~repro.facts.groups.GroupLattice` and its groups'
:class:`~repro.algorithms.cost_model.LatticeCosts`: groups are ids,
sets of groups are bitsets and ties are broken on the lattice's ranks.
"""

from __future__ import annotations

from repro.algorithms.cost_model import LatticeCosts, PruningPlan, keep_row
from repro.facts.groups import GroupLattice


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
    the first minimum.  ``tests/algorithms/plan_candidates.py`` lists and
    prices them all.
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
