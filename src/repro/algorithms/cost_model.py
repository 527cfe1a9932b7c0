"""Cost model for pruning plans (Section VI-C).

A pruning plan consists of *source* groups (whose facts' utility gains
are computed first) and *target* groups (whose per-scope bounds are
compared against the best source gain).  The paper estimates the cost
of executing Algorithm 3 under a plan as

    Σ_{s∈S} C_U(s)  +  Σ_{t∈T} C_D(t)  +  Σ_{g∈G\\S} Pr(¬P_g)·C_U(g)

where ``C_U`` is the cost of the utility join for a group, ``C_D`` the
cost of its bound computation, and ``Pr(¬P_g)`` the probability that
group ``g`` survives pruning.  Here each greedy step computes every
fact's gain in one kernel pass whatever the plan
(:meth:`repro.core.kernel.FactScopeIndex.batch_gains`), so a pruned
group's gains are not skipped: the survivors' term charges every
non-source group its full C_U, and a plan costs

    Σ_{g∈G} C_U(g)  +  Σ_{t∈T} C_D(t),

the trivial plan's cost plus its targets' C_D
(:mod:`repro.algorithms.plan_optimizer`).  Following the paper,
per-fact utilities are modelled as normal random variables whose mean
is inversely proportional to the number of facts in the group (facts of
small groups cover more rows), with a shared variance σ²; Algorithm 4's
target heuristic reads the resulting pruning probabilities.

Plan generation reads each group's components as flat lists by lattice
id, a :class:`LatticeCosts`: :func:`lattice_costs` computes them for
one problem.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, NamedTuple, Sequence

from repro.facts.groups import FactGroup, GroupLattice
from repro.relational.catalog import combination_estimate
from repro.relational.planner import join_costs

_SQRT2 = math.sqrt(2.0)


def checked_sigma(sigma: float) -> float:
    """``sigma`` as a float; ValueError unless it is finite and positive.

    A NaN or infinite σ makes every pruning probability NaN or ½, so
    nothing is pruned and nothing says why.
    """
    sigma = float(sigma)
    if not (math.isfinite(sigma) and sigma > 0):
        raise ValueError(f"sigma must be finite and positive, got {sigma!r}")
    return sigma


def keep_row(mean: float, means: Sequence[float], sigma: float) -> list[float]:
    """1 − Pr(P_{s→t}) for a source of mean per-fact utility ``mean``, per target mean.

    Per-fact utilities are modelled as N(1/M(g), σ²); the difference of
    two independent normals is normal with variance 2σ², hence

        Pr(P_{s→t}) = Pr(u_s > u_t) = Φ((1/M(s) − 1/M(t)) / (σ·√2)),

    with Φ(x) = (1 + erf(x/√2)) / 2, the standard normal CDF.
    """
    scale = sigma * _SQRT2
    erf = math.erf
    return [1.0 - 0.5 * (1.0 + erf((mean - other) / scale / _SQRT2)) for other in means]


@dataclass(frozen=True)
class PruningPlan:
    """A pruning plan: source groups and (ordered) target groups."""

    sources: tuple[FactGroup, ...]
    targets: tuple[FactGroup, ...]

    def __repr__(self) -> str:
        src = ", ".join(repr(s) for s in self.sources) or "<none>"
        tgt = ", ".join(repr(t) for t in self.targets) or "<none>"
        return f"PruningPlan(sources=[{src}], targets=[{tgt}])"


class LatticeCosts(NamedTuple):
    """The cost-model components of a lattice's groups, by group id.

    ``counts[g]`` orders Algorithm 4's sources (the group's fact count,
    1 when unknown); ``utility[g]`` and ``deviation[g]`` are C_U and C_D;
    ``means[g]`` is 1/M(g), the mean per-fact utility.  C_U and C_D are
    never negative: plan choice rests on that.
    """

    counts: list[int]
    utility: list[float]
    deviation: list[float]
    means: list[float]


def lattice_costs(
    lattice: GroupLattice,
    fact_counts: Sequence[int],
    row_count: int,
    distinct_counts: Mapping[str, int],
) -> LatticeCosts:
    """One problem's components, in one pass over the lattice ids.

    ``fact_counts[g]`` is group ``g``'s number of candidate facts, so
    M(g) = max(1, fact_counts[g]); C_U and C_D come from the estimated
    combination count of the group's columns over ``row_count`` rows
    with ``distinct_counts`` (:func:`~repro.relational.planner.join_costs`).
    """
    utility: list[float] = []
    deviation: list[float] = []
    means: list[float] = []
    for group, count in zip(lattice.groups, fact_counts):
        combinations = combination_estimate(
            [distinct_counts.get(column, 0) for column in group.dimensions], row_count
        )
        join, bound = join_costs(row_count, combinations)
        utility.append(join)
        deviation.append(bound)
        means.append(1.0 / max(1, count))
    return LatticeCosts(list(fact_counts), utility, deviation, means)
