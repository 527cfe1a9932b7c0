"""Per-group utility upper bounds (Section VI-B).

Adding a fact can at most reduce the deviation of the rows within its
scope to zero.  Summing the *current* deviation over each value
combination of a fact group therefore yields, for every fact in the
group, an upper bound on its utility gain.  The pruning mechanism
compares the maximum such bound of a *target* group against the best
realised gain of a *source* group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.core.utility import ExpectationState, UtilityEvaluator
from repro.facts.groups import FactGroup


@dataclass(frozen=True)
class GroupBound:
    """Utility-gain bounds for one fact group.

    ``per_scope`` maps each value combination (tuple in group-dimension
    order) to its bound; ``maximum`` is the largest of those (0.0 for an
    empty group).
    """

    group: FactGroup
    per_scope: dict[tuple, float]
    maximum: float


def group_utility_bounds(
    evaluator: UtilityEvaluator,
    group: FactGroup,
    state: ExpectationState | None = None,
) -> GroupBound:
    """Compute utility-gain bounds for every fact in ``group``.

    ``state`` captures the current greedy speech; bounds are computed
    against the current per-row deviation (against the prior when
    ``state`` is None).
    """
    per_scope = evaluator.group_deviation_bounds(list(group.dimensions), state)
    maximum = max(per_scope.values(), default=0.0)
    return GroupBound(group=group, per_scope=dict(per_scope), maximum=maximum)


def bounds_for_groups(
    evaluator: UtilityEvaluator,
    groups: Sequence[FactGroup],
    state: ExpectationState | None = None,
) -> dict[FactGroup, GroupBound]:
    """Bounds for several fact groups, keyed by group."""
    return {group: group_utility_bounds(evaluator, group, state) for group in groups}
