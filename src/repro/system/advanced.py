"""Extension: comparison and extremum queries.

The deployment analysis (Section VIII-D) shows that the unsupported
data-access queries are mostly *relative comparisons* ("make a
comparison between job satisfaction between men and women") and
*extrema* ("which airline has the highest cancellation rate").  The
paper leaves these for future work; this module adds them on top of the
existing machinery so the engine can answer all three query shapes of
Figure 9(b):

* a :class:`ComparisonAnswerer` contrasts two data subsets on the same
  target column;
* an :class:`ExtremumAnswerer` reports the dimension value with the
  highest (or lowest) average target value, together with the runner-up
  for context.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.model import Scope, SummarizationRelation
from repro.relational.table import Table
from repro.system.templates import SpeechRealizer


@dataclass(frozen=True)
class SubsetSummary:
    """Average target value (and support) for one compared subset."""

    predicates: tuple[tuple[str, Any], ...]
    average: float
    support: int

    def describe(self) -> str:
        if not self.predicates:
            return "overall"
        return ", ".join(f"{column} {value}" for column, value in self.predicates)


@dataclass
class ComparisonAnswer:
    """Answer to a comparison query."""

    target: str
    first: SubsetSummary
    second: SubsetSummary
    text: str

    @property
    def ratio(self) -> float | None:
        """Ratio first/second (None when the second average is zero)."""
        if self.second.average == 0:
            return None
        return self.first.average / self.second.average


@dataclass
class ExtremumAnswer:
    """Answer to an extremum query."""

    target: str
    dimension: str
    best_value: Any
    best_average: float
    runner_up_value: Any | None
    runner_up_average: float | None
    maximize: bool
    text: str


class _RelationCache:
    """Lazily built summarization relations per target column."""

    def __init__(self, table: Table, dimensions: tuple[str, ...]):
        self._table = table
        self._dimensions = dimensions
        self._cache: dict[str, SummarizationRelation] = {}

    def get(self, target: str) -> SummarizationRelation:
        relation = self._cache.get(target)
        if relation is None:
            relation = SummarizationRelation(self._table, list(self._dimensions), target)
            self._cache[target] = relation
        return relation


class ComparisonAnswerer:
    """Answers "compare <target> between A and B" questions."""

    def __init__(
        self,
        table: Table,
        dimensions: tuple[str, ...],
        realizer: SpeechRealizer | None = None,
    ):
        self._relations = _RelationCache(table, dimensions)
        self._realizer = realizer or SpeechRealizer()

    def compare(
        self,
        target: str,
        first_predicates: Mapping[str, Any],
        second_predicates: Mapping[str, Any],
    ) -> ComparisonAnswer | None:
        """Compare the target's average between two data subsets.

        Returns None when either subset is empty.
        """
        relation = self._relations.get(target)
        first = self._summarize_subset(relation, first_predicates)
        second = self._summarize_subset(relation, second_predicates)
        if first is None or second is None:
            return None
        text = self._comparison_text(target, first, second)
        return ComparisonAnswer(target=target, first=first, second=second, text=text)

    def _summarize_subset(
        self, relation: SummarizationRelation, predicates: Mapping[str, Any]
    ) -> SubsetSummary | None:
        average, support = relation.average_target(Scope(dict(predicates)))
        if support == 0:
            return None
        return SubsetSummary(
            predicates=tuple(sorted(predicates.items())),
            average=float(average),
            support=support,
        )

    def _comparison_text(
        self, target: str, first: SubsetSummary, second: SubsetSummary
    ) -> str:
        value_a = self._realizer.format_value(target, first.average)
        value_b = self._realizer.format_value(target, second.average)
        subject = self._realizer.subject(target)
        if first.average > second.average:
            relation_word = "higher than"
        elif first.average < second.average:
            relation_word = "lower than"
        else:
            relation_word = "the same as"
        return (
            f"{subject.capitalize()} is {value_a} for {first.describe()}, "
            f"{relation_word} the {value_b} for {second.describe()}."
        )


class ExtremumAnswerer:
    """Answers "which <dimension> has the highest <target>" questions."""

    def __init__(
        self,
        table: Table,
        dimensions: tuple[str, ...],
        realizer: SpeechRealizer | None = None,
        min_support: int = 1,
    ):
        self._relations = _RelationCache(table, dimensions)
        self._dimensions = dimensions
        self._realizer = realizer or SpeechRealizer()
        self._min_support = min_support

    def extremum(
        self,
        target: str,
        dimension: str,
        maximize: bool = True,
        base_predicates: Mapping[str, Any] | None = None,
    ) -> ExtremumAnswer | None:
        """Find the dimension value with the extreme average target value.

        ``base_predicates`` optionally restricts the search to a subset
        (e.g. "which airline has the highest delay *in Winter*").
        Returns None when the dimension is unknown or has no values with
        sufficient support.
        """
        if dimension not in self._dimensions:
            return None
        relation = self._relations.get(target)
        base = dict(base_predicates or {})
        averages: list[tuple[Any, float]] = []
        for value in relation.dimension_domain(dimension):
            assignments = dict(base)
            assignments[dimension] = value
            average, support = relation.average_target(Scope(assignments))
            if support < self._min_support:
                continue
            averages.append((value, float(average)))
        if not averages:
            return None
        averages.sort(key=lambda item: item[1], reverse=maximize)
        best_value, best_average = averages[0]
        runner_up_value, runner_up_average = (averages[1] if len(averages) > 1 else (None, None))
        text = self._extremum_text(
            target, dimension, best_value, best_average, runner_up_value, runner_up_average, maximize
        )
        return ExtremumAnswer(
            target=target,
            dimension=dimension,
            best_value=best_value,
            best_average=best_average,
            runner_up_value=runner_up_value,
            runner_up_average=runner_up_average,
            maximize=maximize,
            text=text,
        )

    def _extremum_text(
        self,
        target: str,
        dimension: str,
        best_value: Any,
        best_average: float,
        runner_up_value: Any | None,
        runner_up_average: float | None,
        maximize: bool,
    ) -> str:
        subject = self._realizer.subject(target)
        value_text = self._realizer.format_value(target, best_average)
        direction = "highest" if maximize else "lowest"
        dimension_label = dimension.replace("_", " ")
        text = (
            f"The {direction} {subject.replace('the ', '')} is {value_text} "
            f"for {dimension_label} {best_value}."
        )
        if runner_up_value is not None and runner_up_average is not None:
            runner_text = self._realizer.format_value(target, runner_up_average)
            text += f" {dimension_label.capitalize()} {runner_up_value} follows with {runner_text}."
        return text
