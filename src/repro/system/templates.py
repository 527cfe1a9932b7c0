"""Speech templates: turning fact sets into natural-language text.

Section III: "After selecting a (near-)optimal fact combination, the
speech is generated according to a simple text template" and "Speeches
are prefixed with a description of the summarized data subset".  The
realizer below follows the style of the example speeches in Table II of
the paper:

    "About 80 out of 1000 elder persons identify as visually impaired.
     It is 17 for adults.  It is 3 for teenagers in Manhattan."

Realization belongs to pre-processing (and to maintenance, which
re-summarizes the queries an append affects): each stored speech is
rendered once, and run-time answers read the stored text.  So the
realizer renders every sentence straight from its fact and the query's
predicates and keeps nothing per speech.
"""

from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType
from typing import Any, Mapping

import math

from repro.core.model import Fact, Speech
from repro.system.queries import _MISSING, DataQuery


#: The predicates of a query that restricts nothing.
_NO_PREDICATES: Mapping[str, Any] = MappingProxyType({})


def _magnitude(value: float) -> int:
    """Order of magnitude of a non-zero value (floor of log10)."""
    return int(math.floor(math.log10(abs(value))))


@dataclass(frozen=True)
class TargetPhrasing:
    """How to verbalise one target column.

    Attributes
    ----------
    subject:
        Noun phrase for the quantity, e.g. "the average delay".
    unit:
        Unit suffix appended to values, e.g. " minutes" or "%".
    scale:
        Multiplier applied to raw values before formatting (e.g. 100 to
        turn a 0/1 cancellation indicator into a percentage).
    decimals:
        Number of decimal places.
    """

    subject: str
    unit: str = ""
    scale: float = 1.0
    decimals: int = 1


def _value_text(phrasing: TargetPhrasing, value: float) -> str:
    """``value`` formatted with ``phrasing``'s scale, precision and unit."""
    scaled = value * phrasing.scale
    decimals = phrasing.decimals
    # Small non-zero values need extra precision to stay meaningful
    # ("0.04" rather than "0" for a 4% cancellation probability).
    if scaled != 0.0 and abs(scaled) < 10 ** (-decimals):
        decimals = max(decimals, 2 - _magnitude(scaled))
    formatted = f"{scaled:.{decimals}f}"
    # Trim trailing zeros for cleaner speech ("20" instead of "20.0").
    if "." in formatted:
        formatted = formatted.rstrip("0").rstrip(".")
    return f"{formatted}{phrasing.unit}"


class SpeechRealizer:
    """Renders speeches (and their data-subset prefix) as English text.

    Parameters
    ----------
    target_phrasings:
        Optional per-target phrasing overrides; unlisted targets use a
        generic "the average <column name>" phrasing.
    dimension_labels:
        Optional per-dimension labels used in scope descriptions
        ("season Winter" instead of "season=Winter").

    The realizer holds its configuration and one generic phrasing per
    unlisted target it has rendered; it keeps no rendered text.
    """

    def __init__(
        self,
        target_phrasings: Mapping[str, TargetPhrasing] | None = None,
        dimension_labels: Mapping[str, str] | None = None,
    ):
        self._phrasings = dict(target_phrasings or {})
        self._dimension_labels = dict(dimension_labels or {})
        # Generic phrasings of unlisted targets; the dataset's targets
        # bound it.
        self._generic_phrasings: dict[str, TargetPhrasing] = {}

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def realize(self, query: DataQuery, speech: Speech) -> str:
        """Full voice output: subset prefix plus one sentence per fact."""
        prefix = self.subset_prefix(query)
        body = self.realize_facts(query.target, speech, query.predicate_map)
        if prefix:
            return f"{prefix} {body}".strip()
        return body

    def subset_prefix(self, query: DataQuery) -> str:
        """The prefix describing the summarized data subset."""
        if not query.predicates:
            return ""
        return f"For {self._scope_text(query.predicates)}:"

    def realize_facts(
        self,
        target: str,
        speech: Speech,
        predicates: Mapping[str, Any] = _NO_PREDICATES,
    ) -> str:
        """Render the facts of a speech (without the query prefix).

        A fact's scope items that ``predicates`` (the query's) already
        fix are not repeated.
        """
        phrasing = self._phrasing(target)
        sentences = [
            self._render_fact_sentence(phrasing, fact, predicates, position == 0)
            for position, fact in enumerate(speech.facts)
        ]
        if not sentences:
            return "No summary is available."
        return " ".join(sentences)

    def realize_fact(self, target: str, fact: Fact) -> str:
        """Render a single fact as a standalone sentence."""
        return self._render_fact_sentence(
            self._phrasing(target), fact, _NO_PREDICATES, leading=True
        )

    def format_value(self, target: str, value: float) -> str:
        """Format a target value with the target's phrasing (unit, scale)."""
        return _value_text(self._phrasing(target), value)

    def subject(self, target: str) -> str:
        """The noun phrase used for a target column, e.g. "the average delay"."""
        return self._phrasing(target).subject

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _phrasing(self, target: str) -> TargetPhrasing:
        phrasing = self._phrasings.get(target)
        if phrasing is not None:
            return phrasing
        # The generic phrasing is a pure function of the target name.
        phrasing = self._generic_phrasings.get(target)
        if phrasing is None:
            phrasing = TargetPhrasing(subject=f"the average {target.replace('_', ' ')}")
            self._generic_phrasings[target] = phrasing
        return phrasing

    def _scope_text(self, items) -> str:
        """``(column, value)`` items as labelled phrases, joined with "and"."""
        labels = self._dimension_labels
        parts = [f"{labels.get(col, col.replace('_', ' '))} {val}" for col, val in items]
        if len(parts) <= 1:
            return "".join(parts)
        return ", ".join(parts[:-1]) + " and " + parts[-1]

    def _render_fact_sentence(
        self,
        phrasing: TargetPhrasing,
        fact: Fact,
        predicates: Mapping[str, Any],
        leading: bool,
    ) -> str:
        value_text = _value_text(phrasing, fact.value)
        # Only mention scope restrictions beyond the query's own
        # predicates.  A scope iterates its items sorted by column.
        scope_text = self._scope_text(
            [(col, val) for col, val in fact.scope if predicates.get(col, _MISSING) != val]
        )
        if leading:
            if scope_text:
                return f"{phrasing.subject.capitalize()} for {scope_text} is {value_text}."
            return f"{phrasing.subject.capitalize()} is {value_text} overall."
        if scope_text:
            return f"It is {value_text} for {scope_text}."
        return f"It is {value_text} overall."
