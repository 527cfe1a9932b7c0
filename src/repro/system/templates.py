"""Speech templates: turning fact sets into natural-language text.

Section III: "After selecting a (near-)optimal fact combination, the
speech is generated according to a simple text template" and "Speeches
are prefixed with a description of the summarized data subset".  The
realizer below follows the style of the example speeches in Table II of
the paper:

    "About 80 out of 1000 elder persons identify as visually impaired.
     It is 17 for adults.  It is 3 for teenagers in Manhattan."

Realization is a run-time hot path once pre-processing is fast (a batch
renders one speech per query; the serving benchmarks render thousands),
and the rendered fragments repeat heavily: the same subset prefixes,
scope items, formatted values and whole fact sentences recur across
speeches.  The realizer therefore memoizes those fragments per
instance.  Every cache key captures all inputs of the fragment it
stores, so cached output is byte-identical to rendering from scratch;
caches are capped so a long-lived serving process cannot grow them
without bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import math

from repro.core.model import Fact, Scope, Speech
from repro.system.queries import DataQuery


def _magnitude(value: float) -> int:
    """Order of magnitude of a non-zero value (floor of log10)."""
    return int(math.floor(math.log10(abs(value))))


#: Per-cache entry cap.  Pre-generated speeches draw fragments from a
#: finite vocabulary, but advanced (comparison/extremum) answers format
#: arbitrary computed values; beyond the cap new fragments are simply
#: rendered uncached.
FRAGMENT_CACHE_LIMIT = 65536


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

    Rendered fragments — target phrasings, scope items, formatted
    values, subset prefixes and fact sentences — are memoized per
    instance.
    """

    def __init__(
        self,
        target_phrasings: Mapping[str, TargetPhrasing] | None = None,
        dimension_labels: Mapping[str, str] | None = None,
    ):
        self._phrasings = dict(target_phrasings or {})
        self._dimension_labels = dict(dimension_labels or {})
        # Fragment caches; every key captures the full input of the
        # fragment it stores.  Excluded from pickling (__getstate__) so
        # worker-pool context broadcasts stay slim.
        self._generic_phrasings: dict[str, TargetPhrasing] = {}
        self._value_fragments: dict[tuple[str, float], str] = {}
        self._scope_fragments: dict[tuple[str, Any], str] = {}
        self._prefix_fragments: dict[tuple, str] = {}
        self._sentence_fragments: dict[tuple, str] = {}

    def __getstate__(self) -> dict[str, Any]:
        # Caches are rebuilt on demand; shipping them to pool workers
        # would only bloat the context broadcast.
        return {
            "_phrasings": self._phrasings,
            "_dimension_labels": self._dimension_labels,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self.__init__(
            target_phrasings=state["_phrasings"],
            dimension_labels=state["_dimension_labels"],
        )

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def realize(self, query: DataQuery, speech: Speech) -> str:
        """Full voice output: subset prefix plus one sentence per fact."""
        prefix = self.subset_prefix(query)
        body = self.realize_facts(query.target, speech, base_scope=query.scope())
        if prefix:
            return f"{prefix} {body}".strip()
        return body

    def subset_prefix(self, query: DataQuery) -> str:
        """The prefix describing the summarized data subset."""
        if not query.predicates:
            return ""
        key = (query.target, self._assignments_key(query.predicates))
        cached = self._fragment(self._prefix_fragments, key)
        if cached is not None:
            return cached
        parts = [self._scope_item(col, val) for col, val in query.predicates]
        prefix = f"For {self._join_phrases(parts)}:"
        self._remember(self._prefix_fragments, key, prefix)
        return prefix

    def realize_facts(self, target: str, speech: Speech, base_scope: Scope | None = None) -> str:
        """Render the facts of a speech (without the query prefix)."""
        base_scope = base_scope or Scope()
        sentences = []
        for position, fact in enumerate(speech.facts):
            sentences.append(self._fact_sentence(target, fact, base_scope, position == 0))
        if not sentences:
            return "No summary is available."
        return " ".join(sentences)

    def realize_fact(self, target: str, fact: Fact) -> str:
        """Render a single fact as a standalone sentence."""
        return self._fact_sentence(target, fact, Scope(), leading=True)

    def format_value(self, target: str, value: float) -> str:
        """Format a target value with the target's phrasing (unit, scale)."""
        return self._format_value(target, value)

    def subject(self, target: str) -> str:
        """The noun phrase used for a target column, e.g. "the average delay"."""
        return self._phrasing(target).subject

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    @staticmethod
    def _assignments_key(items) -> tuple:
        """Exact cache key for (column, value) assignments.

        Values that compare (and hash) equal can still render
        differently — ``True`` vs ``1``, ``-0.0`` vs ``0.0`` — so the
        value's class *and* repr join the key: together they determine
        the rendered text for the scalar values dimensions carry, while
        never letting two differently-rendering values share a key.
        """
        return tuple(
            (column, value.__class__, repr(value)) for column, value in items
        )

    def _fragment(self, cache: dict, key) -> str | None:
        """A cached fragment, or None when it has not been rendered yet."""
        return cache.get(key)

    def _remember(self, cache: dict, key, fragment) -> None:
        """Store a rendered fragment, respecting the per-cache cap."""
        if len(cache) < FRAGMENT_CACHE_LIMIT:
            cache[key] = fragment

    def _phrasing(self, target: str) -> TargetPhrasing:
        phrasing = self._phrasings.get(target)
        if phrasing is not None:
            return phrasing
        # The generic phrasing is a pure function of the target name.
        phrasing = self._generic_phrasings.get(target)
        if phrasing is None:
            phrasing = TargetPhrasing(subject=f"the average {target.replace('_', ' ')}")
            self._remember(self._generic_phrasings, target, phrasing)
        return phrasing

    def _format_value(self, target: str, value: float) -> str:
        # repr keeps value keys exact: 0.0 and -0.0 compare (and hash)
        # equal but format differently, so the raw float must not key
        # the cache.
        key = (target, repr(value))
        cached = self._fragment(self._value_fragments, key)
        if cached is not None:
            return cached
        formatted = self._render_value(target, value)
        self._remember(self._value_fragments, key, formatted)
        return formatted

    def _render_value(self, target: str, value: float) -> str:
        phrasing = self._phrasing(target)
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

    def _scope_item(self, column: str, value) -> str:
        key = (column, value.__class__, repr(value))
        cached = self._fragment(self._scope_fragments, key)
        if cached is not None:
            return cached
        label = self._dimension_labels.get(column, column.replace("_", " "))
        item = f"{label} {value}"
        self._remember(self._scope_fragments, key, item)
        return item

    @staticmethod
    def _join_phrases(parts: list[str]) -> str:
        if not parts:
            return ""
        if len(parts) == 1:
            return parts[0]
        return ", ".join(parts[:-1]) + " and " + parts[-1]

    def _fact_sentence(
        self,
        target: str,
        fact: Fact,
        base_scope: Scope,
        leading: bool,
    ) -> str:
        key = (
            target,
            leading,
            repr(fact.value),
            self._assignments_key(fact.scope),
            self._assignments_key(base_scope),
        )
        cached = self._fragment(self._sentence_fragments, key)
        if cached is not None:
            return cached
        sentence = self._render_fact_sentence(target, fact, base_scope, leading)
        self._remember(self._sentence_fragments, key, sentence)
        return sentence

    def _render_fact_sentence(
        self,
        target: str,
        fact: Fact,
        base_scope: Scope,
        leading: bool,
    ) -> str:
        phrasing = self._phrasing(target)
        value_text = self._format_value(target, fact.value)
        # Only mention scope restrictions beyond the query's own predicates.
        extra = {
            col: val
            for col, val in fact.scope.assignments.items()
            if not (base_scope.restricts(col) and base_scope.value(col) == val)
        }
        scope_text = self._join_phrases(
            [self._scope_item(col, val) for col, val in sorted(extra.items())]
        )
        if leading:
            if scope_text:
                return f"{phrasing.subject.capitalize()} for {scope_text} is {value_text}."
            return f"{phrasing.subject.capitalize()} is {value_text} overall."
        if scope_text:
            return f"It is {value_text} for {scope_text}."
        return f"It is {value_text} overall."
