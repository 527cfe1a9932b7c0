"""Template-learning substitute for the seq2seq summarization model.

The original experiment fine-tunes a pre-trained language model on 49
(facts, summary) pairs.  Offline, we approximate that behaviour with a
two-part model:

* *Template induction* — from the training outputs, the model learns
  the surface pattern of a summary: how many sentences it has and how
  each sentence frames a value ("It is <value> for <scope>.").
* *Content selection* — for a new input, the model picks facts from the
  input text.  Mimicking the biases the paper observed in the real
  seq2seq output, the selector prefers facts with *narrow scopes*
  (more restricted dimensions) and does not de-duplicate dimensions,
  which yields the redundant, overly specific summaries reported in
  Section VIII-E.

The interface mirrors a minimal seq2seq API: ``fit(examples)`` and
``generate(input_text)`` / ``generate_for_example(example)``.
"""

from __future__ import annotations

import re
import time
from dataclasses import dataclass, field
from typing import Sequence

from repro.core.model import Fact
from repro.mlbaseline.corpus import SummarizationExample


@dataclass
class TrainingReport:
    """Bookkeeping of one training run."""

    examples: int = 0
    epochs: int = 0
    training_seconds: float = 0.0
    sentences_per_summary: float = 0.0


@dataclass
class GeneratedSummary:
    """One generated summary plus diagnostics used by the evaluation."""

    text: str
    selected_facts: list[Fact] = field(default_factory=list)
    generation_seconds: float = 0.0

    @property
    def redundant_dimension_count(self) -> int:
        """How many selected facts repeat an already-used dimension set."""
        seen: set[tuple[str, ...]] = set()
        redundant = 0
        for fact in self.selected_facts:
            key = fact.dimensions
            if key in seen:
                redundant += 1
            seen.add(key)
        return redundant

    @property
    def mean_scope_arity(self) -> float:
        """Average number of restricted dimensions per selected fact."""
        if not self.selected_facts:
            return 0.0
        return sum(len(fact.dimensions) for fact in self.selected_facts) / len(self.selected_facts)


class TemplateSeq2SeqModel:
    """Retrieval/template text generator standing in for the seq2seq model.

    Parameters
    ----------
    epochs:
        Recorded for parity with the original setup (10 epochs); the
        template induction itself is a single pass.
    narrow_scope_bias:
        Strength of the preference for narrow-scope facts during content
        selection (the observed failure mode of the ML baseline).
    """

    def __init__(self, epochs: int = 10, narrow_scope_bias: float = 1.0):
        self._epochs = epochs
        self._narrow_scope_bias = narrow_scope_bias
        self._sentence_count = 3
        self._trained = False
        self._value_pattern = re.compile(r"-?\d+(?:\.\d+)?")

    # ------------------------------------------------------------------
    # Training
    # ------------------------------------------------------------------
    def fit(self, examples: Sequence[SummarizationExample]) -> TrainingReport:
        """Induce the summary template from training examples."""
        start = time.perf_counter()
        if not examples:
            raise ValueError("training requires at least one example")
        sentence_counts = [
            max(1, example.output_text.count(".")) for example in examples
        ]
        self._sentence_count = round(sum(sentence_counts) / len(sentence_counts))
        self._trained = True
        elapsed = time.perf_counter() - start
        return TrainingReport(
            examples=len(examples),
            epochs=self._epochs,
            training_seconds=elapsed,
            sentences_per_summary=float(self._sentence_count),
        )

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate_for_example(self, example: SummarizationExample) -> GeneratedSummary:
        """Generate a summary for a held-out example (uses its candidate facts)."""
        self._require_trained()
        start = time.perf_counter()
        selected = self._select_facts(list(example.candidate_facts))
        text = self._render(selected)
        return GeneratedSummary(
            text=text,
            selected_facts=selected,
            generation_seconds=time.perf_counter() - start,
        )

    def generate(self, input_text: str) -> GeneratedSummary:
        """Generate a summary from raw input text (values only, no fact metadata)."""
        self._require_trained()
        start = time.perf_counter()
        values = [float(v) for v in self._value_pattern.findall(input_text)]
        values = values[: self._sentence_count]
        sentences = []
        for position, value in enumerate(values):
            if position == 0:
                sentences.append(f"The value is {value:g}.")
            else:
                sentences.append(f"It is {value:g}.")
        return GeneratedSummary(
            text=" ".join(sentences) if sentences else "No summary is available.",
            generation_seconds=time.perf_counter() - start,
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _require_trained(self) -> None:
        if not self._trained:
            raise RuntimeError("the model must be fitted before generating summaries")

    def _select_facts(self, candidates: list[Fact]) -> list[Fact]:
        """Content selection with the narrow-scope bias of the ML baseline."""
        if not candidates:
            return []
        scored = sorted(
            candidates,
            key=lambda fact: (
                -self._narrow_scope_bias * len(fact.dimensions),
                -fact.value,
            ),
        )
        return scored[: self._sentence_count]

    @staticmethod
    def _render(facts: list[Fact]) -> str:
        if not facts:
            return "No summary is available."
        sentences = []
        for position, fact in enumerate(facts):
            scope_text = ", ".join(
                f"{column} {value}" for column, value in fact.scope.assignments.items()
            )
            value_text = f"{fact.value:.2f}".rstrip("0").rstrip(".")
            if position == 0:
                if scope_text:
                    sentences.append(f"The value for {scope_text} is {value_text}.")
                else:
                    sentences.append(f"The value is {value_text} overall.")
            elif scope_text:
                sentences.append(f"It is {value_text} for {scope_text}.")
            else:
                sentences.append(f"It is {value_text} overall.")
        return " ".join(sentences)
