"""Unit tests for the ML-baseline substitute model."""

import pytest

from repro.core.model import Fact, Scope
from repro.mlbaseline.corpus import SummarizationExample
from repro.mlbaseline.model import TemplateSeq2SeqModel
from repro.system.queries import DataQuery


def _example(sentences: int, facts=()) -> SummarizationExample:
    return SummarizationExample(
        query=DataQuery.create("delay", {"season": "Winter"}),
        input_text="The value is 5. It is 7 for region North.",
        output_text=" ".join(["It is 5."] * sentences),
        candidate_facts=tuple(facts),
    )


def _fact(assignments, value):
    return Fact(scope=Scope(assignments), value=value, support=1)


CANDIDATES = [
    _fact({}, 12.0),
    _fact({"region": "North"}, 15.0),
    _fact({"region": "East"}, 10.0),
    _fact({"region": "North", "season": "Winter"}, 15.0),
    _fact({"region": "East", "season": "Winter"}, 15.0),
]


class TestTraining:
    def test_fit_learns_sentence_count(self):
        model = TemplateSeq2SeqModel()
        report = model.fit([_example(2), _example(4)])
        assert report.examples == 2
        assert report.sentences_per_summary == 3.0
        # A fitted model generates (an unfitted one raises RuntimeError).
        assert model.generate("delays of 3 and 4").text

    def test_fit_requires_examples(self):
        with pytest.raises(ValueError):
            TemplateSeq2SeqModel().fit([])

    def test_generate_requires_training(self):
        with pytest.raises(RuntimeError):
            TemplateSeq2SeqModel().generate("The value is 5.")


class TestGeneration:
    def test_generate_for_example_prefers_narrow_scopes(self):
        model = TemplateSeq2SeqModel()
        model.fit([_example(3)])
        generated = model.generate_for_example(_example(3, CANDIDATES))
        assert len(generated.selected_facts) == 3
        # The narrow-scope bias picks two-dimension facts first.
        assert generated.mean_scope_arity > 1.0
        assert generated.text

    def test_redundant_dimension_count(self):
        model = TemplateSeq2SeqModel()
        model.fit([_example(3)])
        generated = model.generate_for_example(_example(3, CANDIDATES))
        # Two selected facts share the same dimension set -> redundancy.
        assert generated.redundant_dimension_count >= 1

    def test_generate_from_raw_text(self):
        model = TemplateSeq2SeqModel()
        model.fit([_example(2)])
        generated = model.generate("The value is 5. It is 7 for region North. It is 9.")
        assert "5" in generated.text
        assert generated.generation_seconds >= 0.0

    def test_generate_with_no_candidates(self):
        model = TemplateSeq2SeqModel()
        model.fit([_example(2)])
        generated = model.generate_for_example(_example(2, ()))
        assert generated.text == "No summary is available."
        assert generated.mean_scope_arity == 0.0

    def test_generate_from_text_without_numbers(self):
        model = TemplateSeq2SeqModel()
        model.fit([_example(2)])
        assert model.generate("no numbers here").text == "No summary is available."
