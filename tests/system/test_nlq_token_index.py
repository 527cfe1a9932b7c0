"""Parity tests: the one-pass token-trie parser vs. a full regex scan.

:class:`ScanParser` is the parser's earlier implementation: one
``re.search`` per lexicon phrase and per lexicon (targets, values twice,
dimension names), with the two matching rules corrected the same way
the trie parser states them — a phrase occurs where no word character
stands beside it (``(?<!\\w)…(?!\\w)`` instead of ``\\b…\\b``), and a value
counts only through an occurrence outside every occurrence of a longer
value already counted.  It shares nothing with
``NaturalLanguageParser`` but the lexicons and the category patterns,
so field-by-field equality on every input is a real check of the trie
walk.

The inputs, Genie-style (expanding templates over every lexicon entry):

* the engine/nlq suites' transcripts and ``\\b`` edge cases;
* for each bundled dataset, ``question_for_query`` over every
  enumerated query and the ``DeploymentSimulator`` templates over every
  value, target and dimension, plus texts around each value that are
  easy to get wrong (punctuation, digits, hyphens, ``+``, underscores,
  tabs and double spaces, nested values, "İ" whose lower case is
  longer);
* Hypothesis texts over both the running example's and the Stack
  Overflow vocabulary, joined by assorted separators.
"""

from __future__ import annotations

import re
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets import load_dataset
from repro.serving.workload import question_for_query
from repro.system import deployment, nlq
from repro.system.config import SummarizationConfig
from repro.system.nlq import NaturalLanguageParser, ParsedRequest, RequestKind
from repro.system.problem_generator import ProblemGenerator
from repro.system.queries import DataQuery


def occurrences(phrase: str, text: str) -> list[tuple[int, int]]:
    """Every (possibly overlapping) occurrence of ``phrase`` with no word character beside it."""
    pattern = r"(?=((?<!\w)" + re.escape(phrase) + r"(?!\w)))"
    return [match.span(1) for match in re.finditer(pattern, text)]


def first_free(spans, counted) -> int | None:
    for start, end in spans:
        if not any(low <= start and end <= high for low, high in counted):
            return start
    return None


def patterns(alternation: re.Pattern) -> list[str]:
    """The plain substrings a category alternation is made of."""
    return alternation.pattern.split("|")


class ScanParser(NaturalLanguageParser):
    """The full-lexicon regex scan (the oracle), with both fixes applied."""

    def parse(self, text: str) -> ParsedRequest:
        normalised = f" {text.strip().lower()} "
        if any(pattern in normalised for pattern in patterns(nlq._HELP)):
            return ParsedRequest(text=text, kind=RequestKind.HELP)
        if any(pattern in normalised for pattern in patterns(nlq._REPEAT)):
            return ParsedRequest(text=text, kind=RequestKind.REPEAT)

        target = self.scan_target(normalised)
        predicates = self.scan_predicates(normalised)
        mentions = self.extract_value_mentions(normalised)
        dimension = self.extract_dimension_mention(normalised)

        if any(pattern in normalised for pattern in patterns(nlq._COMPARISON)):
            query = DataQuery.create(target, predicates) if target else None
            return ParsedRequest(
                text=text,
                kind=RequestKind.COMPARISON,
                query=query,
                matched_values=predicates,
                value_mentions=mentions,
                mentioned_dimension=dimension,
            )
        if any(pattern in normalised for pattern in patterns(nlq._EXTREMUM)):
            query = DataQuery.create(target, predicates) if target else None
            return ParsedRequest(
                text=text,
                kind=RequestKind.EXTREMUM,
                query=query,
                matched_values=predicates,
                value_mentions=mentions,
                mentioned_dimension=dimension,
                wants_minimum=any(pattern in normalised for pattern in patterns(nlq._MINIMUM)),
            )
        if target is None:
            return ParsedRequest(text=text, kind=RequestKind.OTHER, matched_values=predicates)
        return ParsedRequest(
            text=text,
            kind=RequestKind.QUERY,
            query=DataQuery.create(target, predicates),
            matched_values=predicates,
            value_mentions=mentions,
        )

    def ranked_values(self) -> list[str]:
        return sorted(self._value_lexicon, key=len, reverse=True)

    def scan_target(self, text: str) -> str | None:
        best, best_length = None, 0
        for phrase, target in self._target_lexicon.items():
            if len(phrase) > best_length and occurrences(phrase, text):
                best, best_length = target, len(phrase)
        return best

    def scan_predicates(self, text: str) -> dict:
        predicates: dict = {}
        counted: list[tuple[int, int]] = []
        for phrase in self.ranked_values():
            spans = occurrences(phrase, text)
            if first_free(spans, counted) is None:
                continue
            dimension, value = self._value_lexicon[phrase]
            if dimension not in predicates:
                predicates[dimension] = value
                counted.extend(spans)
        return predicates

    def extract_value_mentions(self, text: str) -> list:
        normalised = f" {text.strip().lower()} "
        mentions: list[tuple[str, int]] = []
        counted: list[tuple[int, int]] = []
        for phrase in self.ranked_values():
            spans = occurrences(phrase, normalised)
            start = first_free(spans, counted)
            if start is None:
                continue
            counted.extend(spans)
            mentions.append((phrase, start))
        mentions.sort(key=lambda item: item[1])
        return [self._value_lexicon[phrase] for phrase, _ in mentions]

    def extract_dimension_mention(self, text: str) -> str | None:
        normalised = f" {text.strip().lower()} "
        best, best_length = None, 0
        for phrase, dimension in self._dimension_phrases:
            if len(phrase) > best_length and occurrences(phrase, normalised):
                best, best_length = dimension, len(phrase)
        return best


def value_mentions(parser: NaturalLanguageParser, text: str) -> list:
    """Every dimension value the indexed parser recognises, in text order."""
    return parser._values(parser._scan(f" {text.strip().lower()} "))[1]


def dimension_mention(parser: NaturalLanguageParser, text: str) -> str | None:
    """The dimension the indexed parser finds named in ``text``, if any."""
    found = parser._scan(f" {text.strip().lower()} ")
    return nlq._lowest(found, parser._dimension_rank, parser._dimensions)


def assert_same_parse(indexed, scan, text):
    left = indexed.parse(text)
    right = scan.parse(text)
    assert left.kind is right.kind, text
    assert left.query == right.query, text
    assert left.matched_values == right.matched_values, text
    assert left.value_mentions == right.value_mentions, text
    assert left.mentioned_dimension == right.mentioned_dimension, text
    assert left.wants_minimum == right.wants_minimum, text
    assert value_mentions(indexed, text) == scan.extract_value_mentions(text), text
    assert dimension_mention(indexed, text) == scan.extract_dimension_mention(text), text


# ----------------------------------------------------------------------
# The running example
# ----------------------------------------------------------------------
#: Every transcript the engine/nlq test suites feed the parser, plus
#: edge cases: punctuation, casing, numbers, unknown words, phrases
#: without word characters and multi-value mentions.
CORPUS = [
    "help",
    "What can I ask you?",
    "how do I use this",
    "instructions please",
    "repeat that",
    "can you say that again",
    "once more",
    "thanks",
    "play some music",
    "good morning",
    "what is the delay in Winter?",
    "delays for North in Winter",
    "how bad are late arrivals in Summer",
    "what is the average delay",
    "DELAYS IN WINTER",
    "delays for Northern airlines",
    "what about the East",
    "compare the delay between East and West",
    "which region has the highest delay",
    "delay in wintertime",
    "what is the delay in Winter",
    "repeat that please",
    "which season has the lowest delay",
    "difference between North and South delays",
    "delay for the South in Summer",
    "is winter worse than summer for delays",
    "delay!!! winter,,, east...",
    "  what   is the   delay  ",
    "",
    "delay delay delay winter winter",
    "what is the delay for 2020",
    "übermäßige delays in winter",
    "delays for nyc",
    "compare nyc and West delays",
    "delays in new york",
    "delays in new york and york",
    "york new york york",
    "compare new york, west and york",
    "delays in north carolina near new york",
    "late\tarrivals in winter",
    "late  arrivals in winter",
    "delays for c++ in winter",
    "delays for c++x in winter",
    "c++c++ delays",
    "delays for -5 and x-5",
    "delays for x-5",
    "the lowest delay for +west",
    "the lowest delay for a+west",
]

#: Synonyms with nested phrases ("york" and "new" in "new york", "north"
#: in "north carolina") and phrases that start or end with a non-word
#: character.
EXAMPLE_SYNONYMS = dict(
    target_synonyms={"delay": ["delays", "late arrivals"]},
    dimension_synonyms={
        "nyc": ("region", "East"),
        "new york": ("region", "East"),
        "york": ("season", "Winter"),
        "new": ("season", "Spring"),
        "north carolina": ("region", "North"),
        "c++": ("region", "West"),
        "-5": ("season", "Fall"),
        "+west": ("region", "West"),
    },
)


def make_parsers(table):
    config = SummarizationConfig.create(
        "flight_delays",
        dimensions=("region", "season"),
        targets=("delay",),
        max_query_length=2,
    )
    indexed = NaturalLanguageParser(config, table, **EXAMPLE_SYNONYMS)
    return indexed, ScanParser(config, table, **EXAMPLE_SYNONYMS)


@pytest.fixture()
def parsers(example_table):
    return make_parsers(example_table)


class TestCorpusParity:
    @pytest.mark.parametrize("text", CORPUS)
    def test_parse_identical(self, parsers, text):
        indexed, scan = parsers
        assert_same_parse(indexed, scan, text)

    @pytest.mark.parametrize("text", ["delays for nyc", "compare nyc and West delays"])
    def test_dimension_synonyms_identical(self, parsers, text):
        indexed, scan = parsers
        assert_same_parse(indexed, scan, text)

    def test_helper_outputs_identical(self, parsers):
        indexed, scan = parsers
        for text in CORPUS:
            assert value_mentions(indexed, text) == scan.extract_value_mentions(text)
            assert dimension_mention(indexed, text) == scan.extract_dimension_mention(text)


# ----------------------------------------------------------------------
# Every bundled dataset, expanded through the question templates
# ----------------------------------------------------------------------
DATASETS = ("acs", "flights", "primaries", "stackoverflow")


@lru_cache(maxsize=None)
def dataset_parsers(key: str):
    dataset = load_dataset(key)
    config = SummarizationConfig.create(
        key,
        dimensions=dataset.spec.dimensions,
        targets=dataset.spec.targets,
        max_query_length=2,
    )
    indexed = NaturalLanguageParser(config, dataset.table)
    scan = ScanParser(config, dataset.table)
    return config, dataset.table, indexed, scan


def enumerated_queries(key: str) -> list[DataQuery]:
    config, table, _, _ = dataset_parsers(key)
    return list(ProblemGenerator(config, table).enumerate_queries())


def template_texts(config, table) -> list[str]:
    """The ``DeploymentSimulator`` templates over every target, dimension and value."""
    texts = [
        *deployment._HELP_TEXTS,
        *deployment._REPEAT_TEXTS,
        *deployment._OTHER_TEXTS,
    ]
    targets = [target.replace("_", " ") for target in config.targets]
    for target in targets:
        texts.append(f"what is the {target} overall")
        texts.append(f"what is the {target} of item number 417")
        texts.extend(f"what is the {target} and the {other}" for other in targets)
        for dimension in config.dimensions:
            for name in (dimension.replace("_", " "), dimension.split("_")[-1]):
                texts.append(f"which {name} has the highest {target}")
                texts.append(f"which {name} has the lowest {target}")
            values = table.column(dimension).distinct_values()
            for first in values:
                texts.append(f"what is the {target} for {first}")
                for second in values:
                    texts.append(f"make a comparison of {target} between {first} and {second}")
    simulator = deployment.DeploymentSimulator(config, table, seed=3)
    texts.extend(entry.text for entry in simulator.generate_log())
    return texts


def boundary_texts(config, table) -> list[str]:
    """Texts around every value where word-boundary rules are easy to get wrong."""
    target = config.targets[0].replace("_", " ")
    values = [
        str(value)
        for dimension in config.dimensions
        for value in table.column(dimension).distinct_values()
    ]
    texts = []
    for value in values:
        for shape in (
            "{v}",
            "{v}!",
            "({v})",
            "{v},{v}",
            "{v}-{v}",
            "{v}{v}",
            "_{v}",
            "{v}_",
            "{v}+",
            "+{v}",
            "{v}5",
            "5{v}",
            "{v}.5",
            "İ{v}",
            "{v}İ",
            "İ {v}",
            "{v}'s",
        ):
            texts.append(f"what is the {target} for " + shape.format(v=value))
        texts.append(f"{target} for {value.replace(' ', chr(9))}")
        texts.append(f"{target} for {value.replace(' ', '  ')}")
        texts.append(f"{target} for {value.replace('-', ' ')}")
        texts.append(f"{target} for {value.replace('+', '')}")
    for first, second in zip(values, values[1:]):
        texts.append(f"{target} for {first}{second} and {second} {first}")
        texts.append(f"compare {target} {first}/{second} vs {second}")
    return texts


class TestDatasetCorpusParity:
    @pytest.mark.parametrize("key", DATASETS)
    def test_enumerated_questions_parse_identically(self, key):
        _, _, indexed, scan = dataset_parsers(key)
        for query in enumerated_queries(key):
            assert_same_parse(indexed, scan, question_for_query(query))

    @pytest.mark.parametrize("key", DATASETS)
    def test_template_and_boundary_texts_parse_identically(self, key):
        config, table, indexed, scan = dataset_parsers(key)
        for text in template_texts(config, table) + boundary_texts(config, table):
            assert_same_parse(indexed, scan, text)


class TestRoundTrip:
    """``question_for_query`` parses back to its query."""

    @pytest.mark.parametrize("key", ["acs", "primaries", "stackoverflow"])
    def test_every_enumerated_query_round_trips(self, key):
        _, _, indexed, _ = dataset_parsers(key)
        queries = enumerated_queries(key)
        failed = [q for q in queries if indexed.parse(question_for_query(q)).query != q]
        assert failed == []
        assert len(queries) == {"acs": 252, "primaries": 195, "stackoverflow": 3150}[key]

    def test_flights_fails_only_on_shared_destination_regions(self):
        # Origin and destination regions share all four values; the value
        # lexicon maps each to the first dimension (origin_region), so a
        # destination-region question parses to an origin-region query.
        _, table, indexed, _ = dataset_parsers("flights")
        origins = set(table.column("origin_region").distinct_values())
        shared = origins & set(table.column("destination_region").distinct_values())
        assert len(shared) == 4
        queries = enumerated_queries("flights")
        failed = [q for q in queries if indexed.parse(question_for_query(q)).query != q]
        assert len(queries) == 1098
        assert len(failed) == 264
        assert all(q.predicate_map.get("destination_region") in shared for q in failed)


# ----------------------------------------------------------------------
# Random texts
# ----------------------------------------------------------------------
WORDS = st.sampled_from(
    [
        "delay",
        "delays",
        "late",
        "arrivals",
        "winter",
        "summer",
        "east",
        "west",
        "north",
        "south",
        "region",
        "season",
        "nyc",
        "new",
        "york",
        "c++",
        "-5",
        "+west",
        "the",
        "in",
        "for",
        "compare",
        "versus",
        "highest",
        "lowest",
        "help",
        "repeat",
        "zzz",
        "42",
        "?",
        "north-east",
        "wintertime",
        # The Stack Overflow survey's irregular values and a few regular ones.
        "full-stack",
        "20+ years",
        "5000+",
        "0-2 years",
        "11-20 years",
        "1-19",
        "500-4999",
        "self-taught",
        "non-binary",
        "part-time",
        "data science",
        "north america",
        "org size",
        "competence",
        "job satisfaction",
        "İ",
    ]
)
SEPARATORS = st.sampled_from([" ", " ", " ", "  ", "\t", "-", "+", "", ",", "_", "/"])


@lru_cache(maxsize=None)
def example_parsers():
    from tests.conftest import build_example_table

    return make_parsers(build_example_table())


class TestPropertyParity:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(WORDS, SEPARATORS), min_size=0, max_size=8))
    def test_random_texts_parse_identically(self, pieces):
        text = "".join(word + separator for word, separator in pieces)
        assert_same_parse(*example_parsers(), text)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(WORDS, SEPARATORS), min_size=0, max_size=8))
    def test_random_survey_texts_parse_identically(self, pieces):
        text = "".join(word + separator for word, separator in pieces)
        _, _, indexed, scan = dataset_parsers("stackoverflow")
        assert_same_parse(indexed, scan, text)
