"""The end-to-end voice query engine (Figure 2).

``VoiceQueryEngine`` combines the configuration, the problem generator,
a summarization algorithm, the speech store, the natural-language
parser and the speech realizer into the system the paper deploys on the
Google Assistant platform: pre-process once, then answer each voice
request by looking up the most related pre-generated speech.

The request path is split in two layers so the serving service
(:mod:`repro.serving`) can run many requests concurrently:

* :meth:`VoiceQueryEngine.respond` /
  :meth:`VoiceQueryEngine.respond_to` — the *stateless* path: parse,
  classify and answer against an explicit speech store (e.g. an
  immutable store snapshot), touching no session state, so concurrent
  callers on different snapshots never interfere;
* :meth:`VoiceQueryEngine.ask` — the interactive path layered on top:
  same answering logic plus the repeat-state, and the unbounded session
  log the single-session deployment analysis uses.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Sequence

from repro.algorithms.base import Summarizer
from repro.core.expectation import ExpectationModel
from repro.core.priors import Prior
from repro.relational.table import Table
from repro.system.classification import RequestType, classify_request
from repro.system.config import SummarizationConfig
from repro.system.nlq import NaturalLanguageParser, ParsedRequest
from repro.system.preprocessor import Preprocessor, PreprocessingReport
from repro.system.problem_generator import ProblemGenerator
from repro.system.queries import DataQuery
from repro.system.speech_store import SpeechStore
from repro.system.templates import SpeechRealizer
from repro.system.worker_pool import WorkerPool


class ResponseKind(Enum):
    """What kind of answer the engine produced."""

    SPEECH = "speech"
    HELP = "help"
    REPEAT = "repeat"
    UNSUPPORTED = "unsupported"
    NO_DATA = "no_data"
    COMPARISON = "comparison"
    EXTREMUM = "extremum"
    #: Produced by the serving layer, never by the engine itself: the
    #: request's deadline expired before an answer was computed.
    TIMEOUT = "timeout"


_HELP_TEXT = (
    "You can ask about a value for a data subset, for example "
    "'what is the {target} for {example}?'. I answer with a short summary "
    "of the relevant data."
)
_UNSUPPORTED_TEXT = (
    "I can only answer questions about averages for data subsets; "
    "comparisons and extrema are not supported yet."
)
_NO_DATA_TEXT = "I have no summary for that data subset."


@dataclass(slots=True)
class VoiceResponse:
    """The engine's answer to one voice request.

    Attributes
    ----------
    kind:
        Category of the response.
    text:
        The text that would be sent to speech synthesis.
    request_type:
        The Table III classification of the request.
    query:
        The extracted data query, when the request was a data query.
    exact_match:
        For speech responses, whether the stored speech was generated
        for exactly the requested subset.
    latency_seconds:
        Time from receiving the transcript to having the response text
        (the run-time latency reported in Figure 10).
    """

    kind: ResponseKind
    text: str
    request_type: RequestType
    query: DataQuery | None = None
    exact_match: bool = False
    latency_seconds: float = 0.0


@dataclass(slots=True)
class SessionState:
    """One conversation's repeat-state: its last answer and a count.

    This is the engine's session primitive: :meth:`VoiceQueryEngine.ask`
    keeps one instance for its interactive session, and the serving
    layer's :class:`repro.api.sessions.SessionStore` keeps one per
    ``session_id`` — both observe responses through the same
    :meth:`observe`, so a "repeat" answered from either path replays
    exactly the same state.
    """

    last_response: VoiceResponse | None = None
    handled: int = 0

    def observe(self, parsed: ParsedRequest, response: VoiceResponse) -> None:
        """Record one handled request.

        ``handled`` counts every exchange; the repeat-state only
        advances for non-repeat responses ("repeat" twice replays the
        same answer, matching the deployed assistant).
        """
        self.handled += 1
        if response.kind is not ResponseKind.REPEAT:
            self.last_response = response


class VoiceQueryEngine:
    """Answer voice queries with pre-generated speech summaries.

    Parameters
    ----------
    config:
        Summarization configuration.
    table:
        The data table to expose.
    summarizer:
        Pre-processing algorithm (defaults to the one named in the
        configuration).
    prior / expectation_model:
        Optional overrides forwarded to the problem generator.
    target_synonyms / dimension_synonyms:
        Extra vocabulary for the natural-language parser.
    realizer:
        Speech realizer (phrasing of targets and dimensions).
    enable_advanced_queries:
        When True, comparison and extremum requests — which the paper's
        deployment logged as unsupported — are answered by the
        :mod:`repro.system.advanced` extension instead of an apology.
    """

    def __init__(
        self,
        config: SummarizationConfig,
        table: Table,
        summarizer: Summarizer | None = None,
        prior: Prior | None = None,
        expectation_model: ExpectationModel | None = None,
        target_synonyms: Mapping[str, Sequence[str]] | None = None,
        dimension_synonyms: Mapping[str, tuple[str, object]] | None = None,
        realizer: SpeechRealizer | None = None,
        enable_advanced_queries: bool = False,
    ):
        self._config = config
        self._table = table
        self._realizer = realizer or SpeechRealizer()
        # Construction inputs retained so adopt_table can rebuild the
        # table-derived components against an updated table.
        self._prior = prior
        self._expectation_model = expectation_model
        self._target_synonyms = target_synonyms
        self._dimension_synonyms = dimension_synonyms
        self._preprocessor = Preprocessor(config, summarizer=summarizer, realizer=self._realizer)
        self._store = SpeechStore()
        self._report: PreprocessingReport | None = None
        self._session = SessionState()
        self._advanced_enabled = enable_advanced_queries
        self._comparison_answerer = None
        self._extremum_answerer = None
        self._rebuild_table_components()

    def _rebuild_table_components(self) -> None:
        """(Re)derive everything built from the current table."""
        self._generator = ProblemGenerator(
            self._config,
            self._table,
            prior=self._prior,
            expectation_model=self._expectation_model,
        )
        self._parser = NaturalLanguageParser(
            self._config,
            self._table,
            target_synonyms=self._target_synonyms,
            dimension_synonyms=self._dimension_synonyms,
        )
        if self._advanced_enabled:
            from repro.system.advanced import ComparisonAnswerer, ExtremumAnswerer

            self._comparison_answerer = ComparisonAnswerer(
                self._table, self._config.dimensions, realizer=self._realizer
            )
            self._extremum_answerer = ExtremumAnswerer(
                self._table, self._config.dimensions, realizer=self._realizer
            )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def config(self) -> SummarizationConfig:
        """The engine's configuration."""
        return self._config

    @property
    def table(self) -> Table:
        """The data table the engine exposes."""
        return self._table

    @property
    def store(self) -> SpeechStore:
        """The speech store filled during pre-processing."""
        return self._store

    @property
    def summarizer(self) -> Summarizer:
        """The pre-processing algorithm (shared with maintenance)."""
        return self._preprocessor.summarizer

    @property
    def realizer(self) -> SpeechRealizer:
        """The speech realizer (phrasing of targets and dimensions)."""
        return self._realizer

    @property
    def report(self) -> PreprocessingReport | None:
        """The last pre-processing report (None before preprocessing)."""
        return self._report

    @property
    def parser(self) -> NaturalLanguageParser:
        """The natural-language parser."""
        return self._parser

    @property
    def advanced_enabled(self) -> bool:
        """Whether comparison/extremum requests are answered at run time."""
        return self._advanced_enabled

    @property
    def session(self) -> SessionState:
        """The interactive session's repeat-state."""
        return self._session

    # ------------------------------------------------------------------
    # Pre-processing
    # ------------------------------------------------------------------
    def preprocess(
        self,
        max_problems: int | None = None,
        pool: WorkerPool | None = None,
    ) -> PreprocessingReport:
        """Generate speeches for all queries up to the configured length.

        A parallel ``pool`` (a caller-owned
        :class:`repro.system.worker_pool.WorkerPool`; one
        deployment-lifetime pool amortises process start-up across
        repeated pre-processing and maintenance passes) runs the batch
        across its workers; without one it runs serially.  Either way
        the resulting store is identical (see :class:`Preprocessor`).
        """
        self._store, self._report = self._preprocessor.run(
            self._generator,
            store=SpeechStore(),
            max_problems=max_problems,
            pool=pool,
        )
        return self._report

    def save_speeches(self, path: str) -> None:
        """Persist the pre-generated speeches (and the configuration) to JSON."""
        from repro.system.persistence import save_store

        save_store(self._store, path, self._config)

    def load_speeches(self, path: str) -> int:
        """Load pre-generated speeches from a JSON artifact.

        Returns the number of speeches loaded.  The artifact's
        configuration (if present) is ignored; the engine keeps its own.
        """
        from repro.system.persistence import load_store

        store, _config = load_store(path)
        self._store = store
        return len(store)

    def swap_store(self, store: SpeechStore) -> SpeechStore:
        """Replace the engine's speech store, returning the previous one.

        The swap is a single reference assignment (atomic under the
        GIL); requests already answering from the previous store finish
        against it.  The serving service uses this to adopt the final
        maintenance snapshot when it stops.
        """
        previous, self._store = self._store, store
        return previous

    def adopt_table(self, table: Table) -> None:
        """Replace the engine's data table (e.g. after external appends).

        The serving service's maintenance scheduler advances its own
        table with every append; at service stop the engine must follow
        so parsing (new dimension values), advanced answers and any
        future pre-processing see the same data the maintained store
        was built from.  Rebuilds the problem generator, parser and
        advanced answerers against the new table.
        """
        self._table = table
        self._rebuild_table_components()

    # ------------------------------------------------------------------
    # Run time
    # ------------------------------------------------------------------
    def ask(self, text: str) -> VoiceResponse:
        """Answer one voice request (a transcript string).

        The interactive path: answers exactly like :meth:`respond`
        against the engine's own store, and additionally keeps the
        repeat-state.
        """
        start = time.perf_counter()
        parsed, request_type = self.parse_and_classify(text)
        response = self._respond(
            parsed, request_type, last_response=self._session.last_response
        )
        response.latency_seconds = time.perf_counter() - start
        self._session.observe(parsed, response)
        return response

    def parse_and_classify(self, text: str) -> tuple[ParsedRequest, RequestType]:
        """Parse a transcript and classify it (Table III categories).

        Read-only on the engine; the serving service runs this inline
        on its event loop before deciding where to answer the request.
        """
        parsed = self._parser.parse(text)
        return parsed, classify_request(parsed, self._config)

    def respond(
        self,
        text: str,
        store: SpeechStore | None = None,
        last_response: VoiceResponse | None = None,
    ) -> VoiceResponse:
        """Answer one voice request statelessly.

        Unlike :meth:`ask` this touches no engine state: lookups go to
        ``store`` (default: the engine's own store — e.g. pass a
        :class:`repro.serving.snapshots.StoreSnapshot`'s store to answer
        from a consistent snapshot), the session's repeat-state is not
        advanced and repeat requests replay ``last_response`` (the caller owns any
        per-session repeat-state).  Safe for concurrent callers.
        """
        start = time.perf_counter()
        parsed, request_type = self.parse_and_classify(text)
        response = self.respond_to(
            parsed, request_type, store=store, last_response=last_response
        )
        response.latency_seconds = time.perf_counter() - start
        return response

    def respond_to(
        self,
        parsed: ParsedRequest,
        request_type: RequestType,
        store: SpeechStore | None = None,
        last_response: VoiceResponse | None = None,
    ) -> VoiceResponse:
        """Answer an already parsed and classified request statelessly."""
        return self._respond(
            parsed, request_type, store=store, last_response=last_response
        )

    def answer_query(self, query: DataQuery, store: SpeechStore | None = None) -> VoiceResponse:
        """Answer a structured data query directly (bypassing parsing)."""
        start = time.perf_counter()
        response = self._lookup(query, store=store)
        response.latency_seconds = time.perf_counter() - start
        return response

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _respond(
        self,
        parsed: ParsedRequest,
        request_type: RequestType,
        store: SpeechStore | None = None,
        last_response: VoiceResponse | None = None,
    ) -> VoiceResponse:
        if request_type is RequestType.HELP:
            return VoiceResponse(
                kind=ResponseKind.HELP,
                text=self._help_text(),
                request_type=request_type,
            )
        if request_type is RequestType.REPEAT:
            text = last_response.text if last_response else self._help_text()
            return VoiceResponse(
                kind=ResponseKind.REPEAT, text=text, request_type=request_type
            )
        if request_type is RequestType.SUPPORTED_QUERY and parsed.query is not None:
            response = self._lookup(parsed.query, store=store)
            response.request_type = request_type
            return response
        if request_type is RequestType.UNSUPPORTED_QUERY:
            advanced = self._try_advanced(parsed) if self._advanced_enabled else None
            if advanced is not None:
                advanced.request_type = request_type
                return advanced
            return VoiceResponse(
                kind=ResponseKind.UNSUPPORTED,
                text=_UNSUPPORTED_TEXT,
                request_type=request_type,
                query=parsed.query,
            )
        return VoiceResponse(
            kind=ResponseKind.UNSUPPORTED,
            text=self._help_text(),
            request_type=request_type,
        )

    def _lookup(self, query: DataQuery, store: SpeechStore | None = None) -> VoiceResponse:
        store = store if store is not None else self._store
        match = store.best_match(query)
        if match is None:
            return VoiceResponse(
                kind=ResponseKind.NO_DATA,
                text=_NO_DATA_TEXT,
                request_type=RequestType.SUPPORTED_QUERY,
                query=query,
            )
        return VoiceResponse(
            kind=ResponseKind.SPEECH,
            text=match.stored.text,
            request_type=RequestType.SUPPORTED_QUERY,
            query=query,
            exact_match=match.exact,
        )

    def _try_advanced(self, parsed: ParsedRequest) -> VoiceResponse | None:
        """Answer a comparison or extremum request via the extension.

        Returns None when the request cannot be interpreted (missing
        target, too few values), so the caller falls back to the
        standard unsupported-query response.
        """
        from repro.system.nlq import RequestKind

        if parsed.query is None or parsed.query.target not in self._config.targets:
            return None
        target = parsed.query.target

        if parsed.kind is RequestKind.COMPARISON and self._comparison_answerer is not None:
            pairs = self._comparison_pair(parsed)
            if pairs is None:
                return None
            first, second = pairs
            answer = self._comparison_answerer.compare(target, first, second)
            if answer is None:
                return None
            return VoiceResponse(
                kind=ResponseKind.COMPARISON,
                text=answer.text,
                request_type=RequestType.UNSUPPORTED_QUERY,
                query=parsed.query,
            )

        if parsed.kind is RequestKind.EXTREMUM and self._extremum_answerer is not None:
            dimension = parsed.mentioned_dimension
            if dimension is None and parsed.value_mentions:
                dimension = parsed.value_mentions[0][0]
            if dimension is None:
                return None
            base = {
                column: value
                for column, value in parsed.query.predicate_map.items()
                if column != dimension
            }
            answer = self._extremum_answerer.extremum(
                target, dimension, maximize=not parsed.wants_minimum, base_predicates=base
            )
            if answer is None:
                return None
            return VoiceResponse(
                kind=ResponseKind.EXTREMUM,
                text=answer.text,
                request_type=RequestType.UNSUPPORTED_QUERY,
                query=parsed.query,
            )
        return None

    @staticmethod
    def _comparison_pair(parsed: ParsedRequest):
        """The two compared subsets: two values of the same dimension."""
        by_dimension: dict[str, list] = {}
        for dimension, value in parsed.value_mentions:
            bucket = by_dimension.setdefault(dimension, [])
            if value not in bucket:
                bucket.append(value)
        for dimension, values in by_dimension.items():
            if len(values) >= 2:
                return {dimension: values[0]}, {dimension: values[1]}
        return None

    def _help_text(self) -> str:
        target = self._config.targets[0].replace("_", " ")
        dimension = self._config.dimensions[0]
        values = self._table.column(dimension).distinct_values()
        example = str(values[0]) if values else dimension
        return _HELP_TEXT.format(target=target, example=example)
