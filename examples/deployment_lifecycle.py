"""Deployment lifecycle: persist, reload, update, and extend the system.

The paper's public deployment ran for months.  This example walks
through the operational pieces a long-running deployment needs on top
of the core algorithms:

1. pre-process the primaries dataset and *persist* the speech store,
2. reload the store into a fresh engine (simulating a restart),
3. append newly arrived poll results and *incrementally* refresh only
   the affected speeches,
4. answer the comparison / extremum questions the paper's logs list as
   unsupported, using the advanced-query extension.

Run with:  python examples/deployment_lifecycle.py
"""

import tempfile
from pathlib import Path

from repro.datasets import load_dataset
from repro.relational import Table
from repro.system import (
    IncrementalMaintainer,
    SummarizationConfig,
    VoiceQueryEngine,
)
from repro.system.templates import SpeechRealizer, TargetPhrasing


def build_config() -> SummarizationConfig:
    return SummarizationConfig.create(
        table="primaries",
        dimensions=("candidate", "state_region", "month"),
        targets=("support_percentage",),
        max_query_length=1,
        max_facts_per_speech=3,
        max_fact_dimensions=1,
        algorithm="G-O",
    )


def main() -> None:
    dataset = load_dataset("primaries", num_rows=800)
    config = build_config()
    realizer = SpeechRealizer(
        target_phrasings={
            "support_percentage": TargetPhrasing(subject="the support", unit="%", decimals=1)
        }
    )

    # 1. Pre-process and persist.
    engine = VoiceQueryEngine(
        config, dataset.table, realizer=realizer, enable_advanced_queries=True,
        target_synonyms={"support_percentage": ["support", "polling", "poll numbers"]},
    )
    report = engine.preprocess()
    artifact = Path(tempfile.mkdtemp()) / "primaries_speeches.json"
    engine.save_speeches(str(artifact))
    print(f"pre-processed {report.speeches_generated} speeches "
          f"in {report.total_seconds:.1f}s and saved them to {artifact}\n")

    # 2. Reload into a fresh engine (simulating a process restart).
    restarted = VoiceQueryEngine(
        config, dataset.table, realizer=realizer, enable_advanced_queries=True,
        target_synonyms={"support_percentage": ["support", "polling", "poll numbers"]},
    )
    loaded = restarted.load_speeches(str(artifact))
    print(f"restarted engine loaded {loaded} speeches from disk")
    print("user : what is the support for Sanders?")
    print(f"voice: {restarted.ask('what is the support for Sanders?').text}\n")

    # 3. New poll results arrive: refresh only the affected speeches.
    new_polls = Table.from_rows(
        "primaries",
        list(dataset.table.column_names),
        [c.ctype for c in dataset.table.columns],
        [
            ("Sanders", "West", "March", "Online", "Likely voters", 38.0),
            ("Sanders", "West", "March", "Live phone", "Likely voters", 36.0),
            ("Biden", "South", "March", "Online", "Likely voters", 41.0),
        ],
    )
    maintainer = IncrementalMaintainer(config, dataset.table, realizer=realizer)
    maintenance = maintainer.maintain(new_polls, restarted.store)
    print(
        f"appended {maintenance.new_rows} poll rows: "
        f"{maintenance.rebuilt_speeches} speeches refreshed, "
        f"{maintenance.unchanged_speeches} untouched "
        f"({maintenance.total_seconds * 1000:.0f} ms)"
    )
    print("user : what is the support for Sanders?  (after the update)")
    print(f"voice: {restarted.ask('what is the support for Sanders?').text}\n")

    # 4. Advanced questions the original deployment logged as unsupported.
    for question in (
        "compare the support between Sanders and Biden",
        "which candidate has the highest support",
        "which candidate has the lowest support in the Midwest",
    ):
        response = restarted.ask(question)
        print(f"user : {question}")
        print(f"voice: {response.text}  [{response.kind.value}]")


if __name__ == "__main__":
    main()
