"""Figure 9: classifying data-access queries by size and type.

From the deployment logs, the paper reports (a) the number of
predicates per query — most queries restrict a single dimension — and
(b) the query type — most are retrieval queries, fewer ask for
comparisons or extrema.
"""

from __future__ import annotations

from collections import Counter

from repro.datasets import load_dataset
from repro.experiments.runner import ExperimentResult
from repro.system.classification import QueryShape, analyse_requests
from repro.system.config import SummarizationConfig
from repro.system.deployment import DeploymentSimulator
from repro.system.nlq import NaturalLanguageParser
from repro.experiments.table3_requests import DEPLOYMENTS, _MIX_KEYS


def run_figure9(rows_per_dataset: int = 300, seed: int = 11) -> ExperimentResult:
    """Aggregate query complexity and query type over all deployments."""
    predicate_counts: Counter = Counter()
    shape_counts: Counter = Counter()

    for deployment, (dataset_key, dimensions, targets) in DEPLOYMENTS.items():
        dataset = load_dataset(dataset_key, num_rows=rows_per_dataset)
        config = SummarizationConfig.create(
            table=dataset_key,
            dimensions=dimensions,
            targets=targets,
            max_query_length=2,
        )
        simulator = DeploymentSimulator(config, dataset.table, seed=seed)
        log = simulator.generate_log(deployment=_MIX_KEYS[deployment])
        parser = NaturalLanguageParser(config, dataset.table)
        analysis = analyse_requests([parser.parse(entry.text) for entry in log], config)
        predicate_counts.update(analysis.by_predicate_count)
        shape_counts.update(analysis.by_shape)

    result = ExperimentResult(
        name="figure9",
        description="Queries by complexity (number of predicates) and by type",
    )
    for predicates in sorted(predicate_counts):
        result.add_row(
            chart="(a) complexity",
            category=f"{predicates} predicates",
            count=predicate_counts[predicates],
        )
    for shape in QueryShape:
        result.add_row(
            chart="(b) type",
            category=shape.value,
            count=shape_counts.get(shape, 0),
        )
    return result
