"""Candidate fact enumeration and fact-group machinery.

The system considers one fact for each data subset defined by a
conjunction of the query predicates plus (by default) up to two
additional equality predicates on the dimensions (Section III).  Facts
are organised into *fact groups*, characterised by the set of
restricted dimension columns; groups are the granularity at which the
pruning of Section VI operates.
"""

from repro.facts.groups import FactGroup, enumerate_fact_groups, specializations
from repro.facts.generation import FactGenerator, GeneratedFacts

__all__ = [
    "FactGroup",
    "enumerate_fact_groups",
    "specializations",
    "FactGenerator",
    "GeneratedFacts",
]
