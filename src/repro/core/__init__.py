"""Core problem model of the paper: facts, speeches, user expectations, utility.

The problem model (Section II) is defined over a relation with
dimension columns and one numeric target column.  A *fact* pairs a
scope (equality constraints on a subset of dimensions) with a typical
value (the average target value within scope).  A *speech* is a small
set of facts.  Utility measures how much a speech reduces the deviation
between the listener's expectations and the actual data, relative to a
prior.
"""

from repro.core.errors import CoreError, InvalidFactError, InvalidProblemError
from repro.core.model import Fact, Scope, Speech, SummarizationRelation
from repro.core.priors import (
    ConstantPrior,
    GlobalAveragePrior,
    Prior,
    ZeroPrior,
)
from repro.core.expectation import (
    AverageOfAllFactsModel,
    AverageOfScopeFactsModel,
    ClosestRelevantFactModel,
    ExpectationModel,
    FarthestRelevantFactModel,
)
from repro.core.kernel import FactScopeIndex
from repro.core.utility import UtilityEvaluator
from repro.core.problem import SummarizationProblem

__all__ = [
    "CoreError",
    "InvalidFactError",
    "InvalidProblemError",
    "Scope",
    "Fact",
    "Speech",
    "SummarizationRelation",
    "Prior",
    "ZeroPrior",
    "ConstantPrior",
    "GlobalAveragePrior",
    "ExpectationModel",
    "ClosestRelevantFactModel",
    "FarthestRelevantFactModel",
    "AverageOfScopeFactsModel",
    "AverageOfAllFactsModel",
    "FactScopeIndex",
    "UtilityEvaluator",
    "SummarizationProblem",
]
