"""Cost estimation for the operations the pruning optimizer plans.

Section VI-C of the paper uses two cost estimates obtained from the
query-optimizer cost model:

* ``C_U(g)`` — cost of calculating utility for every fact in group
  ``g``; this requires a scope-match join between facts and data rows
  followed by aggregation.
* ``C_D(g)`` — cost of calculating per-group deviation bounds; this is
  a group-by over the data table without any join.

:func:`join_costs` mirrors a textbook cost model: joins cost
(left cardinality x matching right cardinality) row visits plus the
aggregation pass, group-bys cost one pass over the input.
"""

from __future__ import annotations


def join_costs(row_count: int, facts: int) -> tuple[float, float]:
    """``(C_U(g), C_D(g))`` for a fact group of ``facts`` facts over ``row_count`` rows.

    Every data row joins exactly one fact of the group (the fact whose
    scope values equal the row's values), so the utility join outputs
    ``row_count`` rows: C_U charges the scan of the data table, the
    probe work against the fact table and the aggregation pass.  The
    deviation bound query is a group-by without a join: C_D charges the
    scan and the groups.
    """
    join_output = row_count  # each row falls in exactly one scope of the group
    return float(row_count + facts + 2 * join_output), float(row_count + facts)
