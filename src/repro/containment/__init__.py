"""Query containment, equivalence and minimization.

The containment test is the engine room of the whole rewriting machinery:
every rewriting algorithm ultimately justifies its output by containment
arguments (a candidate rewriting is *complete* iff its expansion is equivalent
to the query, and *contained* iff its expansion is contained in the query).

Three layers are provided:

* :mod:`repro.containment.homomorphism` — containment mappings between pure
  conjunctive queries (the Chandra–Merlin NP test).
* :mod:`repro.containment.constraints` — reasoning about conjunctions of
  arithmetic comparisons (satisfiability and implication).
* :mod:`repro.containment.interpreted` — containment of conjunctive queries
  with comparison subgoals, via the total-preorder canonical-database test.

:mod:`repro.containment.containment` dispatches to the appropriate test and
also covers unions of conjunctive queries; :mod:`repro.containment.minimize`
computes minimal equivalent queries (cores).
"""

from repro.containment.homomorphism import (
    containment_mappings,
    count_containment_mappings,
    find_containment_mapping,
    find_homomorphism,
    homomorphisms,
)
from repro.containment.constraints import ComparisonSet
from repro.containment.containment import (
    is_contained,
    is_contained_in_union,
    is_equivalent,
    is_satisfiable,
    union_contained_in,
    union_equivalent,
)
from repro.containment.memo import (
    ContainmentMemo,
    containment_memo_stats,
    global_containment_memo,
    memo_disabled,
)
from repro.containment.minimize import is_minimal, minimize
from repro.containment.interpreted import interpreted_contained

__all__ = [
    "ComparisonSet",
    "ContainmentMemo",
    "containment_mappings",
    "containment_memo_stats",
    "count_containment_mappings",
    "find_containment_mapping",
    "find_homomorphism",
    "global_containment_memo",
    "homomorphisms",
    "interpreted_contained",
    "is_contained",
    "is_contained_in_union",
    "is_equivalent",
    "is_minimal",
    "is_satisfiable",
    "memo_disabled",
    "minimize",
    "union_contained_in",
    "union_equivalent",
]
