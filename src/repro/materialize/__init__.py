"""Materialized views with incremental maintenance.

The paper's core scenario is answering queries from *materialized* views;
this package makes those materializations first-class and keeps them fresh
under data churn:

* :class:`~repro.materialize.delta.Delta` — an immutable batch of inserted
  and removed facts (with a ``+ fact.`` / ``- fact.`` text format);
* :mod:`~repro.materialize.counting` — the counting (multiplicity) delta
  rules that maintain conjunctive view extents exactly, deletions included;
* :class:`~repro.materialize.store.MaterializedViewStore` — extents plus
  derivation counts over a live base database, maintained per delta (a view
  whose counts turn out inconsistent is recomputed);
* :class:`~repro.materialize.changelog.ChangeLog` — which predicates and
  views a delta actually changed, driving the serving layer's delta-scoped
  cache invalidation.
"""

from repro.materialize.changelog import ChangeLog, ViewChange
from repro.materialize.compare import assert_consistent, recomputed_extents, verify_extents
from repro.materialize.counting import (
    CountInconsistencyError,
    apply_count_changes,
    delta_counts,
    derivation_counts,
)
from repro.materialize.delta import Delta, parse_delta
from repro.materialize.store import MaterializedViewStore

__all__ = [
    "ChangeLog",
    "CountInconsistencyError",
    "Delta",
    "MaterializedViewStore",
    "ViewChange",
    "apply_count_changes",
    "assert_consistent",
    "delta_counts",
    "derivation_counts",
    "parse_delta",
    "recomputed_extents",
    "verify_extents",
]
