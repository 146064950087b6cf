"""The materialized-view store: extents over a base database, kept fresh.

A :class:`MaterializedViewStore` owns the *view instance* — one relation per
view holding the view's current answers over a live base
:class:`~repro.engine.database.Database` — together with the per-row
derivation counts that make incremental maintenance exact under deletions.

Change flows through :meth:`apply_delta`: the delta is applied to the base
database (deletions first — the staging the counting rules assume), then each
view whose definition mentions an affected predicate is maintained by the
delta rules of :mod:`repro.materialize.counting`; views that cannot be
maintained incrementally (unsupported definitions, or a detected count
inconsistency) fall back to full recomputation automatically.  Views whose
definitions do not mention any touched predicate are left alone — their
extents (and anything cached against them) survive the churn.  Every call
returns a :class:`~repro.materialize.changelog.ChangeLog` saying exactly
which base predicates and which views changed.

Out-of-band mutations (callers touching the base database directly) are
detected through the database's version counter and resolved by a full
re-materialization on the next access — correctness never depends on callers
being disciplined, only performance does.
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.errors import MaterializationError
from repro.datalog.views import View, ViewSet
from repro.engine.database import Database
from repro.engine.relation import Relation
from repro.materialize.changelog import (
    STRATEGY_INCREMENTAL,
    STRATEGY_RECOMPUTE,
    STRATEGY_UNAFFECTED,
    ChangeLog,
    ViewChange,
)
from repro.materialize.counting import (
    CountInconsistencyError,
    apply_count_changes,
    delta_counts,
    derivation_counts,
)
from repro.materialize.delta import Delta, Row


#: Version tag of the exported-state structure (bumped on layout change).
STATE_FORMAT = 1


class MaterializedViewStore:
    """Materialized extents of a view set over a live base database.

    ``state`` may carry a previously :meth:`export_state`-ed set of
    derivation counters taken against *exactly* the current base database
    (the recovery path's contract); views present in it skip the initial
    full computation.  An unusable state is ignored — the store falls back
    to :meth:`materialize`, its normal self-heal.
    """

    def __init__(
        self,
        views: "ViewSet | Iterable[View]",
        database: Database,
        state: Optional[Dict[str, Any]] = None,
    ):
        self._views: ViewSet = views if isinstance(views, ViewSet) else ViewSet(list(views))
        self._database = database
        #: predicate name -> names of views whose definitions mention it.
        self._views_by_predicate: Dict[str, List[str]] = {}
        for view in self._views:
            for predicate, _arity in view.definition.predicates():
                self._views_by_predicate.setdefault(predicate, []).append(view.name)
        self._counts: Dict[str, Counter] = {}
        self._instance = Database()
        self._db_version: Optional[int] = None
        # Maintenance accounting (surfaced through stats()).
        self.deltas_applied = 0
        self.views_maintained = 0
        self.views_recomputed = 0
        self.views_skipped = 0
        self.full_refreshes = 0
        self.restored_views = 0
        if state is None or not self._restore_state(state):
            self.materialize()

    # -- accessors ---------------------------------------------------------------
    @property
    def views(self) -> ViewSet:
        return self._views

    @property
    def database(self) -> Database:
        return self._database

    def extent(self, view_name: str) -> FrozenSet[Row]:
        """The current rows of one view (refreshing first if the base moved)."""
        self._ensure_fresh()
        if view_name not in self._views:
            raise MaterializationError(f"unknown view {view_name!r}")
        return self._instance.tuples(view_name)

    def derivation_count(self, view_name: str, row: Tuple[Any, ...]) -> int:
        """How many derivations currently support ``row`` in ``view_name``."""
        self._ensure_fresh()
        counts = self._counts.get(view_name)
        return counts.get(tuple(row), 0) if counts is not None else 0

    def as_database(self) -> Database:
        """The live view instance: one relation per view, named after it.

        The same object is returned across calls and maintained in place by
        :meth:`apply_delta`, so evaluation plans holding it see updates
        without re-materialization.
        """
        self._ensure_fresh()
        return self._instance

    def views_affected_by(self, predicates: Iterable[str]) -> Tuple[str, ...]:
        """Names of views whose definitions mention any of ``predicates``."""
        affected = {
            name
            for predicate in predicates
            for name in self._views_by_predicate.get(predicate, ())
        }
        return tuple(view.name for view in self._views if view.name in affected)

    # -- full (re)computation -------------------------------------------------------
    def materialize(self) -> None:
        """(Re)compute every extent and derivation count from scratch."""
        self._instance = Database()
        self._counts = {}
        for view in self._views:
            self._instance.ensure_relation(view.name, view.arity)
            self._recompute_view(view)
        self._db_version = self._database.version
        self.full_refreshes += 1

    def refresh(self, view_name: str) -> None:
        """Fully recompute one view's extent and counts."""
        view = self._views.get(view_name)
        if view is None:
            raise MaterializationError(f"unknown view {view_name!r}")
        self._recompute_view(view)

    def _recompute_view(self, view: View) -> Tuple[FrozenSet[Row], FrozenSet[Row]]:
        """Recompute one view; returns the extent (inserted, removed) diff."""
        counts = derivation_counts(view.definition, self._database)
        old_rows = self._instance.tuples(view.name)
        new_rows = frozenset(counts)
        self._instance.ensure_relation(view.name, view.arity)
        self._counts[view.name] = counts
        if not old_rows:  # a first extent: one relation, built whole
            self._instance.add_relation(Relation(view.name, view.arity, counts))
            return new_rows, old_rows
        for row in old_rows - new_rows:
            self._instance.remove_fact(view.name, row)
        for row in new_rows - old_rows:
            self._instance.add_fact(view.name, row)
        return new_rows - old_rows, old_rows - new_rows

    # -- incremental maintenance -----------------------------------------------------
    def apply_delta(self, delta: Delta) -> ChangeLog:
        """Apply ``delta`` to the base database and maintain every extent.

        Returns a change log recording the effective base delta and, per
        view, the extent rows gained/lost and the strategy used.
        """
        self._ensure_fresh()
        effective = self._database.apply_delta(delta)
        self._db_version = self._database.version
        self.deltas_applied += 1
        affected = set(self.views_affected_by(effective.predicates()))
        view_changes: List[ViewChange] = []
        for view in self._views:
            if view.name not in affected:
                self.views_skipped += 1
                view_changes.append(
                    ViewChange(view.name, frozenset(), frozenset(), STRATEGY_UNAFFECTED)
                )
                continue
            view_changes.append(self._maintain_view(view, effective))
        return ChangeLog(delta=effective, view_changes=tuple(view_changes))

    def _maintain_view(self, view: View, effective: Delta) -> ViewChange:
        try:
            changes = delta_counts(view.definition, self._database, effective)
            inserted, removed = apply_count_changes(self._counts[view.name], changes)
            strategy = STRATEGY_INCREMENTAL
            self.views_maintained += 1
        except CountInconsistencyError:
            inserted, removed = self._recompute_view(view)
            self.views_recomputed += 1
            return ViewChange(view.name, inserted, removed, STRATEGY_RECOMPUTE)
        self._instance.ensure_relation(view.name, view.arity)
        for row in removed:
            self._instance.remove_fact(view.name, row)
        for row in inserted:
            self._instance.add_fact(view.name, row)
        return ViewChange(view.name, inserted, removed, strategy)

    # -- checkpoint state ---------------------------------------------------------
    def export_state(self) -> Dict[str, Any]:
        """A picklable image of the derivation counters (for snapshots).

        Valid only against the base database as it is *right now*; the
        storage layer records the matching WAL sequence number alongside it.
        """
        self._ensure_fresh()
        return {
            "format": STATE_FORMAT,
            "counts": {
                name: dict(counts) for name, counts in self._counts.items()
            },
        }

    def _restore_state(self, state: Dict[str, Any]) -> bool:
        """Adopt exported counters instead of computing; False when unusable."""
        if not isinstance(state, dict) or state.get("format") != STATE_FORMAT:
            return False
        counts_by_view = state.get("counts")
        if not isinstance(counts_by_view, dict):
            return False
        self._instance = Database()
        self._counts = {}
        for view in self._views:
            self._instance.ensure_relation(view.name, view.arity)
            saved = counts_by_view.get(view.name)
            if saved is None:
                # A view added since the snapshot: compute it the normal way.
                self._recompute_view(view)
                self.views_recomputed += 1
                continue
            counter = Counter({tuple(row): int(n) for row, n in saved.items()})
            self._counts[view.name] = counter
            for row in counter:
                self._instance.add_fact(view.name, row)
            self.restored_views += 1
        self._db_version = self._database.version
        return True

    # -- freshness ----------------------------------------------------------------
    def is_stale(self) -> bool:
        """Whether the base database changed behind the store's back."""
        return self._db_version != self._database.version

    def _ensure_fresh(self) -> None:
        if self.is_stale():
            self.materialize()

    # -- introspection ----------------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        return {
            "views": len(self._views),
            "extent_rows": self._instance.size(),
            "tracked_derivations": sum(
                sum(c.values()) for c in self._counts.values()
            ),
            "deltas_applied": self.deltas_applied,
            "views_maintained": self.views_maintained,
            "views_recomputed": self.views_recomputed,
            "views_skipped": self.views_skipped,
            "full_refreshes": self.full_refreshes,
            "restored_views": self.restored_views,
            "base_version": self._db_version,
        }

    def __repr__(self) -> str:
        return (
            f"MaterializedViewStore(views={len(self._views)}, "
            f"rows={self._instance.size()}, deltas={self.deltas_applied})"
        )
