"""Per-relation / per-position statistics feeding the plan compiler.

The compiled executor (:mod:`repro.exec`) orders joins by estimated output
cardinality, which needs two numbers per relation: its **cardinality** (tuple
count) and, per argument position, the **distinct-value count**.  Both are
exposed through :class:`DatabaseStatistics`, a lazy, version-validated
snapshot over one :class:`~repro.engine.database.Database`:

* cardinalities are read straight off the live relations (always fresh);
* distinct counts are computed on first use per ``(relation, position)`` and
  cached until the database's version counter moves;
* :meth:`DatabaseStatistics.selectivity` turns them into the textbook
  ``1/max(distinct)`` equality-selectivity estimate that the plan compiler
  (and so :func:`repro.exec.estimate_cost`) consumes.

Snapshots are shared through :func:`statistics_for`, keyed by database
identity and revalidated against the version counter, so repeated plan
compilations over a stable database never rescan a column.

>>> from repro.engine.database import Database
>>> db = Database.from_dict({"r": [(1, 2), (1, 3), (2, 3)]})
>>> stats = statistics_for(db)
>>> stats.cardinality("r"), stats.distinct("r", 0), stats.distinct("r", 1)
(3, 2, 2)
"""

from __future__ import annotations

import weakref
from typing import Any, Dict, Optional, Tuple

from repro.engine.database import Database


class DatabaseStatistics:
    """A lazy statistics snapshot over one database, valid for one version."""

    __slots__ = ("_database", "version", "_distinct", "__weakref__")

    def __init__(self, database: Database):
        self._database = database
        #: The database version this snapshot's cached counts describe.
        self.version = database.version
        self._distinct: Dict[Tuple[str, int], int] = {}

    @property
    def fresh(self) -> bool:
        """Whether the snapshot still describes the database's current contents."""
        return self.version == self._database.version

    def cardinality(self, relation_name: str) -> int:
        """Tuple count of a relation (0 for unknown relations)."""
        relation = self._database.relation(relation_name)
        return len(relation) if relation is not None else 0

    def distinct(self, relation_name: str, position: int) -> int:
        """Distinct values in one column (at least 1, so it can divide).

        Computed on first use and cached for the snapshot's lifetime.
        """
        key = (relation_name, position)
        cached = self._distinct.get(key)
        if cached is not None:
            return cached
        relation = self._database.relation(relation_name)
        if relation is None or len(relation) == 0 or position >= relation.arity:
            count = 1
        else:
            count = max(1, len(relation.column_values(position)))
        self._distinct[key] = count
        return count

    def selectivity(self, relation_name: str, position: int) -> float:
        """Estimated fraction of tuples matching an equality on one column."""
        return 1.0 / self.distinct(relation_name, position)

    def estimated_rows(
        self, relation_name: str, restricted_positions: Tuple[int, ...]
    ) -> float:
        """Expected tuples of a relation after equality restrictions.

        ``restricted_positions`` are the argument positions bound by a
        constant or an already-bound join variable; each divides the
        cardinality by its distinct count (independence assumption).
        """
        rows = float(self.cardinality(relation_name))
        for position in restricted_positions:
            rows *= self.selectivity(relation_name, position)
        return rows


# -- shared snapshots --------------------------------------------------------
#
# One snapshot per live database, keyed by identity and revalidated by the
# version counter.  Entries hold a weak reference so statistics never keep a
# database alive, and identity reuse after garbage collection is detected by
# comparing the dereferenced object.

_SNAPSHOTS: Dict[int, Tuple["weakref.ref[Database]", DatabaseStatistics]] = {}
_MAX_SNAPSHOTS = 64


def statistics_for(database: Database) -> DatabaseStatistics:
    """The shared, version-validated statistics snapshot for ``database``."""
    key = id(database)
    entry = _SNAPSHOTS.get(key)
    if entry is not None:
        ref, stats = entry
        if ref() is database and stats.fresh:
            return stats
    stats = DatabaseStatistics(database)
    if len(_SNAPSHOTS) >= _MAX_SNAPSHOTS:
        # Drop dead or stale entries first; fall back to clearing outright.
        for stale_key in [k for k, (r, s) in _SNAPSHOTS.items() if r() is None or not s.fresh]:
            del _SNAPSHOTS[stale_key]
        if len(_SNAPSHOTS) >= _MAX_SNAPSHOTS:
            _SNAPSHOTS.clear()
    _SNAPSHOTS[key] = (weakref.ref(database), stats)
    return stats
