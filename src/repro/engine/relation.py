"""Relations: named sets of fixed-arity tuples, and Skolem values.

Storage layout
--------------
A relation is one **insertion-ordered row dict** (``_rows``, row tuple ->
``None``) plus lazily built **hash indexes**.  The row dict is the
membership test, the iteration order and the only copy of the data.

Hash indexes (:meth:`Relation.index_on`) map key projections to **ordered
bucket dicts** keyed by row tuple.  Iterating a bucket yields row tuples —
what the interpreter and the compiled executor's join kernels
(:mod:`repro.exec.plan`) both do.  Dict-backed buckets make
:meth:`discard` O(arity + #indexes): deleting a row from a bucket is a dict
deletion, not a list scan, so delete-heavy deltas are linear instead of
quadratic.
"""

from __future__ import annotations

from typing import (
    Any,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    Sequence,
    Set,
    Tuple,
)

from repro.errors import SchemaError


class SkolemValue:
    """An opaque value invented by the inverse-rules algorithm.

    A Skolem value ``f(v1, ..., vk)`` stands for the unknown witness of a
    view's existential variable.  Two Skolem values are equal iff they were
    built from the same function name and the same arguments; they are never
    equal to ordinary values.  Query answers containing Skolem values are not
    certain answers and are filtered out by the certain-answer computation.
    """

    __slots__ = ("function", "args")

    def __init__(self, function: str, args: Sequence[Any] = ()):
        object.__setattr__(self, "function", function)
        object.__setattr__(self, "args", tuple(args))

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("SkolemValue is immutable")

    def __reduce__(self):
        # Default pickling would restore slots via setattr (blocked above);
        # reconstruct through the constructor instead: snapshot store state
        # (materialized extents) can carry Skolem values.
        return (SkolemValue, (self.function, self.args))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SkolemValue)
            and other.function == self.function
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return hash(("skolem", self.function, self.args))

    def __repr__(self) -> str:
        return f"SkolemValue({self.function!r}, {list(self.args)!r})"

    def __str__(self) -> str:
        return f"{self.function}({', '.join(str(a) for a in self.args)})"


def contains_skolem(values: Iterable[Any]) -> bool:
    """Whether any value in a tuple (or iterable) is a Skolem value."""
    return any(isinstance(v, SkolemValue) for v in values)


#: A hash-index bucket: an insertion-ordered dict keyed by row tuple (values
#: unused).  Iterate it for row tuples.
Bucket = Dict[Tuple[Any, ...], None]


class Relation:
    """A named, fixed-arity set of tuples of plain Python values.

    The relation stores raw values (``str``/``int``/``float``/``bool`` or
    :class:`SkolemValue`), not term objects, which keeps joins cheap.  See the
    module docstring for the storage layout.
    """

    __slots__ = ("name", "arity", "_rows", "_indexes")

    def __init__(self, name: str, arity: int, tuples: Iterable[Tuple[Any, ...]] = ()):
        if arity < 0:
            raise SchemaError("relation arity must be non-negative")
        self.name = name
        self.arity = arity
        #: Row-presence dict: live row tuple -> None (insertion-ordered).
        self._rows: Dict[Tuple[Any, ...], None] = {}
        # Lazily-built hash indexes keyed by column positions, maintained
        # incrementally by add/discard so deltas never force a rebuild.
        self._indexes: Dict[Tuple[int, ...], Dict[Tuple[Any, ...], Bucket]] = {}
        for row in tuples:
            self.add(row)

    # -- mutation --------------------------------------------------------------
    def add(self, row: Sequence[Any]) -> bool:
        """Insert a tuple; returns True if it was new."""
        tup = tuple(row)
        if len(tup) != self.arity:
            raise SchemaError(
                f"relation {self.name} has arity {self.arity}, got tuple of length {len(tup)}"
            )
        if tup in self._rows:
            return False
        self._rows[tup] = None
        for positions, index in self._indexes.items():
            key = tuple(tup[p] for p in positions)
            bucket = index.get(key)
            if bucket is None:
                index[key] = {tup: None}
            else:
                bucket[tup] = None
        return True

    def add_all(self, rows: Iterable[Sequence[Any]]) -> int:
        """Insert many tuples; returns the number of new tuples."""
        added = 0
        for row in rows:
            if self.add(row):
                added += 1
        return added

    def discard(self, row: Sequence[Any]) -> bool:
        """Remove a tuple if present; returns True if it was there.

        O(arity + #indexes): index buckets are dicts, so removing the row from
        each is a single deletion — repeated delete/reinsert churn on a hot
        key never degrades into a per-delete bucket scan.

        Note: a bare relation carries no version counter.  When the relation
        belongs to a :class:`repro.engine.database.Database` and cache
        invalidation matters, mutate through :meth:`Database.remove_fact` (or
        :meth:`Database.apply_delta`) so the database's version counter — and
        any change log — observes the mutation.
        """
        tup = tuple(row)
        if tup not in self._rows:
            return False
        del self._rows[tup]
        for positions, index in self._indexes.items():
            key = tuple(tup[p] for p in positions)
            bucket = index.get(key)
            if bucket is not None:
                bucket.pop(tup, None)
                if not bucket:
                    del index[key]
        return True

    # -- access -----------------------------------------------------------------
    def tuples(self) -> FrozenSet[Tuple[Any, ...]]:
        return frozenset(self._rows)

    def __iter__(self) -> Iterator[Tuple[Any, ...]]:
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, row: object) -> bool:
        return tuple(row) in self._rows if isinstance(row, (tuple, list)) else False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Relation):
            return NotImplemented
        return (
            self.name == other.name
            and self.arity == other.arity
            and self._rows.keys() == other._rows.keys()
        )

    def __repr__(self) -> str:
        return f"Relation({self.name!r}, arity={self.arity}, size={len(self._rows)})"

    def storage_stats(self) -> Dict[str, Any]:
        """Occupancy of the row store (for observability snapshots)."""
        return {"rows": len(self._rows), "indexes": len(self._indexes)}

    # -- relational helpers -------------------------------------------------------
    def copy(self) -> "Relation":
        return Relation(self.name, self.arity, self._rows)

    def column_values(self, position: int) -> Set[Any]:
        """Distinct values appearing in one column."""
        if not 0 <= position < self.arity:
            raise SchemaError(
                f"column position {position} out of range for arity {self.arity}"
            )
        return {row[position] for row in self._rows}

    def active_domain(self) -> Set[Any]:
        """All values appearing anywhere in the relation."""
        domain: Set[Any] = set()
        for row in self._rows:
            domain.update(row)
        return domain

    def index_on(self, positions: Sequence[int]) -> Dict[Tuple[Any, ...], Bucket]:
        """A hash index mapping key projections to the rows carrying them.

        Each bucket is an insertion-ordered dict keyed by row tuple — iterate
        it for the rows.  The index is built once per position tuple and then
        maintained incrementally by :meth:`add`/:meth:`discard`, so repeated
        lookups (and lookups after small deltas) never rescan the relation.
        The returned mapping is the live internal index: treat it as
        read-only.
        """
        key_positions = tuple(positions)
        for position in key_positions:
            if not 0 <= position < self.arity:
                raise SchemaError(
                    f"index position {position} out of range for arity {self.arity}"
                )
        index = self._indexes.get(key_positions)
        if index is None:
            index = {}
            for row in self._rows:
                key = tuple(row[p] for p in key_positions)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = {row: None}
                else:
                    bucket[row] = None
            self._indexes[key_positions] = index
        return index
