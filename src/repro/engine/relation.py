"""Relations: named sets of fixed-arity tuples in columnar storage, and Skolem values.

Storage layout (the PR-8 columnar refactor)
-------------------------------------------
A relation keeps its data in **per-position value arrays** plus a
**row-presence dict**:

* ``_columns[p]`` is a plain Python list holding every value of column ``p``,
  addressed by *slot* — a small integer assigned when the row is inserted and
  recycled (via a free list) when it is discarded;
* ``_rows`` maps each live row tuple to its slot.  It is the membership test,
  the iteration order, and the source of truth for which slots are live.

Hash indexes (:meth:`Relation.index_on`) map key projections to **ordered
bucket dicts** ``{row_tuple: slot}``.  Iterating a bucket yields row tuples
— what the interpreter and the compiled executor's join kernels
(:mod:`repro.exec.plan`) both do — while ``bucket.values()`` yields slots
into the column arrays (which no join reads any more).
Dict-backed buckets also make :meth:`discard` O(arity + #indexes):
deleting a row from a bucket is a dict deletion, not a list scan, so
delete-heavy deltas are linear instead of quadratic.

Per-column Skolem counters are maintained on every mutation; the parallel
executor consults them (:attr:`Relation.skolem_count`) to fall back to serial
execution when a partitioning column carries Skolem values.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
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
        # reconstruct through the constructor instead so Skolem-bearing
        # answers can cross process boundaries (the parallel executor).
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


#: A hash-index bucket: an insertion-ordered mapping from row tuple to slot.
#: Iterate it for row tuples, read ``.values()`` for column-addressable slots.
Bucket = Dict[Tuple[Any, ...], int]


class Relation:
    """A named, fixed-arity set of tuples of plain Python values.

    The relation stores raw values (``str``/``int``/``float``/``bool`` or
    :class:`SkolemValue`), not term objects, which keeps joins cheap.  See the
    module docstring for the columnar layout; the mutation/access API is
    unchanged from the row-oriented implementation.
    """

    __slots__ = (
        "name",
        "arity",
        "_columns",
        "_rows",
        "_free",
        "_skolem_counts",
        "_indexes",
    )

    def __init__(self, name: str, arity: int, tuples: Iterable[Tuple[Any, ...]] = ()):
        if arity < 0:
            raise SchemaError("relation arity must be non-negative")
        self.name = name
        self.arity = arity
        #: Per-position value arrays, addressed by slot.  Discarded slots keep
        #: stale values; they are unreachable because only ``_rows`` (and the
        #: index buckets, which mirror it) hand out slots.
        self._columns: Tuple[List[Any], ...] = tuple([] for _ in range(arity))
        #: Row-presence dict: live row tuple -> slot (insertion-ordered).
        self._rows: Dict[Tuple[Any, ...], int] = {}
        #: Recycled slots of discarded rows, reused before growing columns.
        self._free: List[int] = []
        #: Per-column count of live rows whose value there is a SkolemValue.
        self._skolem_counts: List[int] = [0] * arity
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
        columns = self._columns
        if self._free:
            slot = self._free.pop()
            for position, value in enumerate(tup):
                columns[position][slot] = value
        else:
            slot = len(self._rows)
            for position, value in enumerate(tup):
                columns[position].append(value)
        self._rows[tup] = slot
        skolem_counts = self._skolem_counts
        for position, value in enumerate(tup):
            if isinstance(value, SkolemValue):
                skolem_counts[position] += 1
        for positions, index in self._indexes.items():
            key = tuple(tup[p] for p in positions)
            bucket = index.get(key)
            if bucket is None:
                index[key] = {tup: slot}
            else:
                bucket[tup] = slot
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
        slot = self._rows.pop(tup, None)
        if slot is None:
            return False
        self._free.append(slot)
        skolem_counts = self._skolem_counts
        for position, value in enumerate(tup):
            if isinstance(value, SkolemValue):
                skolem_counts[position] -= 1
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

    # -- columnar access ---------------------------------------------------------
    def column(self, position: int) -> Sequence[Any]:
        """The raw backing array of one column, addressed by slot.

        Slots of discarded rows hold stale values; index only with slots
        obtained from :meth:`slots`, an index bucket's ``.values()``, or the
        row-presence dict.  Treat the array as read-only.
        """
        if not 0 <= position < self.arity:
            raise SchemaError(
                f"column position {position} out of range for arity {self.arity}"
            )
        return self._columns[position]

    def columns(self) -> Tuple[Sequence[Any], ...]:
        """All column arrays (see :meth:`column` for the slot contract)."""
        return self._columns

    def slots(self) -> Iterable[int]:
        """The live slots, in row insertion order (paired with ``__iter__``)."""
        return self._rows.values()

    def skolem_count(self, position: int) -> int:
        """How many live rows carry a Skolem value in one column (O(1))."""
        if not 0 <= position < self.arity:
            raise SchemaError(
                f"column position {position} out of range for arity {self.arity}"
            )
        return self._skolem_counts[position]

    def has_skolems(self) -> bool:
        """Whether any live row carries a Skolem value in any column (O(arity))."""
        return any(count for count in self._skolem_counts)

    def storage_stats(self) -> Dict[str, Any]:
        """Occupancy of the columnar store (for observability snapshots)."""
        capacity = len(self._columns[0]) if self.arity else len(self._rows)
        return {
            "rows": len(self._rows),
            "capacity": capacity,
            "free_slots": len(self._free),
            "indexes": len(self._indexes),
            "skolem_counts": list(self._skolem_counts),
        }

    # -- relational helpers -------------------------------------------------------
    def copy(self) -> "Relation":
        return Relation(self.name, self.arity, self._rows)

    def project(self, positions: Sequence[int]) -> Set[Tuple[Any, ...]]:
        """The projection of the relation onto the given column positions."""
        for position in positions:
            if not 0 <= position < self.arity:
                raise SchemaError(
                    f"projection position {position} out of range for arity {self.arity}"
                )
        columns = [self._columns[p] for p in positions]
        return {tuple(c[slot] for c in columns) for slot in self._rows.values()}

    def select(self, predicate: Callable[[Tuple[Any, ...]], bool]) -> "Relation":
        """The sub-relation of tuples satisfying a Python predicate."""
        return Relation(self.name, self.arity, (row for row in self._rows if predicate(row)))

    def column_values(self, position: int) -> Set[Any]:
        """Distinct values appearing in one column."""
        column = self.column(position)
        return {column[slot] for slot in self._rows.values()}

    def active_domain(self) -> Set[Any]:
        """All values appearing anywhere in the relation."""
        domain: Set[Any] = set()
        live = self._rows.values()
        for column in self._columns:
            domain.update(column[slot] for slot in live)
        return domain

    def index_on(self, positions: Sequence[int]) -> Dict[Tuple[Any, ...], Bucket]:
        """A hash index mapping key projections to the rows carrying them.

        Each bucket is an insertion-ordered dict ``{row_tuple: slot}`` —
        iterate it for row tuples (the pre-columnar contract) or read
        ``.values()`` for slots into the column arrays.  The index is built
        once per position tuple and then maintained incrementally by
        :meth:`add`/:meth:`discard`, so repeated lookups (and lookups after
        small deltas) never rescan the relation.  The returned mapping is the
        live internal index: treat it as read-only.
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
            for row, slot in self._rows.items():
                key = tuple(row[p] for p in key_positions)
                bucket = index.get(key)
                if bucket is None:
                    index[key] = {row: slot}
                else:
                    bucket[row] = slot
            self._indexes[key_positions] = index
        return index
