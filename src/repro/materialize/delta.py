"""Deltas: batches of inserted and removed facts, keyed by relation name.

A :class:`Delta` is the unit of change flowing through the materialization
subsystem: workload generators produce streams of them, the engine applies
them (:meth:`repro.engine.database.Database.apply_delta`), the store maintains
view extents from them, and the serving layer scopes cache invalidation to
the predicates they touch.

Deltas are immutable and *normalized sequencing-aware*: application order is
always removals first, then insertions (the engine's staging), so a row
listed as both inserted and removed for the same relation means "delete, then
insert" — the row is present afterwards on **every** base state.  The
insertion therefore wins at construction: the row stays in ``inserted`` and
is dropped from ``removed``.  (The old order-insensitive cancellation
silently dropped a delete+reinsert of an absent row.)  A chronological
sequence of changes should be folded through :meth:`Delta.merge`, which is
equivalent to applying the deltas one after the other.
"""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Mapping, Sequence, Tuple

from repro.errors import SchemaError
from repro.datalog.atoms import Atom
from repro.datalog.parser import parse_facts

Row = Tuple[Any, ...]
RowSets = Mapping[str, FrozenSet[Row]]


def _freeze(side: Mapping[str, Iterable[Sequence[Any]]]) -> Dict[str, FrozenSet[Row]]:
    out: Dict[str, FrozenSet[Row]] = {}
    for name, rows in side.items():
        frozen = frozenset(tuple(row) for row in rows)
        if not frozen:
            continue
        arities = {len(row) for row in frozen}
        if len(arities) > 1:
            raise SchemaError(
                f"delta rows for relation {name} have mixed arities {sorted(arities)}"
            )
        out[name] = frozen
    return out


class Delta:
    """An immutable batch of per-relation insertions and deletions."""

    __slots__ = ("inserted", "removed")

    def __init__(
        self,
        inserted: Mapping[str, Iterable[Sequence[Any]]] = (),
        removed: Mapping[str, Iterable[Sequence[Any]]] = (),
    ):
        ins = _freeze(dict(inserted) if inserted else {})
        rem = _freeze(dict(removed) if removed else {})
        # Normalize sequencing-aware: removals apply before insertions, so a
        # row in both sides is removed then re-inserted — present afterwards
        # on every base state.  The insertion wins; the removal is redundant.
        for name in set(ins) & set(rem):
            overlap = ins[name] & rem[name]
            if overlap:
                rem[name] = rem[name] - overlap
        object.__setattr__(
            self, "inserted", {name: rows for name, rows in ins.items() if rows}
        )
        object.__setattr__(
            self, "removed", {name: rows for name, rows in rem.items() if rows}
        )

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("Delta is immutable")

    # -- construction ----------------------------------------------------------
    @classmethod
    def insertion(cls, relation_name: str, rows: Iterable[Sequence[Any]]) -> "Delta":
        """A pure-insert delta over one relation."""
        return cls(inserted={relation_name: rows})

    @classmethod
    def deletion(cls, relation_name: str, rows: Iterable[Sequence[Any]]) -> "Delta":
        """A pure-delete delta over one relation."""
        return cls(removed={relation_name: rows})

    @classmethod
    def from_atoms(
        cls, inserted: Iterable[Atom] = (), removed: Iterable[Atom] = ()
    ) -> "Delta":
        """Build a delta from ground atoms (the datalog-facing constructor)."""
        return cls(inserted=_atoms_to_rows(inserted), removed=_atoms_to_rows(removed))

    # -- inspection ------------------------------------------------------------
    def is_empty(self) -> bool:
        return not self.inserted and not self.removed

    def size(self) -> int:
        """Total number of changed rows (insertions plus deletions)."""
        return sum(len(rows) for rows in self.inserted.values()) + sum(
            len(rows) for rows in self.removed.values()
        )

    def predicates(self) -> FrozenSet[str]:
        """Names of the relations this delta touches."""
        return frozenset(self.inserted) | frozenset(self.removed)

    def inserted_rows(self, relation_name: str) -> FrozenSet[Row]:
        return self.inserted.get(relation_name, frozenset())

    def removed_rows(self, relation_name: str) -> FrozenSet[Row]:
        return self.removed.get(relation_name, frozenset())

    # -- algebra -----------------------------------------------------------------
    def inverted(self) -> "Delta":
        """The delta undoing this one (insertions and deletions swapped)."""
        return Delta(inserted=self.removed, removed=self.inserted)

    def merge(self, other: "Delta") -> "Delta":
        """The sequential composition ``self`` then ``other``, as one delta.

        Sequencing-aware: per row, the *later* operation wins, so applying the
        merged delta to any base state leaves exactly the state that applying
        ``self`` and then ``other`` would (``apply(merge(d1, d2)) ==
        apply(d1); apply(d2)``, set-semantically).  In particular
        ``(+r).merge(-r)`` removes ``r`` — it does not cancel to the empty
        delta.
        """
        inserted: Dict[str, set] = {name: set(rows) for name, rows in self.inserted.items()}
        removed: Dict[str, set] = {name: set(rows) for name, rows in self.removed.items()}
        for name, rows in other.removed.items():
            if name in inserted:
                inserted[name] -= rows
            removed.setdefault(name, set()).update(rows)
        for name, rows in other.inserted.items():
            if name in removed:
                removed[name] -= rows
            inserted.setdefault(name, set()).update(rows)
        return Delta(inserted=inserted, removed=removed)

    # -- protocol ---------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Delta):
            return NotImplemented
        return self.inserted == other.inserted and self.removed == other.removed

    def __hash__(self) -> int:
        return hash(
            (
                tuple(sorted((n, rows) for n, rows in self.inserted.items())),
                tuple(sorted((n, rows) for n, rows in self.removed.items())),
            )
        )

    def __repr__(self) -> str:
        plus = sum(len(r) for r in self.inserted.values())
        minus = sum(len(r) for r in self.removed.values())
        return f"Delta(+{plus}, -{minus} over {sorted(self.predicates())})"

    def __str__(self) -> str:
        return self.to_text()

    # -- (de)serialization ---------------------------------------------------------
    def to_text(self) -> str:
        """A datalog-style listing: one ``+ fact.`` / ``- fact.`` line per change.

        Removals are listed first, mirroring the application order (a
        normalized delta's sides are disjoint, so either order round-trips
        through :func:`parse_delta`).
        """
        lines = []
        for sign, side in (("-", self.removed), ("+", self.inserted)):
            for name in sorted(side):
                for row in sorted(side[name], key=repr):
                    args = ", ".join(_value_to_text(v) for v in row)
                    lines.append(f"{sign} {name}({args}).")
        return "\n".join(lines)


def _atoms_to_rows(atoms: Iterable[Atom]) -> Dict[str, list]:
    from repro.engine.database import term_to_value  # local import to avoid a cycle

    rows: Dict[str, list] = {}
    for atom in atoms:
        if not atom.is_ground():
            raise SchemaError(f"delta facts must be ground, got {atom}")
        rows.setdefault(atom.predicate, []).append(
            tuple(term_to_value(t) for t in atom.args)
        )
    return rows


#: Characters that must be escaped inside a double-quoted string literal:
#: the delimiter and backslash, plus the common named controls.
_STRING_ESCAPES = {"\\": "\\\\", '"': '\\"', "\n": "\\n", "\r": "\\r", "\t": "\\t"}


def _escape_string(value: str) -> str:
    out = []
    for char in value:
        escaped = _STRING_ESCAPES.get(char)
        if escaped is not None:
            out.append(escaped)
        elif char.isprintable():
            out.append(char)
        else:
            # Non-printable characters include every code point
            # ``str.splitlines`` treats as a line boundary (\x0b, \x0c,
            # \x85,  , ...) — they MUST be escaped or the line-based
            # delta format (and the WAL built on it) would split the fact.
            code = ord(char)
            out.append(f"\\u{code:04x}" if code <= 0xFFFF else f"\\U{code:08x}")
    return "".join(out)


def _value_to_text(value: Any) -> str:
    """One value as a datalog term that parses back to an equal value.

    Strings are quoted with backslash escapes; bools are written as ints
    (``True == 1`` in Python, so row equality is preserved); floats use
    ``repr`` (shortest exact form, exponents included).  Values the datalog
    syntax cannot express — non-finite floats, arbitrary objects — raise :class:`SchemaError` so a delta that cannot round-trip
    fails loudly at serialization time, not at WAL replay.
    """
    if isinstance(value, str):
        return f'"{_escape_string(value)}"'
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        if value != value or value in (float("inf"), float("-inf")):
            raise SchemaError(
                f"non-finite float {value!r} cannot be written as delta text"
            )
        return repr(value)
    raise SchemaError(
        f"value {value!r} of type {type(value).__name__} cannot be written "
        "as delta text (only str, bool, int and finite float round-trip)"
    )


def parse_delta(text: str) -> Delta:
    """Parse the ``+ fact.`` / ``- fact.`` format produced by :meth:`Delta.to_text`.

    Blank lines and ``#`` comments are ignored; every other line must start
    with ``+`` or ``-`` followed by a ground fact in datalog syntax.  Lines
    are folded *sequentially* (each line is a singleton delta merged onto the
    previous ones), so listing ``+ r(1).`` and then ``- r(1).`` removes the
    row while the opposite order inserts it — the text reads as a change
    script, top to bottom.
    """
    inserted: Dict[str, set] = {}
    removed: Dict[str, set] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#") or line.startswith("%"):
            continue
        if line.startswith("+"):
            later, earlier = inserted, removed
        elif line.startswith("-"):
            later, earlier = removed, inserted
        else:
            raise SchemaError(
                f"delta line {lineno} must start with '+' or '-': {raw!r}"
            )
        for predicate, row in parse_facts(line[1:].strip()):
            earlier.get(predicate, set()).discard(row)
            later.setdefault(predicate, set()).add(row)
    return Delta(inserted=inserted, removed=removed)
