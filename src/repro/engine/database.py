"""Databases: collections of relations, plus conversions to/from atoms."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.errors import SchemaError
from repro.datalog.atoms import Atom
from repro.datalog.terms import Constant, Term
from repro.engine.relation import Relation


def term_to_value(term: Term) -> Any:
    """Convert a ground term to the raw value stored in relations."""
    if isinstance(term, Constant):
        return term.value
    raise SchemaError(f"cannot store non-constant term {term!r} in a database")


def value_to_term(value: Any) -> Term:
    """Convert a raw stored value back to a term."""
    return Constant(value)


class Database:
    """A mutable in-memory database: a mapping from relation names to relations."""

    def __init__(self, relations: Iterable[Relation] = ()):
        self._relations: Dict[str, Relation] = {}
        #: Monotonic mutation counter.  Every call that changes the database's
        #: contents bumps it, so caches keyed on (database, version) can detect
        #: staleness without hashing the data.
        self._version = 0
        for relation in relations:
            if relation.name in self._relations:
                raise SchemaError(f"duplicate relation name: {relation.name}")
            self._relations[relation.name] = relation.copy()

    @property
    def version(self) -> int:
        """The current mutation counter (see ``__init__``)."""
        return self._version

    # -- construction ------------------------------------------------------------
    @classmethod
    def from_atoms(cls, atoms: Iterable[Atom]) -> "Database":
        """Build a database from ground atoms (facts)."""
        db = cls()
        for atom in atoms:
            db.add_atom(atom)
        return db

    @classmethod
    def from_dict(cls, data: Mapping[str, Iterable[Sequence[Any]]]) -> "Database":
        """Build a database from ``{relation_name: [tuple, ...]}``."""
        db = cls()
        for name, rows in data.items():
            for row in rows:
                db.add_fact(name, row)
        return db

    # -- mutation -----------------------------------------------------------------
    def add_fact(self, relation_name: str, row: Sequence[Any]) -> bool:
        """Insert a tuple into a relation, creating the relation if needed."""
        values = tuple(row)
        relation = self._relations.get(relation_name)
        if relation is None:
            relation = Relation(relation_name, len(values))
            self._relations[relation_name] = relation
            self._version += 1
        added = relation.add(values)
        if added:
            self._version += 1
        return added

    def add_atom(self, atom: Atom) -> bool:
        """Insert a ground atom as a fact."""
        if not atom.is_ground():
            raise SchemaError(f"cannot insert non-ground atom {atom} as a fact")
        return self.add_fact(atom.predicate, tuple(term_to_value(t) for t in atom.args))

    def remove_fact(self, relation_name: str, row: Sequence[Any]) -> bool:
        """Delete a tuple from a relation; returns True if it was present.

        This is the deletion counterpart of :meth:`add_fact`: it routes the
        mutation through the database so the version counter observes it.
        Calling :meth:`Relation.discard` directly on a relation obtained from
        the database bypasses the counter and can leave stale cache entries
        alive — always delete through here (or :meth:`apply_delta`).
        """
        relation = self._relations.get(relation_name)
        if relation is None:
            return False
        removed = relation.discard(tuple(row))
        if removed:
            self._version += 1
        return removed

    def apply_delta(self, delta: "Delta") -> "Delta":
        """Apply a batch of insertions and deletions; returns the effective delta.

        Deletions are applied before insertions (the staging the incremental
        view-maintenance rules assume).  The returned delta contains only the
        rows that actually changed the database — deletions of absent rows and
        insertions of present rows are dropped — so callers can scope cache
        invalidation and view maintenance to real changes.  The version
        counter observes every applied change.
        """
        from repro.materialize.delta import Delta  # local import to avoid a cycle

        removed: Dict[str, Set[Tuple[Any, ...]]] = {}
        inserted: Dict[str, Set[Tuple[Any, ...]]] = {}
        for name, rows in delta.removed.items():
            for row in rows:
                if self.remove_fact(name, row):
                    removed.setdefault(name, set()).add(tuple(row))
        for name, rows in delta.inserted.items():
            for row in rows:
                if self.add_fact(name, row):
                    inserted.setdefault(name, set()).add(tuple(row))
        return Delta(inserted=inserted, removed=removed)

    def add_relation(self, relation: Relation) -> None:
        """Add (or replace) an entire relation."""
        self._relations[relation.name] = relation.copy()
        self._version += 1

    def ensure_relation(self, name: str, arity: int) -> Relation:
        """Get the named relation, creating an empty one of the given arity if absent.

        Note that the returned :class:`Relation` is mutable; callers that add
        tuples to it directly bypass the version counter and should go through
        :meth:`add_fact` when cache invalidation matters.
        """
        relation = self._relations.get(name)
        if relation is None:
            relation = Relation(name, arity)
            self._relations[name] = relation
            self._version += 1
        elif relation.arity != arity:
            raise SchemaError(
                f"relation {name} exists with arity {relation.arity}, requested {arity}"
            )
        return relation

    def remove_relation(self, name: str) -> None:
        if self._relations.pop(name, None) is not None:
            self._version += 1

    # -- access ----------------------------------------------------------------------
    def relation(self, name: str) -> Optional[Relation]:
        return self._relations.get(name)

    def schema(self) -> Dict[str, int]:
        """Relation name → arity, without touching any relation's content."""
        return {name: relation.arity for name, relation in self._relations.items()}

    def relation_names(self) -> Tuple[str, ...]:
        return tuple(self._relations)

    def relations(self) -> Tuple[Relation, ...]:
        return tuple(self._relations.values())

    def tuples(self, name: str) -> frozenset:
        relation = self._relations.get(name)
        return relation.tuples() if relation is not None else frozenset()

    def __contains__(self, name: object) -> bool:
        return name in self._relations

    def __len__(self) -> int:
        return len(self._relations)

    def __iter__(self) -> Iterator[Relation]:
        return iter(self._relations.values())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Database):
            return NotImplemented
        mine = {name: rel.tuples() for name, rel in self._relations.items() if len(rel)}
        theirs = {name: rel.tuples() for name, rel in other._relations.items() if len(rel)}
        return mine == theirs

    def __repr__(self) -> str:
        inner = ", ".join(f"{r.name}[{len(r)}]" for r in self._relations.values())
        return f"Database({inner})"

    # -- whole-database operations -------------------------------------------------------
    def size(self) -> int:
        """Total number of facts across all relations."""
        return sum(len(r) for r in self._relations.values())

    def storage_stats(self) -> Dict[str, Any]:
        """Per-relation physical storage counters (see :meth:`Relation.storage_stats`)."""
        return {
            name: relation.storage_stats()
            for name, relation in self._relations.items()
        }

    def copy(self) -> "Database":
        return Database(self._relations.values())

    @classmethod
    def sharing(cls, *databases: "Database") -> "Database":
        """A database over the very relations of ``databases`` (a later one's
        taking a repeated name).  No row is copied, so it reads their rows as
        they change, but not the relations they add or drop afterwards."""
        shared = cls()
        for database in databases:
            shared._relations.update(database._relations)
        return shared

    def merge(self, other: "Database") -> "Database":
        """A new database containing the facts of both (arity conflicts raise)."""
        merged = self.copy()
        for relation in other:
            target = merged.ensure_relation(relation.name, relation.arity)
            target.add_all(relation.tuples())
        return merged

    def facts(self) -> List[Atom]:
        """All facts of the database as ground atoms (sorted deterministically)."""
        atoms: List[Atom] = []
        for name in sorted(self._relations):
            relation = self._relations[name]
            for row in sorted(relation.tuples(), key=_row_sort_key):
                atoms.append(Atom(name, tuple(value_to_term(v) for v in row)))
        return atoms

    def active_domain(self) -> Set[Any]:
        """All values appearing anywhere in the database."""
        domain: Set[Any] = set()
        for relation in self._relations.values():
            domain.update(relation.active_domain())
        return domain

    def restrict(self, names: Iterable[str]) -> "Database":
        """The sub-database containing only the named relations."""
        wanted = set(names)
        return Database([r for r in self._relations.values() if r.name in wanted])

def _row_sort_key(row: Tuple[Any, ...]) -> Tuple:
    return tuple((str(type(v)), str(v)) for v in row)
