"""The :class:`Catalog`: schema + views + integrity constraints, validated once.

A catalog is the static half of an :class:`~repro.api.engine.Engine`: the
relation schema (name → arity), the view definitions available for rewriting,
and optional integrity constraints.  Everything is cross-validated **once at
construction** so queries, data and deltas can be checked cheaply per request
against a catalog known to be coherent:

* every base predicate used by a view body has one consistent arity, across
  views and against the declared schema;
* when a schema is declared explicitly, views may only mention declared
  relations (catching typos at attach time instead of as empty answers);
* view names cannot shadow base relations;
* constraints are *denial constraints* — boolean conjunctive queries (heads
  of arity 0) that must be **false** on valid data, e.g.
  ``same_course_twice() :- enrolled(S, C), enrolled(S, C2), C != C2.``

The catalog is immutable; engines share it freely.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Mapping, Optional, Tuple, Union

from repro.errors import QueryConstructionError, SchemaError
from repro.datalog.parser import parse_program, parse_views
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.views import View, ViewSet
from repro.engine.database import Database

SchemaLike = Union[None, Mapping[str, int], Iterable[str], str]
ViewsLike = Union[ViewSet, Iterable[View], str, None]
ConstraintsLike = Union[None, str, Iterable[ConjunctiveQuery]]


def _parse_schema(schema: SchemaLike) -> Optional[Dict[str, int]]:
    """Normalize a schema argument to ``{relation: arity}`` (or None)."""
    if schema is None:
        return None
    if isinstance(schema, Mapping):
        out = dict(schema)
    else:
        entries = schema.split() if isinstance(schema, str) else list(schema)
        out = {}
        for entry in entries:
            name, sep, arity_text = str(entry).partition("/")
            if not sep or not name:
                raise SchemaError(
                    f"schema entry {entry!r} must look like 'relation/arity'"
                )
            try:
                out[name] = int(arity_text)
            except ValueError:
                raise SchemaError(
                    f"schema entry {entry!r} has a non-integer arity"
                ) from None
    for name, arity in out.items():
        if not isinstance(arity, int) or arity < 0:
            raise SchemaError(f"relation {name} has invalid arity {arity!r}")
    return out


def as_view_set(views: ViewsLike) -> ViewSet:
    """Normalize a views argument (datalog text, iterable, or ViewSet)."""
    if views is None:
        return ViewSet()
    if isinstance(views, ViewSet):
        return views
    if isinstance(views, str):
        return parse_views(views)
    return ViewSet(list(views))


def _as_constraints(constraints: ConstraintsLike) -> Tuple[ConjunctiveQuery, ...]:
    if constraints is None:
        return ()
    if isinstance(constraints, str):
        parsed: Iterable[ConjunctiveQuery] = parse_program(constraints)
    else:
        parsed = constraints
    out = []
    for constraint in parsed:
        if not isinstance(constraint, ConjunctiveQuery):
            raise QueryConstructionError(
                f"constraints must be conjunctive queries, got {constraint!r}"
            )
        if not constraint.is_boolean:
            raise QueryConstructionError(
                f"constraint {constraint.name} must be boolean (a denial "
                "constraint with an empty head); it has arity "
                f"{constraint.arity}"
            )
        out.append(constraint)
    return tuple(out)


class Catalog:
    """Schema, views and integrity constraints — the engine's static state."""

    __slots__ = ("views", "schema", "declared", "constraints")

    def __init__(
        self,
        schema: SchemaLike = None,
        views: ViewsLike = None,
        constraints: ConstraintsLike = None,
        data_schema: Optional[Mapping[str, int]] = None,
    ):
        view_set = as_view_set(views)
        declared = _parse_schema(schema)
        object.__setattr__(self, "views", view_set)
        object.__setattr__(self, "declared", declared)
        object.__setattr__(self, "constraints", _as_constraints(constraints))
        object.__setattr__(
            self, "schema", self._build_schema(declared, view_set, data_schema)
        )
        self._validate()

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("Catalog is immutable")

    # -- construction-time validation -------------------------------------------
    @staticmethod
    def _build_schema(
        declared: Optional[Dict[str, int]],
        views: ViewSet,
        data_schema: Optional[Mapping[str, int]],
    ) -> Dict[str, int]:
        """The effective schema: declared ∪ inferred-from-views ∪ data relations."""
        schema: Dict[str, int] = dict(declared or {})
        for view in views:
            for atom in view.body:
                name, arity = atom.predicate, len(atom.args)
                known = schema.get(name)
                if known is None:
                    if declared is not None:
                        raise SchemaError(
                            f"view {view.name} uses undeclared relation {name}/{arity}; "
                            f"declared relations: "
                            f"{', '.join(sorted(declared)) or '(none)'}"
                        )
                    schema[name] = arity
                elif known != arity:
                    raise SchemaError(
                        f"view {view.name} uses {name} with arity {arity}, "
                        f"but {name} has arity {known}"
                    )
        for name, arity in (data_schema or {}).items():
            known = schema.get(name)
            if known is None:
                if name not in views:
                    schema[name] = arity
            elif known != arity:
                raise SchemaError(
                    f"attached data has {name} with arity {arity}, "
                    f"but the catalog declares arity {known}"
                )
        return schema

    def _validate(self) -> None:
        for view in self.views:
            if view.name in self.schema:
                raise SchemaError(
                    f"view {view.name} shadows a base relation of the same name"
                )
        for constraint in self.constraints:
            for name, arity in constraint.predicates():
                self._check_predicate(
                    name, arity, f"constraint {constraint.name}"
                )

    def _check_predicate(self, name: str, arity: int, context: str) -> None:
        view = self.views.get(name)
        if view is not None:
            if view.arity != arity:
                raise SchemaError(
                    f"{context} uses view {name} with arity {arity}, "
                    f"but it has arity {view.arity}"
                )
            return
        known = self.schema.get(name)
        if known is None:
            # Only a *declared* schema closes the world; an inferred one
            # (views + data) cannot claim completeness, and querying a
            # relation nothing mentions yet is legitimately empty.
            if self.declared is not None:
                raise SchemaError(
                    f"{context} uses undeclared relation {name}/{arity}; "
                    f"declared relations: "
                    f"{', '.join(sorted(self.declared)) or '(none)'}; "
                    f"views: {', '.join(self.views.names()) or '(none)'}"
                )
            return
        if known != arity:
            raise SchemaError(
                f"{context} uses {name} with arity {arity}, "
                f"but {name} has arity {known}"
            )

    # -- per-request validation ---------------------------------------------------
    def validate_query(self, query: "ConjunctiveQuery | UnionQuery") -> None:
        """Check every predicate a query uses against the catalog.

        Unknown predicates and arity mismatches raise :class:`SchemaError`
        with the known relations listed — at query time, not as silently
        empty answers.  A function term raises
        :class:`~repro.errors.UnsupportedFeatureError`.
        """
        for disjunct in query.disjuncts if isinstance(query, UnionQuery) else (query,):
            disjunct.reject_function_terms(f"query {query.name}")
        for name, arity in query.predicates():
            self._check_predicate(name, arity, f"query {query.name}")

    def validate_database(self, database: Database) -> None:
        """Check an attached base database's relations against the schema.

        Reads only the database's schema (names and arities) — never row
        content — so validating a storage-backed database stays lazy.
        """
        for name, arity in database.schema().items():
            known = self.schema.get(name)
            if known is not None and known != arity:
                raise SchemaError(
                    f"attached data has {name} with arity "
                    f"{arity}, but the catalog declares arity {known}"
                )
            if name in self.views:
                raise SchemaError(
                    f"attached base data contains relation {name}, "
                    "which is a view name (did you mean view_instance=?)"
                )

    def validate_view_instance(self, instance: Database) -> None:
        """Check a view instance: every relation must be a view, arity-correct."""
        for relation in instance.relations():
            view = self.views.get(relation.name)
            if view is None:
                raise SchemaError(
                    f"view instance contains {relation.name}/{relation.arity}, "
                    f"which is not a view; views: "
                    f"{', '.join(self.views.names()) or '(none)'}"
                )
            if view.arity != relation.arity:
                raise SchemaError(
                    f"view instance has {relation.name} with arity "
                    f"{relation.arity}, but the view has arity {view.arity}"
                )

    def check_constraints(self, database: Database) -> Tuple[str, ...]:
        """Names of denial constraints that are violated on ``database``."""
        from repro.engine.evaluate import evaluate_boolean  # avoid an import cycle

        return tuple(
            constraint.name
            for constraint in self.constraints
            if evaluate_boolean(constraint, database)
        )

    # -- introspection -------------------------------------------------------------
    def relations(self) -> Tuple[str, ...]:
        return tuple(sorted(self.schema))

    def describe(self) -> Dict[str, Any]:
        """A machine-readable snapshot (nested under ``engine.stats()``)."""
        return {
            "relations": {name: self.schema[name] for name in sorted(self.schema)},
            "declared": sorted(self.declared) if self.declared is not None else None,
            "views": list(self.views.names()),
            "constraints": [c.name for c in self.constraints],
        }

    def __repr__(self) -> str:
        return (
            f"Catalog(relations={len(self.schema)}, views={len(self.views)}, "
            f"constraints={len(self.constraints)})"
        )
