"""Views: named conjunctive queries over the base schema."""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.errors import QueryConstructionError
from repro.datalog.atoms import Atom
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Term, Variable


class View:
    """A materialized view: a name plus the conjunctive query defining it.

    The view's *schema atom* is ``name(X1, ..., Xk)`` where ``X1..Xk`` are the
    head arguments of the defining query.  Rewritings use atoms over the view
    name; expanding them replaces each view atom with the view definition's
    body (after unifying head arguments and freshening existential variables).
    """

    __slots__ = ("name", "definition")

    def __init__(self, name: str, definition: ConjunctiveQuery):
        if not name or not isinstance(name, str):
            raise QueryConstructionError("view name must be a non-empty string")
        if not isinstance(definition, ConjunctiveQuery):
            raise QueryConstructionError("view definition must be a ConjunctiveQuery")
        definition.reject_function_terms(f"view {name}")
        object.__setattr__(self, "name", name)
        # Normalize the definition's head predicate to the view name so that
        # `view.definition.head` doubles as the view's schema atom.
        object.__setattr__(self, "definition", definition.with_name(name))

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("View is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, View):
            return NotImplemented
        return self.name == other.name and self.definition == other.definition

    def __hash__(self) -> int:
        return hash((self.name, self.definition))

    def __repr__(self) -> str:
        return f"View({self.name!r}, {self.definition!s})"

    def __str__(self) -> str:
        return str(self.definition)

    # -- inspection ------------------------------------------------------------
    @property
    def arity(self) -> int:
        return self.definition.arity

    @property
    def head(self) -> Atom:
        """The schema atom of the view (head of the definition)."""
        return self.definition.head

    @property
    def body(self) -> Tuple[Atom, ...]:
        return self.definition.body

    def head_variables(self) -> Tuple[Variable, ...]:
        return self.definition.head_variables()

    def existential_variables(self) -> Tuple[Variable, ...]:
        return self.definition.existential_variables()

    def predicates(self):
        return self.definition.predicates()

    def atom(self, args: Iterable[Term]) -> Atom:
        """A view atom ``name(args)`` for use in a rewriting body."""
        terms = tuple(args)
        if len(terms) != self.arity:
            raise QueryConstructionError(
                f"view {self.name} has arity {self.arity}, got {len(terms)} arguments"
            )
        return Atom(self.name, terms)

    def covers_predicate(self, predicate: str) -> bool:
        """Whether the view definition mentions the given base relation."""
        return any(atom.predicate == predicate for atom in self.body)


class ViewSet:
    """An ordered collection of views with unique names.

    Behaves like an immutable mapping from view name to :class:`View` and an
    iterable of views (in insertion order).
    """

    __slots__ = ("_views", "_version_token")

    def __init__(self, views: Iterable[View] = ()):
        ordered: Dict[str, View] = {}
        for view in views:
            if not isinstance(view, View):
                raise QueryConstructionError(f"expected a View, got {view!r}")
            if view.name in ordered:
                raise QueryConstructionError(f"duplicate view name: {view.name}")
            ordered[view.name] = view
        object.__setattr__(self, "_views", ordered)
        object.__setattr__(self, "_version_token", None)

    def version_token(self) -> int:
        """A token identifying this view set's contents.

        View sets are immutable, so "the views changed" means a *different*
        ``ViewSet`` object is now in play; caches compare tokens to detect
        that.  Equal contents yield equal tokens (within a process); the token
        is computed lazily and cached.
        """
        token = self._version_token
        if token is None:
            token = hash(tuple(self._views.items()))
            object.__setattr__(self, "_version_token", token)
        return token

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("ViewSet is immutable")

    def __iter__(self) -> Iterator[View]:
        return iter(self._views.values())

    def __len__(self) -> int:
        return len(self._views)

    def __contains__(self, name: object) -> bool:
        if isinstance(name, View):
            return name.name in self._views
        return name in self._views

    def __getitem__(self, name: str) -> View:
        return self._views[name]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ViewSet):
            return NotImplemented
        return self._views == other._views

    def __repr__(self) -> str:
        return f"ViewSet({list(self._views)})"

    def get(self, name: str, default: Optional[View] = None) -> Optional[View]:
        return self._views.get(name, default)

    def names(self) -> Tuple[str, ...]:
        return tuple(self._views)

    def add(self, view: View) -> "ViewSet":
        """A new view set with one more view."""
        return ViewSet(list(self) + [view])

    def extend(self, views: Iterable[View]) -> "ViewSet":
        return ViewSet(list(self) + list(views))

    def restrict(self, names: Iterable[str]) -> "ViewSet":
        """The subset of views with the given names (order preserved)."""
        wanted = set(names)
        return ViewSet([v for v in self if v.name in wanted])

    def definitions(self) -> Tuple[ConjunctiveQuery, ...]:
        return tuple(v.definition for v in self)

    def covering(self, predicate: str) -> List[View]:
        """Views whose definitions mention the given base relation."""
        return [v for v in self if v.covers_predicate(predicate)]

    def is_view_predicate(self, predicate: str) -> bool:
        return predicate in self._views


def make_views(definitions: Iterable[ConjunctiveQuery]) -> ViewSet:
    """Wrap a collection of named conjunctive queries as a view set.

    The head predicate of each query becomes the view name.
    """
    return ViewSet([View(q.name, q) for q in definitions])
