"""What the engine's caches hold: rewriting templates and their instances,
answers, and bound forms.

A **template** is the result of the first request of its key — the query's
shape (its canonical fingerprint with every constant abstracted to a
parameter), algorithm, mode and one tag per parameter — exactly as the
algorithm returned it.  The rewriting algorithms and the containment test ask
only two things of a query constant: whether it *equals* a constant of a view
definition, and how it *orders* against the other constants of its
``_comparable`` class.  A parameter that equals a view constant (or another,
differently typed constant of the query, or is NaN) is therefore **pinned** —
its tag is its value — and any other is **free**: its tag is its rank among
the view constants of its class, its order against the query's other
constants being part of the shape already.  Two queries of one key differ by
a replacement of free constants that preserves both things, and such a
replacement carries rewritings of one to rewritings of the other
(``docs/paper_mapping.md``, "Shape-parameterised rewriting").  A hit
substitutes the request's variables and free constants into the template's
best rewriting (an :class:`Instance`) and leaves the others to be
instantiated when first read; the result equals what an uncached
:func:`repro.rewriting.rewriter.rewrite` call would have produced, renamed
into the request's variables.  ``inverse-rules`` plans are opaque to
substitution, so every parameter is pinned there.  The keying itself —
which constants pin — is :meth:`repro.api.engine.Engine._param_tags`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, FrozenSet, List, Optional, Tuple, Union

from repro.datalog.freshen import FreshVariableFactory
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.terms import Constant, Term
from repro.datalog.views import ViewSet
from repro.rewriting.plans import Rewriting, RewritingKind, RewritingResult
from repro.service.fingerprint import QueryFingerprint

QueryLike = Union[ConjunctiveQuery, UnionQuery]


@dataclass(frozen=True)
class Template:
    """The first result of a template key, as the algorithm returned it."""

    algorithm: str
    rewritings: Tuple[Rewriting, ...]
    candidates_examined: int
    #: Index of the result's ``best`` in ``rewritings`` (None when empty).
    best: Optional[int]
    #: Fingerprint of the query it was computed for: its renaming and params
    #: are what a later request's are matched against.
    fp: QueryFingerprint


class Instance:
    """A template in one query's own variables and constants.

    ``best`` — all that answering needs — is instantiated at once, the full
    list when something first reads it.  A query text's
    :class:`~repro.api.engine.PreparedQuery` keeps its instance, so every
    request of that text is handed the same objects.
    """

    __slots__ = ("best", "_template", "_mapping", "_avoid", "_all")

    def __init__(
        self, template: Template, mapping: Dict[Term, Term], avoid: FrozenSet[str]
    ):
        self._template = template
        self._mapping = mapping
        self._avoid = avoid
        self._all: Optional[Tuple[Rewriting, ...]] = None
        self.best = (
            None if template.best is None
            else self._instantiate(template.rewritings[template.best])
        )

    def _instantiate(self, rewriting: Rewriting) -> Rewriting:
        return replace(
            rewriting,
            query=retarget(rewriting.query, self._mapping, self._avoid),
            expansion=retarget(rewriting.expansion, self._mapping, self._avoid),
        )

    def rewritings(self) -> Tuple[Rewriting, ...]:
        if self._all is None:
            self._all = tuple(
                self.best if index == self._template.best else self._instantiate(r)
                for index, r in enumerate(self._template.rewritings)
            )
        return self._all


class TemplateHit(RewritingResult):
    """A result served from a template; ``rewritings`` is filled on first read."""

    def __init__(self, query: ConjunctiveQuery, views: ViewSet, instance: Instance):
        template = instance._template
        self.query = query
        self.views = views
        self.algorithm = template.algorithm
        self.candidates_examined = template.candidates_examined
        self.elapsed = 0.0
        self._instance = instance

    @property
    def rewritings(self) -> List[Rewriting]:  # type: ignore[override]
        return list(self._instance.rewritings())

    @property
    def best(self) -> Optional[Rewriting]:
        return self._instance.best


class AnswerEntry:
    """One cached answer: the rows, the predicates they depend on and — once
    a front end has encoded them — their encoded form, which therefore lives
    and dies with the rows (LRU, version flush, delta-scoped eviction)."""

    __slots__ = ("rows", "predicates", "encoded")

    def __init__(self, rows: FrozenSet[Tuple[Any, ...]], predicates: FrozenSet[str]):
        self.rows = rows
        self.predicates = predicates
        self.encoded: Any = None


class BoundForm:
    """What the first answered text of a skeleton leaves for the next ones of
    its key (:meth:`repro.api.engine.Engine.bound_lookup`): that text's query,
    literals and fingerprint, the template it was served from, and per
    disjunct of what it evaluated the plan shape and the constants lifted out
    of it -- all a text of equal key changes is the literals.  ``reply`` is
    the printed half of the answer, with holes for the literals."""

    __slots__ = ("key", "query", "literals", "fp", "template_key", "template",
                 "kind", "plans", "reply")

    def __init__(self, *fields: Any):
        for name, value in zip(self.__slots__, fields):
            setattr(self, name, value)

    def swap(self, literals: Tuple[Constant, ...]) -> Dict[Term, Term]:
        """The replacement that turns the first text's constants into another's."""
        return dict(zip(self.literals, literals))

    def fingerprint(self, literals: Tuple[Constant, ...]) -> QueryFingerprint:
        """The fingerprint of the text with these literals; no refinement run."""
        swap = self.swap(literals)
        return self.fp.with_params(tuple(swap.get(c, c) for c in self.fp.params))

    def instance(self, literals: Tuple[Constant, ...]) -> ConjunctiveQuery:
        """The query the text with these literals would have parsed to."""
        return self.query.replace_terms(self.swap(literals))


def plan_kind(best: Optional[Rewriting]) -> Optional[RewritingKind]:
    """The kind of a rewriting that is evaluated in the query's stead, else None."""
    kind = best.kind if best is not None else None
    return kind if kind in (RewritingKind.EQUIVALENT, RewritingKind.PARTIAL) else None


def retarget(obj: Any, mapping: Dict[Term, Term], avoid_names: FrozenSet[str]) -> Any:
    """Replace a query-like object's variables and constants through ``mapping``.

    Variables outside the mapping's domain (an algorithm's fresh variables)
    are kept, but renamed apart when their names collide with
    ``avoid_names`` (the names the mapping maps *onto*), so the result never
    conflates two distinct variables.  Non-query objects pass through.
    """
    if isinstance(obj, UnionQuery):
        return UnionQuery([retarget(q, mapping, avoid_names) for q in obj.disjuncts])
    if not isinstance(obj, ConjunctiveQuery):
        return obj
    clashing = [
        v for v in obj.variables() if v.name in avoid_names and v not in mapping
    ]
    if clashing:
        factory = FreshVariableFactory(
            reserved=set(avoid_names) | {v.name for v in obj.variables()}, prefix="_S"
        )
        mapping = {**mapping, **{v: factory.fresh(v.name) for v in clashing}}
    return obj.replace_terms(mapping)


def query_predicates(query: QueryLike) -> FrozenSet[str]:
    """The base predicate names a query's answers can depend on."""
    if isinstance(query, UnionQuery):
        names: set = set()
        for disjunct in query.disjuncts:
            names.update(name for name, _arity in disjunct.predicates())
        return frozenset(names)
    return frozenset(name for name, _arity in query.predicates())
