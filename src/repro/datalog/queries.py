"""Conjunctive queries and unions of conjunctive queries."""

from __future__ import annotations

from typing import Any, Dict, FrozenSet, Iterable, Iterator, Mapping, Optional, Tuple

from repro.errors import QueryConstructionError, UnsafeQueryError
from repro.datalog.atoms import Atom, Comparison
from repro.datalog.substitution import Substitution
from repro.datalog.terms import Constant, Term, Variable


class ConjunctiveQuery:
    """A conjunctive query ``head :- body, comparisons``.

    * ``head`` is an atom whose arguments are the distinguished terms of the
      query (variables or constants).
    * ``body`` is a tuple of ordinary (relational) subgoals.
    * ``comparisons`` is a tuple of built-in comparison subgoals.

    The query is *safe* when every head variable and every variable used in a
    comparison also occurs in some ordinary subgoal.  Construction enforces
    safety unless ``require_safe=False`` is passed (a few intermediate
    rewriting constructions temporarily build unsafe queries).
    """

    __slots__ = (
        "head",
        "body",
        "comparisons",
        # Lazily computed caches (queries are immutable, so computing each
        # once is sound): the sorted normal form equality compares, the
        # structural hash, the variable tuple, the cheap canonical form, the
        # canonical fingerprint text the containment memo keys verdicts by
        # (filled in by repro.containment.memo), and the closed form of the
        # comparisons (repro.containment.constraints).
        "_normal",
        "_hash",
        "_variables",
        "_canonical",
        "_fingerprint_text",
        "_constraints",
    )

    def __init__(
        self,
        head: Atom,
        body: Iterable[Atom],
        comparisons: Iterable[Comparison] = (),
        require_safe: bool = True,
    ):
        if not isinstance(head, Atom):
            raise QueryConstructionError("query head must be an Atom")
        body_atoms = tuple(body)
        comparison_atoms = tuple(comparisons)
        for atom in body_atoms:
            if not isinstance(atom, Atom):
                raise QueryConstructionError(f"body subgoals must be Atoms, got {atom!r}")
        for comparison in comparison_atoms:
            if not isinstance(comparison, Comparison):
                raise QueryConstructionError(
                    f"comparison subgoals must be Comparisons, got {comparison!r}"
                )
        if not body_atoms and (head.variables() or comparison_atoms):
            # A body-less query can only be a ground fact.
            raise QueryConstructionError("a query with an empty body must have a ground head")
        object.__setattr__(self, "head", head)
        object.__setattr__(self, "body", body_atoms)
        object.__setattr__(self, "comparisons", comparison_atoms)
        if require_safe:
            self._check_safety()

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("ConjunctiveQuery is immutable")

    def _check_safety(self) -> None:
        body_vars = set(self.body_variables())
        for var in self.head.variables():
            if var not in body_vars:
                raise UnsafeQueryError(
                    f"unsafe query: head variable {var} does not occur in the body"
                )
        for comparison in self.comparisons:
            for var in comparison.variables():
                if var not in body_vars:
                    raise UnsafeQueryError(
                        f"unsafe query: comparison variable {var} does not occur in the body"
                    )

    # -- basic protocol ------------------------------------------------------
    def _normal_form(self) -> Tuple[Atom, Tuple[Atom, ...], Tuple[Comparison, ...]]:
        """``(head, sorted body, sorted comparisons)``: what equality compares
        and hashing hashes, computed once (queries are immutable)."""
        try:
            return self._normal
        except AttributeError:
            pass
        normal = (
            self.head,
            tuple(sorted(self.body, key=Atom.sort_key)),
            tuple(sorted(self.comparisons, key=Comparison.sort_key)),
        )
        object.__setattr__(self, "_normal", normal)
        return normal

    def __eq__(self, other: object) -> bool:
        """Exact syntactic equality (same head, same body multiset, same comparisons)."""
        if self is other:
            return True
        if not isinstance(other, ConjunctiveQuery):
            return NotImplemented
        return self._normal_form() == other._normal_form()

    def __hash__(self) -> int:
        try:
            return self._hash
        except AttributeError:
            pass
        value = hash(self._normal_form())
        object.__setattr__(self, "_hash", value)
        return value

    def __repr__(self) -> str:
        return f"ConjunctiveQuery({self!s})"

    def __str__(self) -> str:
        from repro.datalog.printer import to_datalog

        return to_datalog(self)

    # -- inspection ------------------------------------------------------------
    @property
    def name(self) -> str:
        """The predicate name of the head atom."""
        return self.head.predicate

    @property
    def arity(self) -> int:
        """The arity of the head atom (number of output columns)."""
        return len(self.head.args)

    @property
    def is_boolean(self) -> bool:
        """True for boolean queries (no output columns)."""
        return len(self.head.args) == 0

    def head_variables(self) -> Tuple[Variable, ...]:
        """Distinguished variables, in head-argument order without duplicates."""
        return self.head.variables()

    def body_variables(self) -> Tuple[Variable, ...]:
        """Variables occurring in ordinary subgoals, in order of first occurrence."""
        seen: list[Variable] = []
        for atom in self.body:
            for var in atom.variables():
                if var not in seen:
                    seen.append(var)
        return tuple(seen)

    def variables(self) -> Tuple[Variable, ...]:
        """All variables of the query (head, body, comparisons), in order of occurrence."""
        try:
            return self._variables
        except AttributeError:
            pass
        seen: list[Variable] = []
        for source in (self.head.variables(), self.body_variables()):
            for var in source:
                if var not in seen:
                    seen.append(var)
        for comparison in self.comparisons:
            for var in comparison.variables():
                if var not in seen:
                    seen.append(var)
        result = tuple(seen)
        object.__setattr__(self, "_variables", result)
        return result

    def existential_variables(self) -> Tuple[Variable, ...]:
        """Variables of the body that are not distinguished."""
        head_vars = set(self.head.variables())
        return tuple(v for v in self.variables() if v not in head_vars)

    def constants(self) -> Tuple[Constant, ...]:
        """All constants occurring anywhere in the query."""
        seen: list[Constant] = []
        sources: list = [self.head, *self.body]
        for atom in sources:
            for constant in atom.constants():
                if constant not in seen:
                    seen.append(constant)
        for comparison in self.comparisons:
            for constant in comparison.constants():
                if constant not in seen:
                    seen.append(constant)
        return tuple(seen)

    def predicates(self) -> FrozenSet[Tuple[str, int]]:
        """The set of (relation name, arity) signatures used in the body."""
        return frozenset(atom.signature for atom in self.body)

    def subgoals_for(self, predicate: str) -> Tuple[Atom, ...]:
        """The body subgoals over the given predicate name."""
        return tuple(a for a in self.body if a.predicate == predicate)

    def size(self) -> int:
        """Number of ordinary subgoals (the ``n`` of the paper's length bound)."""
        return len(self.body)

    def join_variables(self) -> Tuple[Variable, ...]:
        """Variables occurring in at least two distinct body subgoals."""
        counts: Dict[Variable, int] = {}
        for atom in self.body:
            for var in set(atom.variables()):
                counts[var] = counts.get(var, 0) + 1
        return tuple(v for v in self.body_variables() if counts.get(v, 0) >= 2)

    # -- transformation ---------------------------------------------------------
    def apply(self, substitution: Substitution, require_safe: bool = True) -> "ConjunctiveQuery":
        """The query obtained by applying a substitution to every part."""
        return ConjunctiveQuery(
            substitution.apply_atom(self.head),
            substitution.apply_atoms(self.body),
            substitution.apply_comparisons(self.comparisons),
            require_safe=require_safe,
        )

    def replace_terms(self, mapping: Mapping[Term, Term]) -> "ConjunctiveQuery":
        """The query with variables *and constants* replaced, simultaneously.

        Where :meth:`apply` takes a :class:`Substitution` (variables only),
        the keys here may be constants too — looked up by ``Constant.__eq__``,
        so ``1``, ``1.0`` and ``True`` are one key.  A function term is looked
        up whole, not entered, and safety is not re-checked.
        """
        get = mapping.get
        return ConjunctiveQuery(
            Atom(self.head.predicate, [get(t, t) for t in self.head.args]),
            [Atom(a.predicate, [get(t, t) for t in a.args]) for a in self.body],
            [
                Comparison(get(c.left, c.left), c.op, get(c.right, c.right))
                for c in self.comparisons
            ],
            require_safe=False,
        )

    def with_body(
        self,
        body: Iterable[Atom],
        comparisons: Optional[Iterable[Comparison]] = None,
        require_safe: bool = True,
    ) -> "ConjunctiveQuery":
        return ConjunctiveQuery(
            self.head,
            body,
            self.comparisons if comparisons is None else comparisons,
            require_safe=require_safe,
        )

    def with_name(self, name: str) -> "ConjunctiveQuery":
        """The same query with the head predicate renamed."""
        return ConjunctiveQuery(
            self.head.rename_predicate(name), self.body, self.comparisons, require_safe=False
        )

    def add_subgoals(
        self,
        atoms: Iterable[Atom] = (),
        comparisons: Iterable[Comparison] = (),
    ) -> "ConjunctiveQuery":
        """The query with extra subgoals conjoined to its body."""
        return ConjunctiveQuery(
            self.head,
            self.body + tuple(atoms),
            self.comparisons + tuple(comparisons),
            require_safe=False,
        )

    def rename_variables(self, mapping: "Substitution | Dict[Variable, Variable]") -> "ConjunctiveQuery":
        """Apply a variable renaming to the whole query."""
        substitution = mapping if isinstance(mapping, Substitution) else Substitution(mapping)
        return self.apply(substitution, require_safe=False)

    def canonical(self) -> "ConjunctiveQuery":
        """A canonical variant: variables renamed to V1, V2, ... and body sorted.

        Two queries that are identical up to variable renaming and subgoal
        order have equal canonical variants *provided* the renaming respects
        first-occurrence order; this is a cheap normal form used for hashing
        and duplicate elimination, not a graph-isomorphism test (use
        ``containment.is_equivalent`` for semantic equivalence).
        """
        try:
            return self._canonical
        except AttributeError:
            pass
        ordered_body = sorted(self.body, key=Atom.sort_key)
        mapping: Dict[Variable, Variable] = {}

        def canon(var: Variable) -> Variable:
            if var not in mapping:
                mapping[var] = Variable(f"V{len(mapping) + 1}")
            return mapping[var]

        for var in self.head.variables():
            canon(var)
        for atom in ordered_body:
            for var in atom.variables():
                canon(var)
        for comparison in self.comparisons:
            for var in comparison.variables():
                canon(var)
        substitution = Substitution(dict(mapping))
        result = ConjunctiveQuery(
            substitution.apply_atom(self.head),
            sorted(substitution.apply_atoms(ordered_body), key=Atom.sort_key),
            sorted(substitution.apply_comparisons(self.comparisons), key=Comparison.sort_key),
            require_safe=False,
        )
        object.__setattr__(self, "_canonical", result)
        return result

    def freshened_against(
        self, other: "ConjunctiveQuery | Iterable[Variable]"
    ) -> "ConjunctiveQuery":
        """A copy whose variables are renamed to avoid clashing with ``other``."""
        from repro.datalog.freshen import rename_apart

        avoid: Iterable[Variable]
        if isinstance(other, ConjunctiveQuery):
            avoid = other.variables()
        else:
            avoid = tuple(other)
        renaming = rename_apart(self.variables(), avoid)
        return self.rename_variables(renaming)

    def is_safe(self) -> bool:
        """Whether the query satisfies the safety condition."""
        try:
            self._check_safety()
        except UnsafeQueryError:
            return False
        return True


class UnionQuery:
    """A union of conjunctive queries with compatible heads.

    Used for maximally-contained rewritings, which in general are unions of
    conjunctive rewritings, and for the result of interleaving-style
    constructions in the contained-rewriting enumeration.
    """

    __slots__ = ("disjuncts",)

    def __init__(self, disjuncts: Iterable[ConjunctiveQuery]):
        queries = tuple(disjuncts)
        if not queries:
            raise QueryConstructionError("a union query needs at least one disjunct")
        name = queries[0].name
        arity = queries[0].arity
        for query in queries[1:]:
            if query.name != name or query.arity != arity:
                raise QueryConstructionError(
                    "all disjuncts of a union query must share the head predicate and arity"
                )
        object.__setattr__(self, "disjuncts", queries)

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("UnionQuery is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UnionQuery):
            return NotImplemented
        return set(q.canonical() for q in self.disjuncts) == set(
            q.canonical() for q in other.disjuncts
        )

    def __hash__(self) -> int:
        return hash(frozenset(q.canonical() for q in self.disjuncts))

    def __iter__(self) -> Iterator[ConjunctiveQuery]:
        return iter(self.disjuncts)

    def __len__(self) -> int:
        return len(self.disjuncts)

    def __repr__(self) -> str:
        return f"UnionQuery({list(self.disjuncts)!r})"

    def __str__(self) -> str:
        from repro.datalog.printer import to_datalog

        return "\n".join(to_datalog(q) for q in self.disjuncts)

    @property
    def name(self) -> str:
        return self.disjuncts[0].name

    @property
    def arity(self) -> int:
        return self.disjuncts[0].arity

    def predicates(self) -> FrozenSet[Tuple[str, int]]:
        out: set = set()
        for query in self.disjuncts:
            out |= query.predicates()
        return frozenset(out)

    def replace_terms(self, mapping: Mapping[Term, Term]) -> "UnionQuery":
        """:meth:`ConjunctiveQuery.replace_terms`, applied to every disjunct."""
        return UnionQuery(q.replace_terms(mapping) for q in self.disjuncts)

    def simplified(self) -> "UnionQuery":
        """Remove duplicate disjuncts (up to the cheap canonical form)."""
        seen = set()
        unique = []
        for query in self.disjuncts:
            key = query.canonical()
            if key not in seen:
                seen.add(key)
                unique.append(query)
        return UnionQuery(unique)


QueryLike = "ConjunctiveQuery | UnionQuery"


def as_union(query: "ConjunctiveQuery | UnionQuery") -> UnionQuery:
    """View any query as a union of conjunctive queries."""
    if isinstance(query, UnionQuery):
        return query
    return UnionQuery([query])
