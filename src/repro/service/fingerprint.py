"""Order-insensitive canonical fingerprints for conjunctive queries.

The serving layer caches rewritings keyed by *query structure*, not query
text: two queries that differ only in variable names and subgoal order must
share a cache entry.  The fingerprint computed here is a canonical
serialization of the query obtained by

1. **colour refinement** over the query's variables (a Weisfeiler–Lehman-style
   iteration on the hypergraph whose hyperedges are the head atom, the body
   subgoals and the comparison subgoals), followed by
2. **exact tie-breaking**: all orderings of same-colour variables are tried
   (up to a budget) and the lexicographically smallest serialization wins.

The construction parallels the canonical-database freezing of
:mod:`repro.datalog.canonical` — variables are renamed to position-only
markers so the serialization depends only on structure — but unlike freezing
it is insensitive to the order in which variables and subgoals happen to be
written.

Soundness: equal fingerprints imply the queries are *isomorphic* (identical
up to a bijective variable renaming and subgoal reordering), because each
fingerprint text is a faithful serialization of the query under a bijective
renaming.  Completeness: isomorphic queries receive equal fingerprints
whenever the tie-break search completes within its budget; when the budget is
exceeded the fingerprint falls back to a first-occurrence canonical form
(still sound, possibly missing some cache hits) and is marked ``exact=False``.

The same pass also yields the query's **shape**: the serialization is taken
with every constant abstracted to a placeholder ``$<class><i>``, numbered in
the order of the constants' values (``_comparable`` class first), and the
constants themselves are returned beside it as ``params``.  ``text`` is the
shape followed by the params, so it still identifies the query *including*
its constants; equal shapes say the queries are isomorphic up to a
replacement of constants that keeps each one's class and their mutual order.
What a replacement must further preserve to keep a *rewriting* valid depends
on the views, which this module knows nothing of — see
:mod:`repro.service.templates`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.datalog.atoms import Atom, Comparison
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.substitution import Substitution
from repro.datalog.terms import Constant, Variable, term_sort_key

#: Maximum number of same-colour variable orderings tried before falling back
#: to the (sound but less complete) first-occurrence canonical form.
DEFAULT_TIE_BREAK_LIMIT = 20160

#: Prefix of canonical variable names; chosen to be unlikely in user queries.
CANONICAL_PREFIX = "V"


@dataclass(frozen=True, eq=False)
class QueryFingerprint:
    """The fingerprint of a query plus the renaming that produced it.

    Attributes
    ----------
    text:
        The canonical serialization — the cache key.  Equal texts imply
        isomorphic queries, constants included.
    shape:
        The serialization with every constant abstracted to a numbered
        placeholder.  Equal shapes imply the queries are isomorphic once
        the i-th entry of one's ``params`` replaces the i-th of the other's.
    params:
        The abstracted constants, in placeholder order: by ``_comparable``
        class (bool, number, str), then by value.
    renaming:
        Bijective substitution from the query's variables to the canonical
        variables ``V1 .. Vk``; applying it to the query yields the canonical
        representative shared by every isomorphic variant.
    exact:
        ``True`` when the tie-break search completed, i.e. every isomorphic
        query is guaranteed the same ``text``.
    """

    text: str
    renaming: Substitution
    exact: bool
    shape: str
    params: Tuple[Constant, ...]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryFingerprint):
            return NotImplemented
        return self.text == other.text

    def __hash__(self) -> int:
        return hash(self.text)

    def with_params(self, params: Tuple[Constant, ...]) -> "QueryFingerprint":
        """The fingerprint of this query with ``params`` for its constants.

        For a caller that knows the replacement keeps every constant's class
        and their mutual order (which is all that numbers the placeholders):
        shape and renaming are then the same, and no refinement is run.
        """
        return QueryFingerprint(
            _text_of(self.shape, params), self.renaming, self.exact, self.shape, params
        )

    def inverse_renaming(self) -> Substitution:
        """The substitution mapping canonical variables back to query variables."""
        return Substitution({term: var for var, term in self.renaming.items()})


# ---------------------------------------------------------------------------
# Colour refinement
# ---------------------------------------------------------------------------

#: Pseudo-predicate names marking the head and comparison hyperedges so they
#: cannot collide with relation names (which never contain spaces).
_HEAD_MARK = "head "
_CMP_MARK = "cmp "


#: A hyperedge argument: a variable, or the placeholder of a constant.
_Node = Union[Variable, str]


def _constant_key(constant: Constant) -> str:
    return f"{type(constant.value).__name__}:{constant.value!r}"


def _param_order(constant: Constant) -> tuple:
    """A total order on constants: class, then value (NaN last), then type."""
    _, kind, value = term_sort_key(constant)
    unordered = value != value
    return (kind, unordered, 0 if unordered else value, type(value).__name__)


def _structural_atoms(
    query: ConjunctiveQuery,
) -> Tuple[List[Tuple[str, Tuple[_Node, ...]]], Tuple[Constant, ...]]:
    """The query as (predicate, args) hyperedges including head/comparisons,
    every constant replaced by its placeholder; and the constants replaced."""
    edges: List[Tuple[str, tuple]] = [
        (_HEAD_MARK + query.head.predicate, tuple(query.head.args))
    ]
    for atom in query.body:
        edges.append((atom.predicate, tuple(atom.args)))
    for comparison in query.comparisons:
        normal = comparison.canonical()
        edges.append((_CMP_MARK + normal.op.value, (normal.left, normal.right)))
    # Keyed by type and repr, not by Constant: 1, 1.0 and True are equal
    # constants but three parameters.
    by_key: Dict[str, Constant] = {}
    holders = set()
    for position, (_, args) in enumerate(edges):
        for term in args:
            if isinstance(term, Constant):
                by_key[_constant_key(term)] = term
                holders.add(position)
    if not by_key:
        return edges, ()
    params = sorted(by_key.values(), key=_param_order)
    placeholder = {
        _constant_key(constant): f"${'bns'[term_sort_key(constant)[1]]}{index}"
        for index, constant in enumerate(params)
    }
    for position in holders:
        predicate, args = edges[position]
        edges[position] = (predicate, tuple(
            placeholder[_constant_key(t)] if isinstance(t, Constant) else t
            for t in args
        ))
    return edges, tuple(params)


def _refine_colors(
    edges: Sequence[Tuple[str, Tuple[_Node, ...]]], variables: Sequence[Variable]
) -> Dict[Variable, int]:
    """Iterated colour refinement; the final colours are renaming-invariant."""
    color: Dict[Variable, int] = {v: 0 for v in variables}
    if not variables:
        return color
    occurrences: Dict[Variable, List[Tuple[str, Tuple[_Node, ...]]]] = {v: [] for v in variables}
    for predicate, args in edges:
        for term in set(t for t in args if isinstance(t, Variable)):
            occurrences[term].append((predicate, args))
    while True:
        signatures: Dict[Variable, Tuple] = {}
        for var in variables:
            local = []
            for predicate, args in occurrences[var]:
                rendered = tuple(
                    ("self",)
                    if term == var
                    else ("const", term)
                    if isinstance(term, str)
                    else ("var", color[term])
                    for term in args
                )
                local.append((predicate, rendered))
            signatures[var] = (color[var], tuple(sorted(local)))
        palette = {sig: index for index, sig in enumerate(sorted(set(signatures.values())))}
        refined = {var: palette[signatures[var]] for var in variables}
        if refined == color:
            return color
        color = refined


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def _serialize(
    edges: Sequence[Tuple[str, Tuple[_Node, ...]]], index_of: Dict[Variable, int]
) -> str:
    """Serialize hyperedges under a total variable order (sorted, so order-free)."""
    def render_term(term: _Node) -> str:
        return f"?{index_of[term]}" if isinstance(term, Variable) else term

    rendered = [
        f"{predicate}({','.join(render_term(t) for t in args)})"
        for predicate, args in edges
    ]
    head, rest = rendered[0], sorted(rendered[1:])
    return head + "|" + ";".join(rest)


def _first_occurrence_order(query: ConjunctiveQuery) -> List[Variable]:
    """The deterministic variable order used by the non-exact fallback.

    Mirrors :meth:`ConjunctiveQuery.canonical`: head variables first, then
    body variables in sort-key order of the subgoals, then comparison
    variables.  Not renaming-invariant — hence only a fallback.
    """
    order: List[Variable] = []
    for var in query.head.variables():
        if var not in order:
            order.append(var)
    for atom in sorted(query.body, key=Atom.sort_key):
        for var in atom.variables():
            if var not in order:
                order.append(var)
    for comparison in sorted(query.comparisons, key=Comparison.sort_key):
        for var in comparison.variables():
            if var not in order:
                order.append(var)
    return order


# ---------------------------------------------------------------------------
# Front door
# ---------------------------------------------------------------------------

def fingerprint(
    query: ConjunctiveQuery, tie_break_limit: int = DEFAULT_TIE_BREAK_LIMIT
) -> QueryFingerprint:
    """Compute the canonical fingerprint of a conjunctive query."""
    variables = list(query.variables())
    edges, params = _structural_atoms(query)
    if not variables:
        return _fingerprint_of(_serialize(edges, {}), [], True, params)

    colors = _refine_colors(edges, variables)
    classes: Dict[int, List[Variable]] = {}
    for var in variables:
        classes.setdefault(colors[var], []).append(var)
    ordered_classes = [classes[c] for c in sorted(classes)]

    choices = math.prod(math.factorial(len(group)) for group in ordered_classes)
    if choices > tie_break_limit:
        order = _first_occurrence_order(query)
        index_of = {var: i for i, var in enumerate(order)}
        return _fingerprint_of(_serialize(edges, index_of), order, False, params)

    best_shape: Optional[str] = None
    best_order: Optional[List[Variable]] = None
    for parts in itertools.product(
        *(itertools.permutations(group) for group in ordered_classes)
    ):
        order = [var for part in parts for var in part]
        index_of = {var: i for i, var in enumerate(order)}
        shape = _serialize(edges, index_of)
        if best_shape is None or shape < best_shape:
            best_shape, best_order = shape, order
    assert best_shape is not None and best_order is not None
    return _fingerprint_of(best_shape, best_order, True, params)


def _fingerprint_of(
    shape: str, order: Sequence[Variable], exact: bool, params: Tuple[Constant, ...]
) -> QueryFingerprint:
    renaming = Substitution(
        {var: Variable(f"{CANONICAL_PREFIX}{i + 1}") for i, var in enumerate(order)}
    )
    return QueryFingerprint(_text_of(shape, params), renaming, exact, shape, params)


def _text_of(shape: str, params: Tuple[Constant, ...]) -> str:
    if not params:
        return shape
    # The placeholders' numbering is a function of the params alone, so
    # shape plus params determines the query as the old inline form did.
    return shape + " @ " + ",".join([_constant_key(constant) for constant in params])


def fingerprint_text(query: ConjunctiveQuery) -> str:
    """Just the cache key of a query (convenience wrapper)."""
    return fingerprint(query).text


def isomorphism_witness(
    left: ConjunctiveQuery, right: ConjunctiveQuery
) -> Optional[Substitution]:
    """A bijective renaming carrying ``left`` onto ``right``, or ``None``.

    Only isomorphisms discoverable through the fingerprint machinery are
    found: when both fingerprints are exact this is a complete decision
    procedure for query isomorphism.
    """
    fp_left, fp_right = fingerprint(left), fingerprint(right)
    if fp_left.text != fp_right.text:
        return None
    inverse_right = fp_right.inverse_renaming()
    mapping = {
        var: inverse_right[canonical]
        for var, canonical in fp_left.renaming.items()
    }
    witness = Substitution(mapping)
    if _same_query(left.apply(witness, require_safe=False), right):
        return witness
    return None


def _same_query(left: ConjunctiveQuery, right: ConjunctiveQuery) -> bool:
    """Syntactic equality up to subgoal order (delegates to ConjunctiveQuery.__eq__)."""
    return left == right
