"""Reasoning about conjunctions of arithmetic comparison constraints.

:class:`ComparisonSet` normalizes a conjunction of comparisons over variables
and constants into:

* a union-find structure of terms forced equal,
* a directed graph of ``<`` / ``<=`` edges between equivalence classes, closed
  under transitivity (with strictness propagation), and
* a set of asserted disequalities.

On top of that normal form it answers two questions that the rewriting and
containment algorithms need constantly:

* :meth:`ComparisonSet.is_satisfiable` — is there any assignment of values to
  the variables satisfying every constraint?
* :meth:`ComparisonSet.implies` — does the conjunction logically imply a given
  comparison?

The implication test is sound and complete for ``=``, ``<``, ``<=``, ``>``,
``>=`` over a dense domain; for ``!=`` it is sound, and complete except for
corner cases that require reasoning over discrete domains (e.g. ``X > 1 and
X < 3`` implying ``X != 5`` over the integers is found, but ``X != 2`` is not,
because over the rationals it does not hold).  Comparisons in this library are
interpreted over a dense order, matching the paper's setting.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

from repro.datalog.atoms import Comparison, ComparisonOperator
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Constant, Term


def _comparable(left: object, right: object) -> bool:
    """Whether two constant values participate in the same natural order."""
    if isinstance(left, bool) or isinstance(right, bool):
        return isinstance(left, bool) and isinstance(right, bool)
    if isinstance(left, (int, float)) and isinstance(right, (int, float)):
        return True
    return isinstance(left, str) and isinstance(right, str)


class _UnionFind:
    """Union-find over terms (used for equality classes)."""

    def __init__(self) -> None:
        self._parent: Dict[Term, Term] = {}

    def add(self, term: Term) -> None:
        if term not in self._parent:
            self._parent[term] = term

    def find(self, term: Term) -> Term:
        self.add(term)
        root = term
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[term] != root:
            self._parent[term], term = root, self._parent[term]
        return root

    def union(self, left: Term, right: Term) -> None:
        left_root, right_root = self.find(left), self.find(right)
        if left_root == right_root:
            return
        # Prefer constants as representatives so classes with a known value
        # expose it directly.
        if isinstance(left_root, Constant):
            self._parent[right_root] = left_root
        else:
            self._parent[left_root] = right_root

    def terms(self) -> List[Term]:
        return list(self._parent)

    def classes(self) -> Dict[Term, Set[Term]]:
        grouped: Dict[Term, Set[Term]] = {}
        for term in self._parent:
            grouped.setdefault(self.find(term), set()).add(term)
        return grouped


class ComparisonSet:
    """A conjunction of comparison constraints in a normalized, closed form."""

    def __init__(self, comparisons: Iterable[Comparison] = ()):
        self._comparisons: Tuple[Comparison, ...] = tuple(comparisons)
        self._uf = _UnionFind()
        #: strongest known order edge between representatives: True = strict.
        self._less: Dict[Tuple[Term, Term], bool] = {}
        self._not_equal: Set[FrozenSet[Term]] = set()
        self._satisfiable = True
        self._build()

    # -- construction -------------------------------------------------------
    def _build(self) -> None:
        # Register all terms and equalities first.
        for comparison in self._comparisons:
            self._uf.add(comparison.left)
            self._uf.add(comparison.right)
        changed = True
        guard = 0
        # Equality merging may enable further merges through constants, so we
        # iterate; the number of rounds is bounded by the number of terms.
        while changed and guard <= len(self._comparisons) + 2:
            changed = False
            guard += 1
            for comparison in self._comparisons:
                if comparison.op is ComparisonOperator.EQ:
                    left_root = self._uf.find(comparison.left)
                    right_root = self._uf.find(comparison.right)
                    if left_root != right_root:
                        self._uf.union(comparison.left, comparison.right)
                        changed = True
        # Check constant consistency of equality classes.
        for root, members in self._uf.classes().items():
            constants = [t for t in members if isinstance(t, Constant)]
            values = {c.value for c in constants}
            if len(values) > 1:
                self._satisfiable = False
                return
        # Order and disequality edges between representatives.
        for comparison in self._comparisons:
            left = self._uf.find(comparison.left)
            right = self._uf.find(comparison.right)
            op = comparison.op
            if op is ComparisonOperator.EQ:
                continue
            if op is ComparisonOperator.NE:
                if left == right:
                    self._satisfiable = False
                    return
                self._not_equal.add(frozenset((left, right)))
                continue
            if op in (ComparisonOperator.GT, ComparisonOperator.GE):
                left, right = right, left
                op = op.flip()
            strict = op is ComparisonOperator.LT
            if left == right:
                if strict:
                    self._satisfiable = False
                    return
                continue
            key = (left, right)
            self._less[key] = self._less.get(key, False) or strict
        # Known order between constants of different classes.
        representatives = {self._uf.find(t) for t in self._uf.terms()}
        constant_reps = [
            r for r in representatives if self._class_constant(r) is not None
        ]
        for i, left in enumerate(constant_reps):
            for right in constant_reps[i + 1:]:
                left_value = self._class_constant(left)
                right_value = self._class_constant(right)
                assert left_value is not None and right_value is not None
                if left_value.value == right_value.value:
                    continue
                self._not_equal.add(frozenset((left, right)))
                if _comparable(left_value.value, right_value.value):
                    if left_value.value < right_value.value:
                        self._less[(left, right)] = True
                    else:
                        self._less[(right, left)] = True
        self._close()

    @staticmethod
    def _class_constant(representative: Term) -> Optional[Constant]:
        """The constant value of an equivalence class, if any.

        :meth:`_UnionFind.union` makes a constant the root of every class
        that contains one, so the representative itself is the answer.
        """
        return representative if isinstance(representative, Constant) else None

    def _close(self) -> None:
        """Transitive closure of the order edges with strictness propagation."""
        nodes = sorted({t for pair in self._less for t in pair} , key=str)
        changed = True
        while changed:
            changed = False
            for middle in nodes:
                for left in nodes:
                    first = self._less.get((left, middle))
                    if first is None:
                        continue
                    for right in nodes:
                        second = self._less.get((middle, right))
                        if second is None:
                            continue
                        strict = first or second
                        existing = self._less.get((left, right))
                        if existing is None or (strict and not existing):
                            self._less[(left, right)] = strict
                            changed = True
        # Detect contradictions.
        for (left, right), strict in list(self._less.items()):
            if left == right and strict:
                self._satisfiable = False
                return
            back = self._less.get((right, left))
            if back is not None and (strict or back):
                # a < b and b <= a (or stricter): contradiction.
                self._satisfiable = False
                return
            if back is not None and not strict and not back:
                # a <= b and b <= a force equality; contradiction with !=.
                if frozenset((left, right)) in self._not_equal:
                    self._satisfiable = False
                    return
        # != against forced equality of identical representatives.
        for pair in self._not_equal:
            if len(pair) == 1:
                self._satisfiable = False
                return

    # -- queries ----------------------------------------------------------------
    def is_satisfiable(self) -> bool:
        """Whether some assignment over a dense domain satisfies all constraints."""
        return self._satisfiable

    def comparisons(self) -> Tuple[Comparison, ...]:
        return self._comparisons

    def implies(self, comparison: Comparison) -> bool:
        """Whether the conjunction logically implies the given comparison.

        The test is the classical refutation check: ``Φ ⊨ c`` iff ``Φ ∧ ¬c`` is
        unsatisfiable.  Because the negation of every supported operator is
        again a single comparison (over a dense domain), this reduces to one
        satisfiability test and automatically accounts for constants that
        appear only in ``c`` (e.g. ``X < 3`` implies ``X < 10``).  An
        unsatisfiable conjunction implies everything, and a comparison that
        is one of the conjuncts is implied without building the refutation.
        """
        if not self._satisfiable or comparison in self._comparisons:
            return True
        left, right = comparison.left, comparison.right
        op = comparison.op
        # Ground comparisons are decided directly.
        if isinstance(left, Constant) and isinstance(right, Constant):
            if op in (ComparisonOperator.EQ, ComparisonOperator.NE):
                return op.evaluate(left.value, right.value)
            if _comparable(left.value, right.value):
                return op.evaluate(left.value, right.value)
            return False
        refutation = ComparisonSet(self._comparisons + (comparison.negated(),))
        return not refutation.is_satisfiable()

    def implies_all(self, comparisons: Iterable[Comparison]) -> bool:
        return all(self.implies(c) for c in comparisons)

    def conjoin(self, comparisons: Iterable[Comparison]) -> "ComparisonSet":
        """A new constraint set with additional comparisons conjoined."""
        return ComparisonSet(self._comparisons + tuple(comparisons))

    def terms(self) -> Tuple[Term, ...]:
        """All terms mentioned by the constraints."""
        seen: List[Term] = []
        for comparison in self._comparisons:
            for term in (comparison.left, comparison.right):
                if term not in seen:
                    seen.append(term)
        return tuple(seen)

    def __repr__(self) -> str:
        return f"ComparisonSet({', '.join(str(c) for c in self._comparisons)})"


_NONE = ComparisonSet()


def _constraints_of(query: ConjunctiveQuery) -> ComparisonSet:
    """The query's comparison subgoals as a :class:`ComparisonSet`, built once.

    Queries are immutable, so the closed form is cached on the query object:
    the satisfiability check and the witness test's implication checks of
    every containment test the query takes part in share one construction.
    """
    constraints = getattr(query, "_constraints", None)
    if constraints is None:
        constraints = ComparisonSet(query.comparisons) if query.comparisons else _NONE
        object.__setattr__(query, "_constraints", constraints)
    return constraints
