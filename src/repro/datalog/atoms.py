"""Atoms: relational subgoals and built-in comparison subgoals."""

from __future__ import annotations

import enum
from typing import Any, Iterable, Iterator, Sequence, Tuple

from repro.errors import QueryConstructionError
from repro.datalog.terms import (
    Constant,
    Term,
    Variable,
    make_term,
    term_constants,
    term_sort_key,
    term_variables,
)


class Atom:
    """A relational subgoal ``predicate(t1, ..., tk)``.

    Atoms are immutable; the argument tuple may mix variables and constants.
    An atom with an empty argument list is allowed (a propositional fact).
    """

    __slots__ = ("predicate", "args", "_hash", "_const_positions", "_sort_key")

    def __init__(self, predicate: str, args: Iterable[Any] = ()):
        if not predicate or not isinstance(predicate, str):
            raise QueryConstructionError("atom predicate must be a non-empty string")
        terms = tuple([a if isinstance(a, Term) else make_term(a) for a in args])
        const_positions = []
        for position, term in enumerate(terms):
            if isinstance(term, Constant):
                const_positions.append((position, term))
        set_slot = object.__setattr__
        set_slot(self, "predicate", predicate)
        set_slot(self, "args", terms)
        set_slot(self, "_hash", hash((predicate, terms)))
        set_slot(self, "_const_positions", tuple(const_positions))

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("Atom is immutable")

    # -- basic protocol ----------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return (
            isinstance(other, Atom)
            and other._hash == self._hash
            and other.predicate == self.predicate
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Atom({self.predicate!r}, {list(self.args)!r})"

    def __str__(self) -> str:
        return f"{self.predicate}({', '.join(str(a) for a in self.args)})"

    def __len__(self) -> int:
        return len(self.args)

    def __iter__(self) -> Iterator[Term]:
        return iter(self.args)

    # -- inspection --------------------------------------------------------
    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def signature(self) -> Tuple[str, int]:
        """The (predicate name, arity) pair identifying the relation."""
        return (self.predicate, len(self.args))

    @property
    def const_positions(self) -> Tuple[Tuple[int, Constant], ...]:
        """The (argument position, constant) pairs of the atom, precomputed.

        This is the atom's *constant signature*: a homomorphism can map this
        atom onto a target only if the target carries the same constant at
        each of these positions, so the containment search uses it as an O(1)
        fail-fast filter when building candidate lists.
        """
        return self._const_positions

    def variables(self) -> Tuple[Variable, ...]:
        """The variables of the atom (recursing into function terms), in order."""
        seen: list[Variable] = []
        for term in self.args:
            for var in term_variables(term):
                if var not in seen:
                    seen.append(var)
        return tuple(seen)

    def constants(self) -> Tuple[Constant, ...]:
        """The constants of the atom (recursing into function terms), in order."""
        seen: list[Constant] = []
        for term in self.args:
            for constant in term_constants(term):
                if constant not in seen:
                    seen.append(constant)
        return tuple(seen)

    def is_ground(self) -> bool:
        """True when the atom contains no variables."""
        return not self.variables()

    # -- rewriting helpers ---------------------------------------------------
    def with_args(self, args: Sequence[Term]) -> "Atom":
        """A copy of this atom with a different argument list."""
        return Atom(self.predicate, args)

    def rename_predicate(self, predicate: str) -> "Atom":
        """A copy of this atom with a different predicate name."""
        return Atom(predicate, self.args)

    def sort_key(self) -> tuple:
        """A deterministic sort key used to canonicalize bodies (computed once)."""
        try:
            return self._sort_key
        except AttributeError:
            pass
        key = (self.predicate, len(self.args), tuple(term_sort_key(t) for t in self.args))
        object.__setattr__(self, "_sort_key", key)
        return key


class ComparisonOperator(enum.Enum):
    """The built-in comparison operators supported by the library."""

    EQ = "="
    NE = "!="
    LT = "<"
    LE = "<="
    GT = ">"
    GE = ">="

    def flip(self) -> "ComparisonOperator":
        """The operator obtained by swapping the two operands."""
        return _FLIPPED[self]

    def negate(self) -> "ComparisonOperator":
        """The logical negation of the operator."""
        return _NEGATED[self]

    def evaluate(self, left: Any, right: Any) -> bool:
        """Apply the comparison to two Python values."""
        try:
            if self is ComparisonOperator.EQ:
                return left == right
            if self is ComparisonOperator.NE:
                return left != right
            if self is ComparisonOperator.LT:
                return left < right
            if self is ComparisonOperator.LE:
                return left <= right
            if self is ComparisonOperator.GT:
                return left > right
            return left >= right
        except TypeError:
            # Incomparable values (e.g. int vs str) never satisfy an order
            # comparison; equality/disequality already returned above.
            return False

    @classmethod
    def from_symbol(cls, symbol: str) -> "ComparisonOperator":
        try:
            return _BY_SYMBOL[symbol]
        except KeyError:
            raise QueryConstructionError(f"unknown comparison operator: {symbol!r}") from None


_BY_SYMBOL = {op.value: op for op in ComparisonOperator}
_FLIPPED = {
    ComparisonOperator.EQ: ComparisonOperator.EQ,
    ComparisonOperator.NE: ComparisonOperator.NE,
    ComparisonOperator.LT: ComparisonOperator.GT,
    ComparisonOperator.LE: ComparisonOperator.GE,
    ComparisonOperator.GT: ComparisonOperator.LT,
    ComparisonOperator.GE: ComparisonOperator.LE,
}
_NEGATED = {
    ComparisonOperator.EQ: ComparisonOperator.NE,
    ComparisonOperator.NE: ComparisonOperator.EQ,
    ComparisonOperator.LT: ComparisonOperator.GE,
    ComparisonOperator.LE: ComparisonOperator.GT,
    ComparisonOperator.GT: ComparisonOperator.LE,
    ComparisonOperator.GE: ComparisonOperator.LT,
}


class Comparison:
    """A built-in comparison subgoal ``left op right``.

    Both sides are terms (variables or constants).  Comparisons never bind
    variables; safety of a query requires every variable used in a comparison
    to also appear in an ordinary subgoal.
    """

    __slots__ = ("op", "left", "right")

    def __init__(self, left: Any, op: "ComparisonOperator | str", right: Any):
        if isinstance(op, str):
            op = ComparisonOperator.from_symbol(op)
        object.__setattr__(self, "op", op)
        object.__setattr__(self, "left", make_term(left))
        object.__setattr__(self, "right", make_term(right))

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("Comparison is immutable")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Comparison):
            return False
        if other.op == self.op and other.left == self.left and other.right == self.right:
            return True
        # A comparison is also equal to its flipped form: X < Y  ==  Y > X.
        return (
            other.op == self.op.flip()
            and other.left == self.right
            and other.right == self.left
        )

    def __hash__(self) -> int:
        # Hash must be symmetric under flipping to stay consistent with __eq__.
        canonical = self.canonical()
        return hash((canonical.op, canonical.left, canonical.right))

    def __repr__(self) -> str:
        return f"Comparison({self.left!r}, {self.op.value!r}, {self.right!r})"

    def __str__(self) -> str:
        return f"{self.left} {self.op.value} {self.right}"

    # -- inspection --------------------------------------------------------
    def variables(self) -> Tuple[Variable, ...]:
        out: list[Variable] = []
        for term in (self.left, self.right):
            for var in term_variables(term):
                if var not in out:
                    out.append(var)
        return tuple(out)

    def constants(self) -> Tuple[Constant, ...]:
        out: list[Constant] = []
        for term in (self.left, self.right):
            for constant in term_constants(term):
                if constant not in out:
                    out.append(constant)
        return tuple(out)

    def is_ground(self) -> bool:
        return isinstance(self.left, Constant) and isinstance(self.right, Constant)

    def evaluate_ground(self) -> bool:
        """Evaluate a ground comparison; raises if it is not ground."""
        if not self.is_ground():
            raise QueryConstructionError(f"comparison {self} is not ground")
        assert isinstance(self.left, Constant) and isinstance(self.right, Constant)
        return self.op.evaluate(self.left.value, self.right.value)

    def canonical(self) -> "Comparison":
        """A canonical orientation (smaller term first, by sort key) for hashing.

        Orientation only matters for the symmetric operators (``=``/``!=``)
        and for pairs related by flipping; canonicalizing makes equal
        comparisons hash identically.
        """
        left_key = term_sort_key(self.left)
        right_key = term_sort_key(self.right)
        if left_key < right_key:
            return self
        if left_key == right_key:
            # Same term on both sides (``Y < Y`` equals ``Y > Y``): pick the
            # operator orientation by symbol so the two hash alike.
            flipped = self.op.flip()
            if self.op.value <= flipped.value:
                return self
            return Comparison(self.right, flipped, self.left)
        return Comparison(self.right, self.op.flip(), self.left)

    def flipped(self) -> "Comparison":
        """The same constraint written with the operands swapped."""
        return Comparison(self.right, self.op.flip(), self.left)

    def negated(self) -> "Comparison":
        """The logical negation of this comparison."""
        return Comparison(self.left, self.op.negate(), self.right)

    def sort_key(self) -> tuple:
        canonical = self.canonical()
        return (
            canonical.op.value,
            term_sort_key(canonical.left),
            term_sort_key(canonical.right),
        )
