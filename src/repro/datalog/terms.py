"""Terms: variables and constants.

Terms are immutable and hashable so they can be freely used as dictionary
keys and members of sets (substitutions, canonical databases, join keys).

Because the containment search and the rewriting algorithms hash and compare
terms in their innermost loops, terms precompute their hash at construction
time, and :class:`Variable` / :class:`Constant` are *interned*: constructing
the same variable name (or the same constant value-and-type) twice returns
the same object, so equality checks hit CPython's identity fast path.  The
intern tables are bounded; once full, construction simply stops interning
(fresh-variable factories can mint unbounded numbers of one-shot names).
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Tuple, Union

#: Bound on each intern table.  Parser-produced names intern early and stay;
#: the cap only stops one-shot fresh variables from growing the table forever.
_INTERN_LIMIT = 1 << 16


class Term:
    """Abstract base class for the two kinds of terms.

    A term is either a :class:`Variable` or a :class:`Constant`.  The class
    exists mostly so signatures can say ``Term`` and so ``isinstance`` checks
    read well.
    """

    __slots__ = ()

    @property
    def is_variable(self) -> bool:
        return isinstance(self, Variable)

    @property
    def is_constant(self) -> bool:
        return isinstance(self, Constant)


class Variable(Term):
    """A query variable, identified by its name.

    Variable names are ordinary strings.  By the conventions of the parser
    they start with an upper-case letter or an underscore, but the class
    itself accepts any non-empty string.
    """

    __slots__ = ("name", "_hash")

    _interned: Dict[str, "Variable"] = {}

    def __new__(cls, name: str = ""):
        if cls is Variable:
            cached = Variable._interned.get(name)
            if cached is not None:
                return cached
        return super().__new__(cls)

    def __init__(self, name: str):
        try:
            self._hash  # already initialised: the interned instance was returned
            return
        except AttributeError:
            pass
        if not name:
            raise ValueError("variable name must be a non-empty string")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "_hash", hash(("var", name)))
        if type(self) is Variable and len(Variable._interned) < _INTERN_LIMIT:
            Variable._interned[name] = self

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("Variable is immutable")

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return isinstance(other, Variable) and other.name == self.name

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Variable({self.name!r})"

    def __str__(self) -> str:
        return self.name

    def __lt__(self, other: "Variable") -> bool:
        if not isinstance(other, Variable):
            return NotImplemented
        return self.name < other.name


#: Python values a :class:`Constant` may wrap.
ConstantValue = Union[str, int, float, bool]


class Constant(Term):
    """A constant value appearing in a query or a database tuple.

    Constants wrap plain Python values (strings, ints, floats, bools).  Two
    constants are equal iff their wrapped values are equal and of the same
    "kind" (numbers compare numerically, so ``Constant(1) == Constant(1.0)``
    mirrors Python semantics, which is what the engine relies on for joins).
    """

    __slots__ = ("value", "_hash")

    # Keyed by (type, value): Constant(1), Constant(1.0) and Constant(True)
    # compare equal but print differently, so they must stay distinct objects.
    # A float zero is never interned: 0.0 == -0.0 would key them together.
    _interned: Dict[Tuple[type, ConstantValue], "Constant"] = {}

    def __new__(cls, value: ConstantValue = ""):
        if cls is Constant:
            try:
                cached = Constant._interned.get((value.__class__, value))
            except TypeError:  # unhashable value; __init__ raises the TypeError
                cached = None
            if cached is not None:
                return cached
        return super().__new__(cls)

    def __init__(self, value: ConstantValue):
        try:
            self._hash  # already initialised: the interned instance was returned
            return
        except AttributeError:
            pass
        if not isinstance(value, (str, int, float, bool)):
            raise TypeError(
                f"constant values must be str, int, float or bool, got {type(value).__name__}"
            )
        object.__setattr__(self, "value", value)
        # hash(1) == hash(1.0) == hash(True), so equal constants (numbers
        # compare numerically) still hash identically after precomputation.
        object.__setattr__(self, "_hash", hash(("const", value)))
        if (
            type(self) is Constant
            and len(Constant._interned) < _INTERN_LIMIT
            and not (value == 0 and value.__class__ is float)
        ):
            Constant._interned[(value.__class__, value)] = self

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("Constant is immutable")

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return isinstance(other, Constant) and other.value == self.value

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"Constant({self.value!r})"

    def __str__(self) -> str:
        if isinstance(self.value, str):
            return f"'{self.value}'" if _needs_quotes(self.value) else self.value
        return str(self.value)

    def __lt__(self, other: "Constant") -> bool:
        if not isinstance(other, Constant):
            return NotImplemented
        return _sort_key(self.value) < _sort_key(other.value)


class FunctionTerm(Term):
    """A function term ``f(t1, ..., tk)``.

    Function terms never appear in user-written queries; they are introduced
    internally by the inverse-rules rewriting algorithm, where they play the
    role of Skolem terms standing for the unknown witnesses of a view's
    existential variables.  That module's fixpoint grounds them into opaque
    Skolem values; views, served queries and compiled plans reject them.
    """

    __slots__ = ("function", "args", "_hash")

    def __init__(self, function: str, args: Iterable["Term"] = ()):
        if not function:
            raise ValueError("function name must be a non-empty string")
        arg_tuple = tuple(args)
        for arg in arg_tuple:
            if not isinstance(arg, Term):
                raise TypeError(f"function term arguments must be terms, got {arg!r}")
        object.__setattr__(self, "function", function)
        object.__setattr__(self, "args", arg_tuple)
        object.__setattr__(self, "_hash", hash(("func", function, arg_tuple)))

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("FunctionTerm is immutable")

    def __eq__(self, other: object) -> bool:
        if other is self:
            return True
        return (
            isinstance(other, FunctionTerm)
            and other.function == self.function
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        return f"FunctionTerm({self.function!r}, {list(self.args)!r})"

    def __str__(self) -> str:
        return f"{self.function}({', '.join(str(a) for a in self.args)})"


def term_variables(term: Term) -> Tuple["Variable", ...]:
    """All variables occurring (recursively) in a term, in order of occurrence."""
    if isinstance(term, Variable):
        return (term,)
    if isinstance(term, FunctionTerm):
        out: list[Variable] = []
        for arg in term.args:
            for var in term_variables(arg):
                if var not in out:
                    out.append(var)
        return tuple(out)
    return ()


def term_constants(term: Term) -> Tuple["Constant", ...]:
    """All constants occurring (recursively) in a term, in order of occurrence."""
    if isinstance(term, Constant):
        return (term,)
    if isinstance(term, FunctionTerm):
        out: list[Constant] = []
        for arg in term.args:
            for constant in term_constants(arg):
                if constant not in out:
                    out.append(constant)
        return tuple(out)
    return ()


def _needs_quotes(value: str) -> bool:
    """Whether a string constant needs quoting to survive a parse round-trip."""
    if not value:
        return True
    if not (value[0].islower()):
        return True
    return not all(ch.isalnum() or ch == "_" for ch in value)


def _sort_key(value: ConstantValue) -> tuple:
    """Total order over heterogeneous constant values (kind first, then value)."""
    if isinstance(value, bool):
        return (0, value)
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, value)


def term_sort_key(term: Term) -> tuple:
    """A deterministic sort key over mixed sequences of terms."""
    if isinstance(term, Variable):
        return (0, term.name)
    if isinstance(term, Constant):
        return (1,) + _sort_key(term.value)
    assert isinstance(term, FunctionTerm)
    return (2, term.function, tuple(term_sort_key(a) for a in term.args))


def make_term(value: Any) -> Term:
    """Coerce a Python value into a :class:`Term`.

    Existing terms pass through unchanged; strings that look like variables
    (leading upper-case letter or underscore) become variables; everything
    else becomes a constant.  This is a convenience for building queries
    programmatically in examples and tests.
    """
    if isinstance(value, Term):
        return value
    if isinstance(value, str) and value and (value[0].isupper() or value[0] == "_"):
        return Variable(value)
    return Constant(value)
