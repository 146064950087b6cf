"""The inverse-rules rewriting algorithm.

The inverse-rules approach (Duschka & Genesereth) constructs, for every view

``v(X̄) :- p1(ū1), ..., pk(ūk)``

one *inverse rule* per body subgoal:

``pi(ūi') :- v(X̄)``

where each existential variable ``Y`` of the view is replaced, in ``ūi'``, by
the Skolem function term ``f_{v,Y}(X̄)`` — a name for the unknown witness that
must have existed for the view tuple to be present.  The inverse rules
together with the original query form a datalog program; evaluated over the
materialized view instance it reconstructs (a sound approximation of) the base
database and re-runs the query, and the answers free of Skolem values are
exactly the certain answers.  As a rewriting it is maximally contained.

This module is the only place invented values exist: :class:`SkolemValue`
and the fixpoint that creates them (:func:`evaluate_program`) live here, so
the engine, the compiled executor, storage and view maintenance see only
variables, constants and plain values.  The program is an end-to-end,
executable maximally-contained plan against which the bucket/MiniCon unions
can be compared (benchmark E9).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Sequence, Tuple

from repro.errors import EvaluationError, UnsupportedFeatureError
from repro.datalog.atoms import Atom
from repro.datalog.printer import to_datalog
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Constant, FunctionTerm, Term, Variable
from repro.datalog.views import View, ViewSet
from repro.engine.database import Database
from repro.engine.evaluate import evaluate_substitutions
from repro.rewriting.plans import Rewriting, RewritingKind, RewritingResult


class SkolemValue:
    """An opaque value invented by the inverse-rules algorithm.

    A Skolem value ``f(v1, ..., vk)`` stands for the unknown witness of a
    view's existential variable.  Two Skolem values are equal iff they were
    built from the same function name and the same arguments; they are never
    equal to ordinary values, and no order relates them to anything, so an
    order comparison involving one is never satisfied.  Query answers
    containing Skolem values are not certain answers and are filtered out.
    """

    __slots__ = ("function", "args")

    def __init__(self, function: str, args: Sequence[Any] = ()):
        object.__setattr__(self, "function", function)
        object.__setattr__(self, "args", tuple(args))

    def __setattr__(self, key: str, value: Any) -> None:  # pragma: no cover
        raise AttributeError("SkolemValue is immutable")

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, SkolemValue)
            and other.function == self.function
            and other.args == self.args
        )

    def __hash__(self) -> int:
        return hash(("skolem", self.function, self.args))

    def __repr__(self) -> str:
        return f"SkolemValue({self.function!r}, {list(self.args)!r})"

    def __str__(self) -> str:
        return f"{self.function}({', '.join(str(a) for a in self.args)})"


def contains_skolem(values: Iterable[Any]) -> bool:
    """Whether any value in a tuple (or iterable) is a Skolem value."""
    return any(isinstance(v, SkolemValue) for v in values)


@dataclass
class DatalogProgram:
    """A positive datalog program: a list of rules, each a :class:`ConjunctiveQuery`."""

    rules: List[ConjunctiveQuery] = field(default_factory=list)

    def add_rule(self, rule: ConjunctiveQuery) -> None:
        self.rules.append(rule)

    def __len__(self) -> int:
        return len(self.rules)

    def __iter__(self):
        return iter(self.rules)

    def __str__(self) -> str:
        return "\n".join(to_datalog(rule) for rule in self.rules)


def _ground(term: Term, binding: Dict[Variable, Any]) -> Any:
    """The value of a head term under a body match; function terms become
    :class:`SkolemValue` s."""
    if isinstance(term, Variable):
        if term not in binding:
            raise EvaluationError(
                f"head variable {term} is not bound by the rule body; "
                "datalog rules must be safe"
            )
        return binding[term]
    if isinstance(term, Constant):
        return term.value
    return SkolemValue(term.function, [_ground(arg, binding) for arg in term.args])


def evaluate_program(
    program: DatalogProgram, database: Database, max_rounds: int = 10_000
) -> Database:
    """Evaluate a datalog program to fixpoint over a database.

    Returns a new database holding the input facts plus every derived fact.
    Every round applies every rule to the facts so far until a round adds
    nothing: positive datalog is monotone, so this naive iteration reaches
    the least model, recursion included.  Facts are only ever added, so a
    rule whose body relations have not grown since it last ran would derive
    nothing new and is skipped; a non-recursive program's rules each run
    once.  Rule bodies are plain conjunctive queries (run by
    :func:`repro.engine.evaluate.evaluate_substitutions`); only heads may
    hold function terms.  ``max_rounds`` guards against programs that keep
    inventing values.
    """
    current = database.copy()
    read_at: Dict[int, Tuple[int, ...]] = {}  # rule -> body sizes it last ran on
    for _round in range(max_rounds):
        added = 0
        for index, rule in enumerate(program):
            sizes = tuple(len(current.relation(atom.predicate) or ()) for atom in rule.body)
            if read_at.get(index) == sizes:
                continue
            read_at[index] = sizes
            head = rule.head
            facts: List[Tuple[Any, ...]] = [
                tuple(_ground(term, binding) for term in head.args)
                for binding in evaluate_substitutions(rule, current)
            ]
            added += sum(current.add_fact(head.predicate, row) for row in facts)
        if not added:
            return current
    raise EvaluationError(f"datalog evaluation did not converge within {max_rounds} rounds")


def inverse_rules(view: View) -> List[ConjunctiveQuery]:
    """The inverse rules of a single view."""
    if view.definition.comparisons:
        raise UnsupportedFeatureError(
            f"inverse rules are only defined for views without comparison subgoals "
            f"(view {view.name} has {len(view.definition.comparisons)})"
        )
    head_args = view.head.args
    existential = set(view.existential_variables())
    replacement: Dict[Variable, Term] = {
        var: FunctionTerm(f"f_{view.name}_{var.name}", head_args) for var in existential
    }

    def transform(term: Term) -> Term:
        if isinstance(term, Variable) and term in replacement:
            return replacement[term]
        return term

    rules: List[ConjunctiveQuery] = []
    body = (Atom(view.name, head_args),)
    for subgoal in view.body:
        head = Atom(subgoal.predicate, tuple(transform(t) for t in subgoal.args))
        rules.append(ConjunctiveQuery(head, body, require_safe=False))
    return rules


def inverse_rules_program(
    query: ConjunctiveQuery, views: "ViewSet | Iterable[View]"
) -> DatalogProgram:
    """The full inverse-rules program: inverse rules of every view plus the query."""
    view_set = views if isinstance(views, ViewSet) else ViewSet(list(views))
    program = DatalogProgram()
    for view in view_set:
        for rule in inverse_rules(view):
            program.add_rule(rule)
    program.add_rule(query)
    return program


class InverseRulesRewriter:
    """Wraps the inverse-rules construction in the common rewriter interface.

    Unlike the other algorithms, the "rewriting" here is a datalog program
    rather than a union of conjunctive queries over the views, so the
    :class:`Rewriting` it reports carries the query itself and the program is
    exposed separately through :meth:`program`.
    """

    algorithm_name = "inverse-rules"

    def __init__(self, views: "ViewSet | Iterable[View]"):
        self.views = views if isinstance(views, ViewSet) else ViewSet(list(views))

    def program(self, query: ConjunctiveQuery) -> DatalogProgram:
        """The datalog program implementing the maximally-contained rewriting."""
        return inverse_rules_program(query, self.views)

    def rewrite(self, query: ConjunctiveQuery) -> RewritingResult:
        result = RewritingResult(query=query, views=self.views, algorithm=self.algorithm_name)
        program = self.program(query)
        result.candidates_examined = len(program)
        result.rewritings.append(
            Rewriting(
                query=query,
                kind=RewritingKind.MAXIMALLY_CONTAINED,
                algorithm=self.algorithm_name,
                views_used=tuple(v.name for v in self.views),
                expansion=None,
            )
        )
        return result

    def certain_answers(
        self, query: ConjunctiveQuery, view_instance: Database
    ) -> frozenset:
        """Evaluate the program over a view instance and keep Skolem-free answers.

        The query's answers are the facts its rule derives in the fixpoint.
        The rule is renamed to the query's name primed, which no parsed
        predicate can take, so neither a view nor a base predicate named
        like the query mixes its facts in.
        """
        answer = query.with_name(f"{query.name}'")
        derived = evaluate_program(inverse_rules_program(answer, self.views), view_instance)
        return frozenset(
            row for row in derived.tuples(answer.name) if not contains_skolem(row)
        )
