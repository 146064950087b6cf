"""Hypothesis strategies for generating small queries, views and databases."""

from __future__ import annotations

from hypothesis import strategies as st

from repro.datalog.atoms import Atom, Comparison
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Constant, Variable
from repro.datalog.views import View, ViewSet
from repro.engine.database import Database

#: Small pools keep generated objects overlappy enough to be interesting.
VARIABLE_POOL = [Variable(name) for name in ("X", "Y", "Z", "W", "U")]
PREDICATE_POOL = ["r", "s", "t"]
CONSTANT_POOL = [Constant(value) for value in (0, 1, 2)]
DOMAIN = [0, 1, 2, 3]


variables = st.sampled_from(VARIABLE_POOL)
constants = st.sampled_from(CONSTANT_POOL)
terms = st.one_of(variables, variables, variables, constants)  # bias towards variables
predicates = st.sampled_from(PREDICATE_POOL)


@st.composite
def atoms(draw) -> Atom:
    """A binary atom over the small predicate/term pools."""
    predicate = draw(predicates)
    return Atom(predicate, [draw(terms), draw(terms)])


@st.composite
def bodies(draw, min_size: int = 1, max_size: int = 4):
    """A connected-ish body: later atoms reuse at least one earlier variable when possible."""
    size = draw(st.integers(min_value=min_size, max_value=max_size))
    body = [draw(atoms())]
    for _ in range(size - 1):
        atom = draw(atoms())
        used = [v for a in body for v in a.variables()]
        if used and not (set(atom.variables()) & set(used)):
            # Tie the new atom to the existing body through its first argument.
            atom = Atom(atom.predicate, [used[0], atom.args[1]])
        body.append(atom)
    return body


@st.composite
def conjunctive_queries(draw, max_head: int = 2, name: str = "q") -> ConjunctiveQuery:
    """A safe conjunctive query over the small pools."""
    body = draw(bodies())
    body_vars = []
    for atom in body:
        for var in atom.variables():
            if var not in body_vars:
                body_vars.append(var)
    if body_vars:
        head_size = draw(st.integers(min_value=1, max_value=min(max_head, len(body_vars))))
        head_vars = body_vars[:head_size]
    else:
        head_vars = []
    return ConjunctiveQuery(Atom(name, head_vars), body)


@st.composite
def queries_with_comparisons(draw, max_comparisons: int = 2, name: str = "q") -> ConjunctiveQuery:
    """A safe conjunctive query with a few comparisons over its own body variables."""
    query = draw(conjunctive_queries(name=name))
    body_vars = query.body_variables()
    if not body_vars:
        return query
    own = st.sampled_from(body_vars)
    operators = st.sampled_from(["<", "<=", "=", "!=", ">", ">="])
    count = draw(st.integers(min_value=0, max_value=max_comparisons))
    comparisons = [
        Comparison(draw(own), draw(operators), draw(st.one_of(own, own, constants)))
        for _ in range(count)
    ]
    return query.add_subgoals(comparisons=comparisons)


@st.composite
def comparison_sets(draw, max_size: int = 4):
    """A small list of comparisons over three variables and small integers."""
    operators = st.sampled_from(["<", "<=", "=", "!=", ">", ">="])
    operands = st.one_of(
        st.sampled_from([Variable("A"), Variable("B"), Variable("C")]),
        st.sampled_from([Constant(1), Constant(2), Constant(3)]),
    )
    size = draw(st.integers(min_value=0, max_value=max_size))
    return [Comparison(draw(operands), draw(operators), draw(operands)) for _ in range(size)]


@st.composite
def view_sets(draw, min_views: int = 1, max_views: int = 4) -> ViewSet:
    """A set of views drawn from the same distribution as the queries."""
    count = draw(st.integers(min_value=min_views, max_value=max_views))
    views = []
    for index in range(count):
        definition = draw(conjunctive_queries(name=f"v{index + 1}"))
        views.append(View(definition.name, definition))
    return ViewSet(views)


@st.composite
def databases(draw, max_tuples: int = 12) -> Database:
    """A small database over the binary predicate pool and a tiny domain."""
    database = Database()
    for predicate in PREDICATE_POOL:
        database.ensure_relation(predicate, 2)
        count = draw(st.integers(min_value=0, max_value=max_tuples))
        for _ in range(count):
            row = (draw(st.sampled_from(DOMAIN)), draw(st.sampled_from(DOMAIN)))
            database.add_fact(predicate, row)
    return database
