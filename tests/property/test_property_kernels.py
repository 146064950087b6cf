"""Property: generated kernels agree with the interpreter on every query.

``CompiledExecutor().evaluate(q, db)`` against ``evaluate(q, db,
executor="interpreted")`` — over the shared strategies' conjunctive queries
with comparisons (random heads, mixed-type constants and data, Skolem values),
and over one hand-written case per branch of the kernel generator.  Every
example also re-runs the query with other constants through the *same*
executor, so the second evaluation binds new parameters into kernels generated
for the first.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.atoms import Atom, Comparison
from repro.datalog.parser import parse_query
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Constant, Variable
from repro.engine.database import Database
from repro.engine.evaluate import evaluate
from repro.rewriting.inverse_rules import SkolemValue
from repro.errors import EvaluationError
from repro.exec import CompiledExecutor

from tests.property.strategies import PREDICATE_POOL, queries_with_comparisons

RELAXED = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

#: Equal-but-distinct values (1 / 1.0 / True), a string that only looks like
#: them, and Skolem values, which join by identity and never satisfy an order.
CONSTANT_VALUES = [0, 1, 2, 1.0, True, "1", "a"]
DATA_VALUES = CONSTANT_VALUES + [3, SkolemValue("f", (1,)), SkolemValue("f", (2,))]


def outcome(query, database, executor):
    """The answer set, or which error: both engines must agree on either.

    (The two engines word their messages differently — a plan names the
    canonical variant's ``V<n>`` for an unbound head variable and a predicate
    where the interpreter prints the subgoal — so only the kind is compared.)
    """
    try:
        return evaluate(query, database, executor=executor)
    except EvaluationError as error:
        return next(kind for kind in ("arity", "not bound") if kind in str(error))


def assert_agrees(query, database, executor=None):
    executor = executor if executor is not None else CompiledExecutor()
    assert outcome(query, database, executor) == outcome(query, database, "interpreted")


def with_constants(query, mapping):
    """``query`` with each constant replaced through ``mapping`` (head included)."""
    def swap(term):
        return mapping(term) if isinstance(term, Constant) else term

    return ConjunctiveQuery(
        Atom(query.name, [swap(t) for t in query.head.args]),
        [Atom(a.predicate, [swap(t) for t in a.args]) for a in query.body],
        [Comparison(swap(c.left), c.op, swap(c.right)) for c in query.comparisons],
        require_safe=False,
    )


@st.composite
def mixed_databases(draw, max_tuples: int = 10) -> Database:
    database = Database()
    values = st.sampled_from(DATA_VALUES)
    for predicate in PREDICATE_POOL:
        if draw(st.integers(0, 5)) == 0:
            continue  # a missing relation
        database.ensure_relation(predicate, 2)  # possibly left empty
        for _ in range(draw(st.integers(0, max_tuples))):
            database.add_fact(predicate, (draw(values), draw(values)))
    return database


@st.composite
def queries(draw) -> ConjunctiveQuery:
    """A strategies.py query under a random head (variables it binds, ones it
    does not, constants), its small-int constants redrawn from the mixed pool."""
    query = draw(queries_with_comparisons())
    head_terms = st.one_of(
        st.sampled_from(list(query.body_variables()) or [Constant(0)]),
        st.sampled_from([Constant(0), Constant("a"), Variable("Unbound")]),
    )
    head = draw(st.lists(head_terms, min_size=0, max_size=3))
    query = ConjunctiveQuery(
        Atom(query.name, head), query.body, query.comparisons, require_safe=False
    )
    redrawn = {c: Constant(draw(st.sampled_from(CONSTANT_VALUES))) for c in query.constants()}
    return with_constants(query, redrawn.__getitem__)


class TestKernelsMatchTheInterpreter:
    @RELAXED
    @given(query=queries(), database=mixed_databases(), other=st.sampled_from(CONSTANT_VALUES))
    def test_random_queries_agree_and_rebind(self, query, database, other):
        executor = CompiledExecutor()
        assert_agrees(query, database, executor)
        # Other constants: the same kernels whenever the canonical subgoal
        # order survives the change (tests/exec/test_shapes.py pins the hits).
        rebound = with_constants(query, lambda constant: Constant(other))
        assert_agrees(rebound, database, executor)


def _database():
    skolem = SkolemValue("f", (1,))
    return Database.from_dict(
        {
            "r": [(1, 1), (1, 2), (2, 2), (2, 3), (3, 1), (True, "1"), (1.0, "a"), (skolem, 2)],
            "s": [(1, 5), (2, 6), (2, 2), ("1", 7), (3, skolem), (skolem, skolem)],
            "t": [(0, 0), (5, 6)],
            "u": [(1, 1, 2), (1, 2, 2), (2, 2, 2), (3, 3, 1)],
            "empty": [],
        }
    )


FORCED = [
    # a repeated variable inside one atom: scan, keyed probe, with a third column
    "q(X) :- r(X, X).",
    "q(X, Y) :- s(X, Y), r(Y, Y).",
    "q(X, Z) :- u(X, X, Z).",
    "q(Z) :- u(X, Y, Y), r(X, Z).",
    # constants in key positions and in filters, of every type
    "q(X) :- r(X, 2).",
    "q(X) :- r(1, X).",
    "q(X) :- r(1.0, X).",
    "q(X) :- r(true, X).",
    "q(X) :- r(X, '1').",
    "q(X) :- r(X, 'a').",
    "q(X, Y) :- r(X, Y), X = 1.",
    "q(X, Y) :- r(X, Y), X != 1.0.",
    "q(X, Y) :- r(X, Y), Y = '1'.",
    "q(X, Y) :- r(X, Y), Y != 'a'.",
    "q(X, Y) :- r(X, Y), X = true.",
    "q(X, Y) :- r(X, Y), 2 <= Y.",
    "q(X, Y) :- r(X, Y), Y < 'b'.",  # int < str: incomparable, never satisfied
    "q(X) :- r(X, 2), s(X, 6), X >= 2.",
    # Skolem values: join by identity, never satisfy an order comparison
    "q(X, Y) :- r(X, Y), X < 3.",
    "q(X, Y) :- s(X, Y), Y >= 0.",
    "q(X, Y) :- s(X, Y), X >= Y.",
    "q(X, Y) :- s(X, Y), X = Y.",
    "q(X, Y) :- s(X, Y), X != Y.",
    "q(X, Z) :- s(X, Y), r(Y, Z).",
    # a disconnected subgoal: enumerated, existential, filtered
    "q(X, A) :- r(X, Y), t(A, B).",
    "q(X) :- r(X, Y), t(A, B).",
    "q(X) :- r(X, Y), t(A, B), A != B.",
    "q(X) :- r(X, Y), t(A, A).",
    "q(X) :- r(X, Y), empty(A, B).",
    # a dead filtered variable: semi-join with a filter (=, !=, order, two filters)
    "q(X) :- r(X, Y), s(Y, Z), Z != 6.",
    "q(X) :- r(X, Y), s(Y, Z), Z = 6.",
    "q(X) :- r(X, Y), s(Y, Z), Z > 5.",
    "q(X) :- r(X, Y), s(Y, Z), Z > X.",
    "q(X) :- r(X, Y), s(Y, Z), Z != 2, Z < 7.",
    # head constants, repeated head variables, boolean heads
    "q(X, 7, X) :- r(X, Y).",
    "q('a', 1.0) :- r(X, Y), Y > 2.",
    "q() :- r(X, Y), s(Y, Z).",
    "q() :- r(X, 77).",
    # ground comparisons
    "q(X) :- r(X, Y), 1 < 2.",
    "q(X) :- r(X, Y), 2 < 1.",
    "q(X) :- r(X, Y), 1 = 1.0.",
    "q(X) :- r(X, Y), 'a' < 1.",
    # empty and missing relations, at either end of the pipeline
    "q(X) :- empty(X, Y).",
    "q(X) :- r(X, Y), empty(Y, Z).",
    "q(X) :- missing(X, Y), r(Y, Z).",
    "q(X, Z) :- r(X, Y), missing(Y, Z).",
    # arity mismatch: as a scan, an extending probe and a semi-join
    "q(X) :- r(X).",
    "q(X, Z) :- s(X, Y), u(Y, Z).",
    "q(X) :- s(X, Y), u(Y, Z).",
]


class TestEveryGeneratorBranch:
    @pytest.mark.parametrize("text", FORCED)
    def test_forced_case_agrees(self, text):
        assert_agrees(parse_query(text), _database())

    @pytest.mark.parametrize("text", [t for t in FORCED if parse_query(t).constants()])
    def test_forced_case_agrees_when_its_plan_was_compiled_for_other_constants(self, text):
        query, executor = parse_query(text), CompiledExecutor()
        other = with_constants(query, lambda constant: Constant("zz"))
        assert_agrees(other, _database(), executor)
        assert_agrees(query, _database(), executor)

    def test_unbound_head_variable_raises_only_when_a_row_reaches_projection(self):
        x, y, w = Variable("X"), Variable("Y"), Variable("W")
        database = _database()
        reached = ConjunctiveQuery(Atom("q", [x, w]), [Atom("r", [x, y])], require_safe=False)
        filtered = ConjunctiveQuery(
            Atom("q", [x, w]), [Atom("r", [x, y])], [Comparison(y, ">", 99)], require_safe=False
        )
        assert outcome(reached, database, CompiledExecutor()) == "not bound"
        assert outcome(reached, database, "interpreted") == "not bound"
        assert outcome(filtered, database, CompiledExecutor()) == frozenset()
        assert_agrees(filtered, database)

    def test_the_arity_cases_do_raise(self):
        for text in FORCED[-3:]:
            with pytest.raises(EvaluationError):
                CompiledExecutor().evaluate(parse_query(text), _database())
