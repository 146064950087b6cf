"""Property: the compiled executor and the interpreter agree on every query.

Random small queries (optionally with comparison subgoals) over random small
databases — the compiled engine's answer set, statistics-visible behaviors
and error behaviors must match the interpreter's, which is the semantic
ground truth.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.atoms import Atom, Comparison
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Constant, Variable
from repro.engine.evaluate import evaluate
from repro.exec import CompiledExecutor

from tests.property.strategies import conjunctive_queries, databases

RELAXED = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

COMPILED = CompiledExecutor()
INTERPRETED = "interpreted"


@st.composite
def queries_with_comparisons(draw):
    query = draw(conjunctive_queries())
    body_vars = list(query.body_variables())
    if not body_vars:
        return query
    operators = st.sampled_from(["<", "<=", "=", "!=", ">", ">="])
    operands = st.one_of(
        st.sampled_from(body_vars),
        st.sampled_from([Constant(0), Constant(1), Constant(2)]),
    )
    count = draw(st.integers(min_value=0, max_value=2))
    comparisons = [
        Comparison(draw(operands), draw(operators), draw(operands)) for _ in range(count)
    ]
    return query.with_body(query.body, comparisons)


@st.composite
def queries_with_random_heads(draw):
    """Any head over the body: a possibly empty, possibly repeating draw of
    body variables and constants — so every variable is existential in some
    example and the liveness-aware layout is exercised end to end."""
    query = draw(queries_with_comparisons())
    terms = st.one_of(
        st.sampled_from(list(query.body_variables()) or [Constant(0)]),
        st.sampled_from([Constant(0), Constant(7)]),
    )
    head = draw(st.lists(terms, min_size=0, max_size=3))
    return ConjunctiveQuery(Atom(query.name, head), query.body, query.comparisons)


class TestCompiledMatchesInterpreter:
    @RELAXED
    @given(query=conjunctive_queries(), database=databases())
    def test_plain_queries_agree(self, query, database):
        assert evaluate(query, database, executor=COMPILED) == evaluate(
            query, database, executor=INTERPRETED
        )

    @RELAXED
    @given(query=queries_with_comparisons(), database=databases())
    def test_queries_with_comparisons_agree(self, query, database):
        assert evaluate(query, database, executor=COMPILED) == evaluate(
            query, database, executor=INTERPRETED
        )

    @settings(RELAXED, max_examples=300)
    @given(query=queries_with_random_heads(), database=databases())
    def test_random_head_projections_agree(self, query, database):
        assert evaluate(query, database, executor=COMPILED) == evaluate(
            query, database, executor=INTERPRETED
        )
