"""Property-based tests for counting maintenance: exact multiplicities.

Counting keeps, per view row, the number of assignments of the definition's
body that derive it.  After every delta the maintained counts must equal the
counts recomputed from scratch over the new state — not just the extent
(which rows have a positive count), but each multiplicity.  The definitions
are drawn with self-joins, constants, repeated variables and comparisons, and
each delta inserts and deletes rows of several relations at once.

The full counts come from a generated kernel (:mod:`repro.exec.plan`); they
must equal the interpreter's, one count per satisfying assignment, on every
definition shape, and fail where the interpreter fails.
"""

from collections import Counter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import EvaluationError
from repro.datalog.atoms import Atom, Comparison
from repro.datalog.parser import parse_query
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Variable
from repro.engine.database import Database
from repro.engine.evaluate import evaluate_substitutions
from repro.materialize.counting import apply_count_changes, delta_counts, derivation_counts
from repro.materialize.delta import Delta

from tests.property.strategies import DOMAIN, PREDICATE_POOL, databases, queries_with_comparisons

RELAXED = settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

rows = st.tuples(st.sampled_from(DOMAIN), st.sampled_from(DOMAIN))
sides = st.fixed_dictionaries({name: st.frozensets(rows, max_size=3) for name in PREDICATE_POOL})
deltas = st.builds(Delta, inserted=sides, removed=sides)


class TestExactMultiplicities:
    @RELAXED
    @given(
        definitions=st.lists(queries_with_comparisons(name="v"), min_size=1, max_size=3),
        database=databases(max_tuples=8),
        batches=st.lists(deltas, min_size=1, max_size=4),
    )
    def test_maintained_counts_equal_recomputed_counts(self, definitions, database, batches):
        counts = [derivation_counts(definition, database) for definition in definitions]
        for batch in batches:
            effective = database.apply_delta(batch)
            for definition, maintained in zip(definitions, counts):
                before = frozenset(maintained)
                inserted, removed = apply_count_changes(
                    maintained, delta_counts(definition, database, effective)
                )
                assert maintained == derivation_counts(definition, database), definition
                assert inserted == frozenset(maintained) - before
                assert removed == before - frozenset(maintained)

    @RELAXED
    @given(database=databases(max_tuples=8), batch=deltas)
    def test_self_join_with_repeated_variables_and_constants(self, database, batch):
        definition = parse_query("v(X, Z) :- r(X, Y), r(Y, Z), r(Z, Z), s(X, 1), X != Z.")
        counts = derivation_counts(definition, database)
        effective = database.apply_delta(batch)
        apply_count_changes(counts, delta_counts(definition, database, effective))
        assert counts == derivation_counts(definition, database)


class TestDeltaRows:
    def test_a_delta_row_of_another_arity_matches_nothing(self):
        definition = parse_query("v(X) :- r(X, Y), s(Y).")
        database = Database.from_dict({"r": [(1, 2)], "s": [(2,)]})
        stray = Delta(inserted={"r": [(3,), (4,)]}, removed={"s": [(2, 2)]})
        assert delta_counts(definition, database, stray) == Counter()


def interpreted_counts(definition, database):
    """The reference: one count per assignment the interpreter enumerates."""
    counts: Counter = Counter()
    for binding in evaluate_substitutions(definition, database):
        head = definition.head.args
        counts[tuple(binding[t] if isinstance(t, Variable) else t.value for t in head)] += 1
    return counts


def both(definition, database):
    """The kernel's counts and the interpreter's, or the errors they raise."""
    outcomes = []
    for count in (derivation_counts, interpreted_counts):
        try:
            outcomes.append(count(definition, database))
        except EvaluationError as error:
            outcomes.append((type(error), str(error)))
    return outcomes


class TestKernelCounts:
    @RELAXED
    @given(definition=queries_with_comparisons(name="v"), database=databases(max_tuples=8))
    def test_kernel_counts_equal_the_interpreters(self, definition, database):
        kernel, interpreter = both(definition, database)
        assert kernel == interpreter, definition

    @pytest.mark.parametrize(
        "text",
        [
            "v(X, Z) :- r(X, Y), r(Y, Z), r(Z, Z).",  # self-joins, a repeated variable
            "v(X) :- r(X, X), s(X, 1), X != 2.",  # a constant in the body
            "v(X, 7) :- r(X, Y), s(Y, X).",  # a constant in the head
            "v() :- r(X, Y), s(Y, Z).",  # a zero-arity head
            "v(X) :- r(X, Y), missing(Y).",  # a missing relation
            "v(X) :- r(X, Y), 1 < 2.",  # a ground comparison
            "v(X) :- r(X, Y), 2 < 1.",
        ],
    )
    def test_definition_shapes(self, text):
        database = Database.from_dict(
            {"r": [(1, 1), (1, 2), (2, 1), (2, 2), (3, 1)], "s": [(1, 1), (2, 1)]}
        )
        kernel, interpreter = both(parse_query(text), database)
        assert kernel == interpreter

    def test_a_comparison_over_a_variable_the_body_never_binds_holds(self):
        x, y, never = Variable("X"), Variable("Y"), Variable("N")
        definition = ConjunctiveQuery(
            Atom("v", [x]), [Atom("r", [x, y])], [Comparison(never, "<", 3)], require_safe=False
        )
        database = Database.from_dict({"r": [(1, 2), (1, 3)]})
        assert derivation_counts(definition, database) == Counter({(1,): 2})
        assert derivation_counts(definition, database) == interpreted_counts(definition, database)

    def test_an_arity_mismatch_raises_when_reached(self):
        database = Database.from_dict({"r": [(1, 2)], "s": [(2, 3, 4)], "t": [(5, 5)]})
        reached = parse_query("v(X) :- r(X, Y), s(Y, Z).")
        kernel, interpreter = both(reached, database)
        assert kernel == interpreter
        assert kernel[0] is EvaluationError
        assert "has arity 2 but relation s has arity 3" in kernel[1]
        # The join is empty before s is reached: nothing raises.
        unreached = parse_query("v(X) :- r(X, Y), t(Y, W), s(W, Z).")
        assert both(unreached, database) == [Counter(), Counter()]
