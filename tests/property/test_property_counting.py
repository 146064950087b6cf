"""Property-based tests for counting maintenance: exact multiplicities.

Counting keeps, per view row, the number of assignments of the definition's
body that derive it.  After every delta the maintained counts must equal the
counts recomputed from scratch over the new state — not just the extent
(which rows have a positive count), but each multiplicity.  The definitions
are drawn with self-joins, constants, repeated variables and comparisons, and
each delta inserts and deletes rows of several relations at once.
"""

from collections import Counter

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.parser import parse_query
from repro.engine.database import Database
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
