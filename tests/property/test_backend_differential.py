"""Differential properties of the storage layer (PR 9).

Three invariants:

1. **Backend agreement** — the same random query over the same random data
   returns identical answers whether the base facts live in a plain
   in-process :class:`Database`, a memory-backend :class:`BackedDatabase`,
   or a sqlite-backend one — under each of the three executors.  A fresh
   backed database is built per executor so the single-atom pushdown path
   (cold relation, constant-filtered SQL scan) genuinely runs before
   hydration can hide it.
2. **Write-path agreement** — after the same random delta churn, a
   sqlite-backed database and a plain one hold identical extents, and the
   backend's on-disk rows match what it reports through scans.
3. **Delta text round-trip** — ``parse_delta(delta.to_text()) == delta``
   for deltas over nasty heterogeneous values (quotes, newlines, control
   characters, numerics that collide under Python equality).
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.engine.evaluate import evaluate
from repro.exec import CompiledExecutor, InterpretedExecutor
from repro.materialize.delta import Delta, parse_delta
from repro.storage import BackedDatabase, MemoryBackend
from repro.storage.sqlite import SQLiteBackend

from tests.property.strategies import conjunctive_queries, databases

DIFFERENTIAL = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
RELAXED = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

INTERPRETED = InterpretedExecutor()
COMPILED = CompiledExecutor()


def sqlite_copy(database: Database) -> BackedDatabase:
    return BackedDatabase.from_database(database, SQLiteBackend(None))


def memory_copy(database: Database) -> BackedDatabase:
    return BackedDatabase.from_database(database, MemoryBackend())


class TestBackendAgreement:
    @DIFFERENTIAL
    @given(database=databases(), query=conjunctive_queries())
    def test_backends_and_executors_agree(self, database, query):
        expected = evaluate(query, database, executor=INTERPRETED)
        for executor in (INTERPRETED, COMPILED):
            for copy in (memory_copy, sqlite_copy):
                assert evaluate(query, copy(database), executor=executor) == expected

    @DIFFERENTIAL
    @given(database=databases(), query=conjunctive_queries())
    def test_pushdown_does_not_change_answers(self, database, query):
        # One shared backed database per executor: earlier queries may have
        # hydrated some relations, later ones hit the pushdown path — the
        # answers must not depend on which path served the scan.
        expected = evaluate(query, database, executor=COMPILED)
        backed = sqlite_copy(database)
        cold = evaluate(query, backed, executor=COMPILED)
        warm = evaluate(query, backed, executor=COMPILED)
        assert cold == expected
        assert warm == expected


# -- write-path agreement ----------------------------------------------------

churn_rows = st.frozensets(
    st.tuples(
        st.integers(min_value=0, max_value=3), st.integers(min_value=0, max_value=3)
    ),
    max_size=4,
)
churn_sides = st.fixed_dictionaries({"r": churn_rows, "s": churn_rows})
churn_deltas = st.lists(
    st.builds(Delta, inserted=churn_sides, removed=churn_sides), max_size=4
)


class TestWritePathAgreement:
    @RELAXED
    @given(database=databases(), deltas=churn_deltas)
    def test_delta_churn_matches_plain_database(self, database, deltas):
        plain = database.copy()
        backed = sqlite_copy(database)
        for delta in deltas:
            plain.apply_delta(delta)
            backed.apply_delta(delta)
        assert backed == plain
        # The backend itself must agree with the hydrated view of the world.
        backend = backed.backend
        for name in backed.relation_names():
            assert frozenset(backend.scan(name)) == plain.tuples(name)


# -- delta text round-trip ---------------------------------------------------

nasty_text = st.text(
    alphabet=st.characters(
        codec="utf-8", exclude_characters="\x00"
    ),
    max_size=12,
)
nasty_values = st.one_of(
    nasty_text,
    st.integers(min_value=-1000, max_value=1000),
    st.booleans(),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
)
nasty_rows = st.frozensets(st.tuples(nasty_values, nasty_values), max_size=3)
nasty_sides = st.fixed_dictionaries({"rel_a": nasty_rows, "rel_b": nasty_rows})


class TestDeltaTextRoundTrip:
    @RELAXED
    @given(delta=st.builds(Delta, inserted=nasty_sides, removed=nasty_sides))
    def test_parse_inverts_to_text(self, delta):
        assert parse_delta(delta.to_text()) == delta
