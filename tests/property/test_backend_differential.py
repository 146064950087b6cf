"""Differential properties of the storage layer.

Two invariants:

1. **Durable churn** — random deltas applied through a durable engine,
   whose writer is then abandoned as a crash would leave it, recover to
   exactly the database a plain :class:`Database` reaches by applying the
   same deltas.
2. **Delta text round-trip** — ``parse_delta(delta.to_text()) == delta``
   for deltas over nasty heterogeneous values (quotes, newlines, control
   characters, numerics that collide under Python equality).
"""

import tempfile

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import connect
from repro.materialize.delta import Delta, parse_delta

from tests.property.strategies import databases

RELAXED = settings(
    max_examples=100,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


# -- durable churn -------------------------------------------------------------

CHURN_VIEWS = "v(X, Z) :- r(X, Y), s(Y, Z)."

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


class TestDurableChurn:
    @RELAXED
    @given(database=databases(), deltas=churn_deltas)
    def test_recovered_state_matches_a_plain_database(self, database, deltas):
        expected = database.copy()
        for delta in deltas:
            expected.apply_delta(delta)
        with tempfile.TemporaryDirectory() as storage:
            writer = connect(
                views=CHURN_VIEWS, data=database.copy(), storage=storage, wal="none"
            )
            for delta in deltas:
                writer.apply(delta)
            # No close yet: recovery reads what a crash would leave.
            recovered = connect(views=CHURN_VIEWS, storage=storage)
            try:
                assert recovered.database == expected
                assert recovered.verify() == []
            finally:
                recovered.close()
                writer.close()


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
