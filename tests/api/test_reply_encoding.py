"""Reply encoding: one text per row is the sort key and, for ints and tuples
of them, the JSON as well.  Every reply must stay byte-for-byte the slow
construction, ``json.dumps(sorted(rows, key=repr), default=str)``."""

import json
import math
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import connect
from repro.api import results
from repro.api.results import Answer, Provenance, encode_rows, sort_rows
from repro.datalog.parser import parse_views
from repro.datalog.views import ViewSet
from repro.engine.relation import SkolemValue
from repro.workloads.updates import chain_update_workload

PROVENANCE = Provenance(source="views", rewriting=None, kind=None, algorithm="minicon")


def slow(rows):
    return json.dumps(sorted(rows, key=repr), default=str)


scalars = st.one_of(
    st.integers(min_value=-1000, max_value=1000),
    st.integers(min_value=-(2**80), max_value=2**80),
    st.text(alphabet=st.sampled_from("ab'\"\\é€ ,()[]-09\n"), max_size=6),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([float("nan"), float("inf"), float("-inf"), -0.0, 0.0]),
    st.booleans(),
    st.none(),
    st.builds(SkolemValue, st.sampled_from(["f", "g"]), st.lists(st.integers(), max_size=2)),
)
#: Ints and nested tuples of them only: the rows that skip ``json.dumps``.
int_values = st.recursive(
    st.integers(min_value=-(2**70), max_value=2**70),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=5,
)
any_values = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=5
)


@st.composite
def row_sets(draw):
    arity = draw(st.integers(min_value=0, max_value=5))
    # Mixed types within one column come from ``any_values`` itself.
    values = draw(st.sampled_from([int_values, any_values]))
    return draw(st.frozensets(st.tuples(*[values] * arity), max_size=8))


class TestByteIdentity:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(rows=row_sets())
    def test_json_text_is_to_json_dumped(self, rows):
        answer = Answer(rows=rows, query="q(X) :- r(X).", provenance=PROVENANCE, elapsed=0.5)
        assert answer._json_text() == json.dumps(answer.to_json(), default=str)
        assert encode_rows(rows) == slow(rows)
        assert [repr(row) for row in sort_rows(rows)] == sorted(map(repr, rows))

    def test_rows_of_several_arities(self):
        rows = frozenset({(1, 2), (3,), (), ((4,), -5)})
        assert encode_rows(rows) == slow(rows)

    def test_empty_and_nullary(self):
        assert encode_rows(frozenset()) == "[]"
        assert encode_rows(frozenset({()})) == "[[]]"

    def test_nested_tuples_of_ints(self):
        rows = frozenset({((1,), ()), ((-2, (3,)), (4, 5)), ((), (6,))})
        assert encode_rows(rows) == slow(rows)

    def test_ints_skip_json_dumps(self):
        rows = frozenset({(i, -i, 10**30) for i in range(20)})
        with mock.patch.object(results.json, "dumps", side_effect=AssertionError):
            text = encode_rows(rows)
        assert text == slow(rows)

    def test_a_repr_with_a_bracket_takes_json_dumps(self):
        class Bracketed:
            """Its ``repr`` looks like JSON; JSON encodes it by ``str``."""

            def __repr__(self):
                return "[1, 2]"

            def __str__(self):
                return "bracketed"

        rows = frozenset({(Bracketed(), 3), (1, 2)})
        assert encode_rows(rows) == slow(rows) == '[[1, 2], ["bracketed", 3]]'

    def test_special_floats(self):
        rows = frozenset({(float("nan"),), (float("inf"),), (-0.0, 1), (1, -0.0)})
        assert encode_rows(rows) == slow(rows)
        assert math.isnan(json.loads(encode_rows(frozenset({(float("nan"),)})))[0][0])


class TestScenarioWithStringsNegativesAndFloats:
    """The chain churn scenario plus a relation of quoted strings, negative
    ints and floats, answered through a view."""

    TEXTS = (
        "q(X0, X4) :- r1(X0, X1), r2(X1, X2), r3(X2, X3), r4(X3, X4).",
        "q(X0) :- r1(X0, X1), r2(X1, X2).",
        "q(A, C) :- m(A, B, C).",
        "q(B) :- m(A, B, C).",
        "q(A, B, C) :- m(A, B, C), B < 0.",
    )
    MIXED = (
        ("it's", -3, 2.5), ('say "hi"', -40, -0.5), ("a\\b", 7, 1e3),
        ("café", -3, 2.5), ("€", 0, -7.25), ("plain", 12, 3.0), ("neg", -12, -0.0),
    )

    def test_answer_json_text_is_to_json_dumped(self):
        workload = chain_update_workload(
            length=4, tuples_per_relation=60, domain_size=20, steps=0, seed=3
        )
        views = ViewSet(list(workload.views) + list(parse_views("w(A, B, C) :- m(A, B, C).")))
        data = workload.database.copy()
        for row in self.MIXED:
            data.add_fact("m", row)
        engine = connect(views=views, data=data)
        for _ in range(3):
            for text in self.TEXTS:
                answer = engine.query(text).answers()
                assert answer.rows, text
                assert answer._json_text() == json.dumps(answer.to_json(), default=str)
                assert encode_rows(answer.rows) == slow(answer.rows)
