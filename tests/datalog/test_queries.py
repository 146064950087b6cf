"""Tests for conjunctive queries and unions."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import QueryConstructionError, UnsafeQueryError
from repro.datalog.atoms import Atom, Comparison
from repro.datalog.queries import ConjunctiveQuery, UnionQuery, as_union
from repro.datalog.parser import parse_query
from repro.datalog.substitution import Substitution
from repro.datalog.terms import Constant, Variable

from tests.property.strategies import queries_with_comparisons


class TestConstruction:
    def test_simple_query(self):
        query = ConjunctiveQuery(Atom("q", ["X"]), [Atom("r", ["X", "Y"])])
        assert query.name == "q"
        assert query.arity == 1
        assert query.size() == 1

    def test_unsafe_head_rejected(self):
        with pytest.raises(UnsafeQueryError):
            ConjunctiveQuery(Atom("q", ["X"]), [Atom("r", ["Y", "Z"])])

    def test_unsafe_comparison_rejected(self):
        with pytest.raises(UnsafeQueryError):
            ConjunctiveQuery(
                Atom("q", ["X"]),
                [Atom("r", ["X"])],
                [Comparison("Z", "<", 5)],
            )

    def test_unsafe_allowed_when_requested(self):
        query = ConjunctiveQuery(
            Atom("q", ["X"]), [Atom("r", ["Y"])], require_safe=False
        )
        assert not query.is_safe()

    def test_boolean_query(self):
        query = parse_query("q() :- r(X, Y).")
        assert query.is_boolean
        assert query.arity == 0

    def test_empty_body_must_be_ground(self):
        ConjunctiveQuery(Atom("q", ["a", 1]), [])  # fine: ground fact
        with pytest.raises(QueryConstructionError):
            ConjunctiveQuery(Atom("q", ["X"]), [])

    def test_non_atom_body_rejected(self):
        with pytest.raises(QueryConstructionError):
            ConjunctiveQuery(Atom("q", []), ["not an atom"])


class TestInspection:
    def test_variable_accessors(self):
        query = parse_query("q(X) :- r(X, Y), s(Y, Z), X < Z.")
        assert query.head_variables() == (Variable("X"),)
        assert set(query.body_variables()) == {Variable("X"), Variable("Y"), Variable("Z")}
        assert set(query.existential_variables()) == {Variable("Y"), Variable("Z")}

    def test_constants(self):
        query = parse_query("q(X) :- r(X, 5), s(X, 'bob').")
        assert set(query.constants()) == {Constant(5), Constant("bob")}

    def test_predicates(self):
        query = parse_query("q(X) :- r(X, Y), s(Y), r(Y, X).")
        assert query.predicates() == frozenset({("r", 2), ("s", 1)})

    def test_subgoals_for(self):
        query = parse_query("q(X) :- r(X, Y), s(Y), r(Y, X).")
        assert len(query.subgoals_for("r")) == 2

    def test_join_variables(self):
        query = parse_query("q(X) :- r(X, Y), s(Y, Z), t(Z, Z).")
        assert set(query.join_variables()) == {Variable("Y"), Variable("Z")}


class TestEqualityAndCanonical:
    def test_equality_ignores_subgoal_order(self):
        q1 = parse_query("q(X) :- r(X, Y), s(Y).")
        q2 = parse_query("q(X) :- s(Y), r(X, Y).")
        assert q1 == q2
        assert hash(q1) == hash(q2)

    def test_different_queries_not_equal(self):
        assert parse_query("q(X) :- r(X, Y).") != parse_query("q(X) :- r(Y, X).")

    def test_canonical_renames_variables(self):
        q1 = parse_query("q(A) :- r(A, B), s(B).")
        q2 = parse_query("q(X) :- r(X, Y), s(Y).")
        assert q1.canonical() == q2.canonical()

    def test_canonical_distinguishes_structure(self):
        q1 = parse_query("q(A) :- r(A, B), s(B).")
        q2 = parse_query("q(A) :- r(A, B), s(A).")
        assert q1.canonical() != q2.canonical()


def _sorted_definition(query):
    """Equality's and hashing's definition, computed from scratch."""
    return (
        query.head,
        sorted(query.body, key=Atom.sort_key),
        sorted(query.comparisons, key=Comparison.sort_key),
    )


class TestCachedNormalForm:
    """``==`` and ``hash`` read a normal form cached on the query: they must
    agree with sorting both sides on every call."""

    @settings(max_examples=200, deadline=None)
    @given(query=queries_with_comparisons(), other=queries_with_comparisons(), data=st.data())
    def test_equality_and_hash_match_sorting_on_every_call(self, query, other, data):
        body = data.draw(st.permutations(query.body))
        comparisons = data.draw(st.permutations(query.comparisons))
        shuffled = ConjunctiveQuery(query.head, body, comparisons)
        for left, right in [(query, shuffled), (query, other), (shuffled, other)]:
            same = _sorted_definition(left) == _sorted_definition(right)
            assert (left == right) is same and (right == left) is same
            if same:
                assert hash(left) == hash(right)
        head, body, comparisons = _sorted_definition(query)
        assert hash(query) == hash((head, tuple(body), tuple(comparisons)))
        assert query == query and not query != query


class TestTransformation:
    def test_apply_substitution(self):
        query = parse_query("q(X) :- r(X, Y).")
        result = query.apply(Substitution({Variable("Y"): Constant(3)}))
        assert result == parse_query("q(X) :- r(X, 3).")

    def test_with_name(self):
        assert parse_query("q(X) :- r(X).").with_name("p").name == "p"

    def test_add_subgoals(self):
        query = parse_query("q(X) :- r(X, Y).")
        extended = query.add_subgoals([Atom("s", ["Y"])], [Comparison("Y", ">", 1)])
        assert extended.size() == 2
        assert len(extended.comparisons) == 1

    def test_freshened_against_avoids_clash(self):
        q1 = parse_query("q(X) :- r(X, Y).")
        q2 = parse_query("p(X) :- s(X, Y).")
        fresh = q2.freshened_against(q1)
        assert not (set(fresh.variables()) & set(q1.variables()))

    def test_rename_variables(self):
        query = parse_query("q(X) :- r(X, Y).")
        renamed = query.rename_variables({Variable("X"): Variable("A")})
        assert renamed.head_variables() == (Variable("A"),)


class TestUnionQuery:
    def test_construction_and_iteration(self):
        union = UnionQuery([parse_query("q(X) :- r(X)."), parse_query("q(X) :- s(X).")])
        assert len(union) == 2
        assert union.name == "q"
        assert union.arity == 1

    def test_incompatible_heads_rejected(self):
        with pytest.raises(QueryConstructionError):
            UnionQuery([parse_query("q(X) :- r(X)."), parse_query("p(X) :- s(X).")])
        with pytest.raises(QueryConstructionError):
            UnionQuery([parse_query("q(X) :- r(X)."), parse_query("q(X, Y) :- s(X, Y).")])

    def test_empty_union_rejected(self):
        with pytest.raises(QueryConstructionError):
            UnionQuery([])

    def test_simplified_removes_duplicates(self):
        union = UnionQuery(
            [
                parse_query("q(X) :- r(X, Y)."),
                parse_query("q(A) :- r(A, B)."),
                parse_query("q(X) :- s(X)."),
            ]
        )
        assert len(union.simplified()) == 2

    def test_equality_up_to_order_and_renaming(self):
        u1 = UnionQuery([parse_query("q(X) :- r(X)."), parse_query("q(X) :- s(X).")])
        u2 = UnionQuery([parse_query("q(A) :- s(A)."), parse_query("q(B) :- r(B).")])
        assert u1 == u2

    def test_as_union_wraps_cq(self):
        query = parse_query("q(X) :- r(X).")
        assert len(as_union(query)) == 1
        assert as_union(as_union(query)) == as_union(query)

    def test_predicates_union(self):
        union = UnionQuery([parse_query("q(X) :- r(X)."), parse_query("q(X) :- s(X).")])
        assert union.predicates() == frozenset({("r", 1), ("s", 1)})
