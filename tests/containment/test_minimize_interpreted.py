"""Tests for query minimization and interpreted-predicate containment."""

import pytest

from repro.containment import interpreted
from repro.errors import UnsupportedFeatureError
from repro.datalog.parser import parse_query
from repro.containment.containment import is_equivalent
from repro.containment.interpreted import (
    _ordered_partitions,
    interpreted_contained,
)
from repro.containment.minimize import core_size, is_minimal, minimize
from repro.datalog.terms import Variable


class TestMinimize:
    def test_redundant_subgoal_removed(self):
        query = parse_query("q(X) :- r(X, Y), r(X, Z).")
        minimal = minimize(query)
        assert minimal.size() == 1
        assert is_equivalent(minimal, query)

    def test_non_redundant_query_unchanged(self):
        query = parse_query("q(X) :- r(X, Y), s(Y, X).")
        assert minimize(query) == query

    def test_chain_with_shortcut(self):
        # The long path is redundant: it can be folded onto the short one.
        query = parse_query("q(X) :- e(X, Y), e(Y, Z), e(X, W).")
        minimal = minimize(query)
        assert minimal.size() == 2
        assert is_equivalent(minimal, query)

    def test_head_variables_are_kept_bound(self):
        query = parse_query("q(X, Y) :- r(X, Y), r(X, Z).")
        minimal = minimize(query)
        assert minimal.size() == 1
        assert set(minimal.head_variables()) <= set(minimal.body_variables())

    def test_comparison_variables_are_kept_bound(self):
        query = parse_query("q(X) :- r(X, Y), r(X, Z), Z > 5.")
        minimal = minimize(query)
        assert Variable("Z") in minimal.body_variables()
        assert is_equivalent(minimal, query)

    def test_classic_triangle_example(self):
        # A 4-clique-free pattern that folds onto a smaller core.
        query = parse_query("q() :- e(X, Y), e(Y, X), e(X, Z), e(Z, X).")
        minimal = minimize(query)
        assert minimal.size() == 2

    def test_is_minimal(self):
        assert is_minimal(parse_query("q(X) :- r(X, Y), s(Y)."))
        assert not is_minimal(parse_query("q(X) :- r(X, Y), r(X, Z)."))

    def test_core_size(self):
        assert core_size(parse_query("q(X) :- r(X, A), r(X, B), r(X, C).")) == 1

    def test_minimization_idempotent(self):
        query = parse_query("q(X) :- r(X, Y), r(X, Z), s(Z).")
        assert minimize(minimize(query)) == minimize(query)


class TestOrderedPartitions:
    def test_counts_follow_fubini_numbers(self):
        # Ordered set partitions of n elements: 1, 1, 3, 13, 75 ...
        for size, expected in [(0, 1), (1, 1), (2, 3), (3, 13)]:
            items = [Variable(f"X{i}") for i in range(size)]
            assert len(list(_ordered_partitions(items))) == expected

    def test_partitions_cover_all_elements(self):
        items = [Variable("A"), Variable("B")]
        for partition in _ordered_partitions(items):
            flattened = [term for block in partition for term in block]
            assert sorted(v.name for v in flattened) == ["A", "B"]

    def test_a_rejected_partition_is_not_extended(self):
        items = [Variable(name) for name in "ABCD"]
        first, second = Variable("C"), Variable("D")

        def in_order(partition):
            # Monotone: once C sits in a later block than D, it stays there.
            blocks = {term: index for index, block in enumerate(partition) for term in block}
            return not (first in blocks and second in blocks and blocks[first] > blocks[second])

        def checking(test, seen):
            return lambda partition: seen.append(partition) or test(partition)

        pruned, everything = [], []
        kept = list(_ordered_partitions(items, checking(in_order, pruned)))
        assert kept == [p for p in _ordered_partitions(items) if in_order(p)]
        list(_ordered_partitions(items, checking(lambda partition: True, everything)))
        assert len(pruned) < len(everything)


class TestInterpretedContainment:
    def test_simple_bound_tightening(self):
        tight = parse_query("q(X) :- r(X, Y), Y > 7.")
        loose = parse_query("q(X) :- r(X, Y), Y > 5.")
        assert interpreted_contained(tight, loose)
        assert not interpreted_contained(loose, tight)

    def test_requires_case_analysis(self):
        # Classic example: containment holds although no single containment
        # mapping works for every ordering of {X, Y}.
        query = parse_query("q() :- r(X, Y), r(Y, X).")
        container = parse_query("q() :- r(A, B), A <= B.")
        assert interpreted_contained(query, container)

    def test_case_analysis_negative(self):
        query = parse_query("q() :- r(X, Y), r(Y, X).")
        container = parse_query("q() :- r(A, B), A < B.")
        assert not interpreted_contained(query, container)

    def test_unsatisfiable_query_contained(self):
        empty = parse_query("q(X) :- r(X, Y), Y < 1, Y > 2.")
        assert interpreted_contained(empty, parse_query("q(X) :- s(X)."))

    def test_constants_interact_with_orderings(self):
        query = parse_query("q(X) :- r(X, Y), Y = 5.")
        container = parse_query("q(X) :- r(X, Y), Y > 4.")
        assert interpreted_contained(query, container)
        assert not interpreted_contained(container, query)

    def test_case_analysis_skips_orderings_the_query_contradicts(self, monkeypatch):
        # Eight order-relevant terms (X, Y and the chain U1 < ... < U6) have
        # 545835 total preorders, but only the few that keep the chain are
        # scenarios: the enumeration must not build the rest.
        built = []

        class Counted(interpreted.ComparisonSet):
            def __init__(self, comparisons=()):
                built.append(1)
                super().__init__(comparisons)

        monkeypatch.setattr(interpreted, "ComparisonSet", Counted)
        query = parse_query(
            "q() :- r(X, Y), r(Y, X), t(U1, U2, U3, U4, U5, U6), "
            "U1 < U2, U2 < U3, U3 < U4, U4 < U5, U5 < U6."
        )
        container = parse_query("q() :- r(A, B), A <= B.")
        assert interpreted_contained(query, container)
        assert not interpreted_contained(query, parse_query("q() :- r(A, B), A < B."))
        assert len(built) < 20_000

    def test_enumeration_limit_raises(self):
        many_vars = parse_query(
            "q(A) :- r(A, B, C, D, E, F, G, H, I), A < B, B < C, C < D, D < E, E < F, F < G, G < H, H < I."
        )
        # The limit guards the enumeration, and the enumeration only runs for
        # a pair no single mapping witnesses: the identity mapping decides
        # `many_vars ⊑ many_vars` whatever the number of ordered terms.
        assert interpreted_contained(many_vars, many_vars, max_ordered_terms=5)
        reversed_ends = parse_query(
            "q(A) :- r(A, B, C, D, E, F, G, H, I), I < A."
        )
        with pytest.raises(UnsupportedFeatureError):
            interpreted_contained(many_vars, reversed_ends, max_ordered_terms=5)

    def test_no_relevant_terms_falls_back_to_mapping(self):
        # Container has comparisons but they are tautological over the query.
        query = parse_query("q(X) :- r(X, Y).")
        container = parse_query("q(X) :- r(X, Y), X <= X.")
        assert interpreted_contained(query, container)
