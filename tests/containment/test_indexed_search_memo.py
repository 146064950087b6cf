"""Unit tests for the indexed homomorphism search and the containment memo."""

from __future__ import annotations

import pytest

from repro.datalog.parser import parse_atom, parse_query
from repro.datalog.substitution import Substitution
from repro.datalog.terms import Constant, Variable
from repro.containment.containment import is_contained
from repro.containment.homomorphism import (
    containment_mappings,
    count_containment_mappings,
    find_containment_mapping,
    find_homomorphism,
    homomorphisms,
)
from repro.containment.memo import (
    ContainmentMemo,
    containment_memo_stats,
    global_containment_memo,
    memo_disabled,
)

from tests.oracles import naive_containment_mappings, naive_homomorphisms


def _keys(mappings):
    return sorted(
        tuple(sorted((v.name, str(t)) for v, t in m.items())) for m in mappings
    )


class TestIndexedSearch:
    def test_constant_fail_fast(self):
        # No target atom carries 5 at position 1: the index rejects before search.
        source = [parse_atom("r(X, 5)")]
        target = [parse_atom("r(a, 6)"), parse_atom("r(b, 7)")]
        assert find_homomorphism(source, target) is None

    def test_repeated_variable_consistency(self):
        source = [parse_atom("r(X, X)")]
        assert find_homomorphism(source, [parse_atom("r(a, b)")]) is None
        mapping = find_homomorphism(source, [parse_atom("r(a, a)")])
        assert mapping is not None
        assert mapping[Variable("X")] == Constant("a")

    def test_duplicate_target_atoms_duplicate_mappings(self):
        # Two identical target atoms are two distinct images: multiplicity is
        # preserved exactly as the naive reference enumerates it.
        source = [parse_atom("r(X)")]
        target = [parse_atom("r(a)"), parse_atom("r(a)")]
        indexed = list(homomorphisms(source, target))
        naive = list(naive_homomorphisms(source, target))
        assert len(indexed) == len(naive) == 2

    def test_empty_source_yields_seed(self):
        seed = Substitution({Variable("X"): Constant(1)})
        results = list(homomorphisms([], [parse_atom("r(a)")], seed))
        assert results == [seed]

    def test_forward_checking_prunes_shared_variables(self):
        # Binding Y through the first subgoal leaves the second subgoal with
        # no candidates; the search must fail (and agree with the oracle).
        source = [parse_atom("r(X, Y)"), parse_atom("s(Y, Z)")]
        target = [parse_atom("r(a, b)"), parse_atom("s(c, d)")]
        assert find_homomorphism(source, target) is None
        assert next(iter(naive_homomorphisms(source, target)), None) is None

    def test_agreement_on_self_join_shape(self):
        general = parse_query("q(X) :- e(X, Y), e(Y, Z).")
        specific = parse_query("q(X) :- e(X, Y), e(Y, Z), e(X, Z).")
        assert _keys(containment_mappings(general, specific)) == _keys(
            naive_containment_mappings(general, specific)
        )
        assert count_containment_mappings(general, specific) >= 1


class TestMemo:
    def test_hit_on_isomorphic_pair(self):
        memo = global_containment_memo()
        memo.clear()
        before = memo.hits
        # Self-join pairs blow past the bypass threshold, so they are memoized.
        q1 = parse_query("q(X) :- e(X, Y), e(Y, Z), e(Z, W), e(W, V).")
        q2 = parse_query("q(X) :- e(X, Y), e(Y, X), e(X, Z), e(Z, X).")
        assert is_contained(q2, q1) == is_contained(q2, q1)
        renamed = parse_query("q(A) :- e(A, B), e(B, A), e(A, C), e(C, A).")
        assert is_contained(renamed, q1) == is_contained(q2, q1)
        assert memo.hits > before

    def test_guard_rejects_predicate_mismatch(self):
        memo = global_containment_memo()
        rejections = memo.guard_rejections
        assert not is_contained(
            parse_query("q(X) :- r(X, Y)."), parse_query("q(X) :- s(X, Y).")
        )
        assert memo.guard_rejections > rejections

    def test_guard_rejects_missing_constant(self):
        memo = global_containment_memo()
        rejections = memo.guard_rejections
        assert not is_contained(
            parse_query("q(X) :- r(X, 1)."), parse_query("q(X) :- r(X, 2).")
        )
        assert memo.guard_rejections > rejections

    def test_bypass_counts_trivial_searches(self):
        memo = global_containment_memo()
        bypasses = memo.bypasses
        assert is_contained(
            parse_query("q(X) :- r(X, Y), s(Y, Z)."),
            parse_query("q(X) :- r(X, Y)."),
        )
        assert memo.bypasses > bypasses

    def test_disabled_memo_bypasses_counters(self):
        memo = global_containment_memo()
        memo.clear()
        q1 = parse_query("q(X) :- r(X, Y).")
        q2 = parse_query("q(X) :- r(X, Y), r(X, Z).")
        with memo_disabled():
            snapshot = memo.stats()
            assert is_contained(q2, q1)
            assert memo.stats() == snapshot

    def test_stats_shape(self):
        stats = containment_memo_stats()
        for key in (
            "enabled", "hits", "misses", "guard_rejections", "bypasses",
            "hit_rate", "size", "maxsize",
        ):
            assert key in stats

    def test_private_memo_instance(self):
        memo = ContainmentMemo(maxsize=2)
        q1 = parse_query("q(X) :- e(X, Y), e(Y, Z), e(Z, W), e(W, V).")
        q2 = parse_query("q(X) :- e(X, Y), e(Y, X), e(X, Z), e(Z, X).")

        def compute(query, container):
            return find_containment_mapping(container, query) is not None

        first = memo.contained(q2, q1, compute)
        assert memo.contained(q2, q1, compute) == first
        assert memo.hits >= 1


class TestStatsSurfacing:
    def test_session_and_engine_expose_memo_stats(self):
        import repro

        engine = repro.connect(views="v1(X, Y) :- r(X, Y).", data="r(1, 2).")
        engine.query("q(X) :- r(X, Y).").answers()
        session_stats = engine.stats()["session"]
        assert "containment_memo" not in session_stats
        assert session_stats["global.containment_memo"] == containment_memo_stats()
