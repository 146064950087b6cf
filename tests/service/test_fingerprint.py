"""Tests for canonical query fingerprints."""

import itertools
import random

import pytest

from repro.datalog.parser import parse_query
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.substitution import Substitution
from repro.datalog.terms import Constant, Variable
from repro.service.fingerprint import (
    QueryFingerprint,
    fingerprint,
    fingerprint_text,
    isomorphism_witness,
)


def renamed_and_shuffled(query, suffix, seed=0):
    """An isomorphic variant: every variable renamed, body order shuffled."""
    renaming = Substitution(
        {v: Variable(f"R{suffix}_{i}") for i, v in enumerate(query.variables())}
    )
    body = list(renaming.apply_atoms(query.body))
    random.Random(seed).shuffle(body)
    return ConjunctiveQuery(
        renaming.apply_atom(query.head),
        body,
        renaming.apply_comparisons(query.comparisons),
    )


class TestFingerprintEquality:
    def test_identical_queries_share_fingerprint(self):
        q = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
        assert fingerprint_text(q) == fingerprint_text(q)

    def test_renaming_and_reordering_is_invisible(self):
        q1 = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
        q2 = parse_query("q(A, B) :- s(C, B), r(A, C).")
        assert fingerprint_text(q1) == fingerprint_text(q2)

    def test_many_isomorphic_variants_collapse(self):
        base = parse_query("q(X, W) :- r(X, Y), r(Y, Z), s(Z, W), s(W, X).")
        texts = {
            fingerprint_text(renamed_and_shuffled(base, i, seed=i)) for i in range(12)
        }
        assert texts == {fingerprint_text(base)}

    def test_symmetric_query_tie_break(self):
        # Both body atoms use the same relation; the two existential variables
        # are colour-equivalent and only the tie-break search separates them.
        q1 = parse_query("q(X) :- e(X, Y), e(X, Z).")
        q2 = parse_query("q(A) :- e(A, W), e(A, V).")
        fp1, fp2 = fingerprint(q1), fingerprint(q2)
        assert fp1.exact and fp2.exact
        assert fp1.text == fp2.text

    def test_distinct_structures_differ(self):
        chain = parse_query("q(X, Z) :- r(X, Y), r(Y, Z).")
        fork = parse_query("q(X, Z) :- r(X, Y), r(X, Z).")
        assert fingerprint_text(chain) != fingerprint_text(fork)

    def test_head_arity_and_order_matter(self):
        q1 = parse_query("q(X, Y) :- r(X, Y).")
        q2 = parse_query("q(Y, X) :- r(X, Y).")
        q3 = parse_query("q(X) :- r(X, Y).")
        assert fingerprint_text(q1) != fingerprint_text(q2)
        assert fingerprint_text(q1) != fingerprint_text(q3)

    def test_constants_distinguish(self):
        q1 = parse_query("q(X) :- r(X, 1).")
        q2 = parse_query("q(X) :- r(X, 2).")
        q3 = parse_query("q(X) :- r(X, '1').")
        assert len({fingerprint_text(q) for q in (q1, q2, q3)}) == 3

    def test_comparisons_participate(self):
        q1 = parse_query("q(X) :- r(X, Y), X < Y.")
        q2 = parse_query("q(X) :- r(X, Y), Y < X.")
        q3 = parse_query("q(X) :- r(X, Y).")
        assert fingerprint_text(q1) != fingerprint_text(q2)
        assert fingerprint_text(q1) != fingerprint_text(q3)
        flipped = parse_query("q(A) :- r(A, B), B > A.")  # same as q1 canonically
        assert fingerprint_text(q1) == fingerprint_text(flipped)

    def test_duplicate_subgoals_preserved(self):
        q1 = parse_query("q(X) :- r(X, Y).")
        q2 = parse_query("q(X) :- r(X, Y), r(X, Y).")
        # The duplicate is syntactically preserved (multiset semantics).
        assert fingerprint_text(q1) != fingerprint_text(q2)


class TestRenaming:
    def test_renaming_is_bijective_onto_canonical_names(self):
        q = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
        fp = fingerprint(q)
        targets = {t.name for t in fp.renaming.values()}
        assert len(fp.renaming) == len(q.variables())
        assert targets == {"V1", "V2", "V3"}

    def test_inverse_roundtrip(self):
        q = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
        fp = fingerprint(q)
        canonical = q.apply(fp.renaming, require_safe=False)
        back = canonical.apply(fp.inverse_renaming(), require_safe=False)
        assert back == q

    def test_isomorphic_queries_share_canonical_representative(self):
        q1 = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
        q2 = parse_query("q(A, B) :- s(C, B), r(A, C).")
        c1 = q1.apply(fingerprint(q1).renaming, require_safe=False)
        c2 = q2.apply(fingerprint(q2).renaming, require_safe=False)
        assert c1 == c2


class TestIsomorphismWitness:
    def test_witness_found_and_correct(self):
        q1 = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
        q2 = parse_query("q(A, B) :- s(C, B), r(A, C).")
        witness = isomorphism_witness(q1, q2)
        assert witness is not None
        assert q1.apply(witness, require_safe=False) == q2

    def test_no_witness_for_different_queries(self):
        q1 = parse_query("q(X, Z) :- r(X, Y), r(Y, Z).")
        q2 = parse_query("q(X, Z) :- r(X, Y), r(X, Z).")
        assert isomorphism_witness(q1, q2) is None


class TestTieBreakBudget:
    def test_fallback_is_marked_inexact(self):
        # Eight interchangeable existential variables exceed a tiny budget.
        q = parse_query(
            "q(X) :- " + ", ".join(f"e(X, Y{i})" for i in range(8)) + "."
        )
        fp = fingerprint(q, tie_break_limit=10)
        assert not fp.exact
        # The fallback is still a faithful serialization of *this* query.
        assert fp.text == fingerprint(q, tie_break_limit=10).text

    def test_exact_and_fallback_agree_on_self(self):
        q = parse_query("q(X) :- e(X, Y1), e(X, Y2), e(X, Y3).")
        assert fingerprint(q).exact


class TestFingerprintObject:
    def test_equality_is_text_equality(self):
        q1 = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
        q2 = parse_query("q(A, B) :- s(C, B), r(A, C).")
        assert fingerprint(q1) == fingerprint(q2)
        assert hash(fingerprint(q1)) == hash(fingerprint(q2))

    def test_boolean_query(self):
        q = parse_query("q() :- r(X, Y).")
        assert isinstance(fingerprint(q), QueryFingerprint)

    def test_ground_query(self):
        q = parse_query("q(1) :- r(1, 2).")
        fp = fingerprint(q)
        assert fp.exact and len(fp.renaming) == 0


class TestShapeAndParams:
    """The constants-abstracted half of a fingerprint (the template-cache key)."""

    def test_shape_abstracts_constants_and_params_keeps_them(self):
        seven = fingerprint(parse_query("q(X) :- r(X, Y), Y != 7."))
        eight = fingerprint(parse_query("q(A) :- r(A, B), B != 8."))
        assert seven.shape == eight.shape and seven.text != eight.text
        assert [c.value for c in seven.params] == [7]
        assert [c.value for c in eight.params] == [8]
        assert "7" not in seven.shape and "7" in seven.text

    def test_constant_free_query_has_no_params_and_text_is_shape(self):
        fp = fingerprint(parse_query("q(X, Z) :- r(X, Y), s(Y, Z)."))
        assert fp.params == () and fp.text == fp.shape

    def test_params_are_ordered_by_class_then_value(self):
        fp = fingerprint(parse_query("q(X) :- r(X, 9, b, 2.5, a), X != 4."))
        assert [c.value for c in fp.params] == [2.5, 4, 9, "a", "b"]

    def test_shape_records_class_and_mutual_order(self):
        def shape(text):
            return fingerprint(parse_query(text)).shape

        window = "q(X) :- r(X), X > %s, X < %s."
        assert shape(window % (3, 5)) == shape(window % (-1, 2.5))
        assert shape(window % (3, 5)) != shape(window % (5, 3))
        assert shape("q(X) :- r(X, 3).") != shape("q(X) :- r(X, a).")

    def test_one_constant_twice_is_one_param(self):
        once = fingerprint(parse_query("q(X) :- r(X, Y), r(X, Z), Y != 3, Z != 3."))
        twice = fingerprint(parse_query("q(X) :- r(X, Y), r(X, Z), Y != 3, Z != 5."))
        assert len(once.params) == 1 and len(twice.params) == 2
        assert once.shape != twice.shape

    def test_equal_values_of_two_types_are_two_params(self):
        # Constant(1) == Constant(1.0), yet they print and answer differently.
        q = parse_query("q(X) :- r(X, 1), s(X, 1).")
        mixed = ConjunctiveQuery(
            q.head, [q.body[0], q.body[1].with_args([Variable("X"), Constant(1.0)])], []
        )
        assert len(fingerprint(q).params) == 1
        assert {type(c.value) for c in fingerprint(mixed).params} == {int, float}
        assert fingerprint(q).text != fingerprint(mixed).text

    def test_text_still_identifies_the_query_constants_included(self):
        q = parse_query("q(X, 3) :- r(X, Y), s(Y, a), Y < 10.")
        variant = renamed_and_shuffled(q, "s", seed=3)
        assert fingerprint(q).text == fingerprint(variant).text
        assert fingerprint(q).params == fingerprint(variant).params
