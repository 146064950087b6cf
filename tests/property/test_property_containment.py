"""Property tests for the indexed containment search and the verdict memo.

The indexed homomorphism search must agree with the retained naive reference
*mapping for mapping* (same multiset of substitutions, only the enumeration
order may differ), and the memoized ``is_contained`` must be invariant under
renaming either query — both with the memo engaged (fingerprint keys are
renaming-invariant) and against the raw search with the memo disabled.
"""

from __future__ import annotations

from hypothesis import assume, given, settings

from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.substitution import Substitution
from repro.datalog.terms import Variable
from repro.errors import UnsupportedFeatureError
from repro.containment.constraints import _constraints_of
from repro.containment.containment import is_contained
from repro.containment.homomorphism import (
    containment_mappings,
    count_containment_mappings,
    naive_containment_mappings,
    using_search_implementation,
)
from repro.containment.interpreted import _contained_by_cases, _has_witness
from repro.containment.memo import global_containment_memo, memo_disabled

from tests.property.strategies import conjunctive_queries, queries_with_comparisons


def _mapping_key(substitution: Substitution):
    return tuple(sorted((var.name, str(term)) for var, term in substitution.items()))


def _all_keys(mappings):
    return sorted(_mapping_key(m) for m in mappings)


def _renamed(query: ConjunctiveQuery) -> ConjunctiveQuery:
    renaming = Substitution(
        {var: Variable(f"R_{i}_{var.name}") for i, var in enumerate(query.variables())}
    )
    return query.apply(renaming, require_safe=False)


class TestIndexedSearchMatchesNaive:
    @settings(max_examples=120, deadline=None)
    @given(conjunctive_queries(), conjunctive_queries())
    def test_mapping_for_mapping_agreement(self, source, target):
        indexed = _all_keys(containment_mappings(source, target))
        naive = _all_keys(naive_containment_mappings(source, target))
        assert indexed == naive

    @settings(max_examples=120, deadline=None)
    @given(conjunctive_queries(), conjunctive_queries())
    def test_count_agreement(self, source, target):
        count = count_containment_mappings(source, target)
        assert count == sum(1 for _ in naive_containment_mappings(source, target))
        with using_search_implementation("naive"):
            assert count == count_containment_mappings(source, target)

    @settings(max_examples=80, deadline=None)
    @given(conjunctive_queries())
    def test_self_containment_has_identity_mapping(self, query):
        keys = _all_keys(containment_mappings(query, query))
        identity = _mapping_key(
            Substitution({v: v for v in query.variables()})
        )
        assert identity in keys


class TestMemoRenamingInvariance:
    @settings(max_examples=80, deadline=None)
    @given(conjunctive_queries(name="q"), conjunctive_queries(name="q"))
    def test_verdict_invariant_under_renaming(self, left, right):
        memo = global_containment_memo()
        memo.clear()
        original = is_contained(left, right)
        # Renaming either side (or both) must not change the memoized verdict.
        assert is_contained(_renamed(left), right) == original
        assert is_contained(left, _renamed(right)) == original
        assert is_contained(_renamed(left), _renamed(right)) == original

    @settings(max_examples=80, deadline=None)
    @given(conjunctive_queries(name="q"), conjunctive_queries(name="q"))
    def test_memoized_verdict_matches_raw_search(self, left, right):
        memo = global_containment_memo()
        memo.clear()
        memoized = is_contained(left, right)
        with memo_disabled():
            assert is_contained(left, right) == memoized
        # And the renamed pair agrees with its own raw search too.
        renamed_left, renamed_right = _renamed(left), _renamed(right)
        memoized_renamed = is_contained(renamed_left, renamed_right)
        with memo_disabled():
            assert is_contained(renamed_left, renamed_right) == memoized_renamed


class TestWitnessFirst:
    """The single-mapping witness test in front never changes a verdict.

    The preorder enumeration alone is the complete test — what every pair
    with comparisons used to pay for — so it is the oracle here: a witness
    must imply it, and the tiered ``is_contained`` (memo on and off) must
    return exactly what it returns.
    """

    @settings(max_examples=200, deadline=None)
    @given(queries_with_comparisons(name="q"), queries_with_comparisons(name="q"))
    def test_witness_implies_complete_test_and_tiers_agree(self, left, right):
        if not _constraints_of(left).is_satisfiable():
            complete = True
        else:
            try:
                complete = _contained_by_cases(left, right, max_ordered_terms=5)
            except UnsupportedFeatureError:
                assume(False)  # too many orderings to use as an oracle
            if _has_witness(left, right):
                assert complete
        global_containment_memo().clear()
        assert is_contained(left, right) == complete
        with memo_disabled():
            assert is_contained(left, right) == complete
