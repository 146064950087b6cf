"""Property-based tests for the serving layer.

The load-bearing cache-soundness invariants:

* **fingerprint-equal ⇒ isomorphic**: any two generated queries whose
  fingerprints coincide admit a bijective variable renaming carrying one onto
  the other (checked via the explicit witness);
* **isomorphism-invariance**: renaming variables and shuffling subgoals never
  changes the fingerprint;
* **cache correctness**: serving an isomorphic variant from the cache yields
  rewritings whose expansions are equivalent to those of an uncached rewrite
  of the variant, and identical answer sets over any database.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import connect
from repro.containment.containment import is_equivalent
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.substitution import Substitution
from repro.datalog.terms import Variable
from repro.engine.evaluate import evaluate
from repro.rewriting.rewriter import rewrite
from repro.service.fingerprint import fingerprint, isomorphism_witness

from tests.property.strategies import conjunctive_queries, databases, view_sets

SLOW = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)


def scrambled(query: ConjunctiveQuery, seed: int) -> ConjunctiveQuery:
    """An isomorphic variant: variables renamed, subgoals shuffled."""
    rng = random.Random(seed)
    names = [f"P{i}" for i in range(len(query.variables()))]
    rng.shuffle(names)
    renaming = Substitution(
        {var: Variable(names[i]) for i, var in enumerate(query.variables())}
    )
    body = list(renaming.apply_atoms(query.body))
    rng.shuffle(body)
    return ConjunctiveQuery(
        renaming.apply_atom(query.head),
        body,
        renaming.apply_comparisons(query.comparisons),
    )


class TestFingerprintProperties:
    @SLOW
    @given(query=conjunctive_queries(), seed=st.integers(min_value=0, max_value=10_000))
    def test_isomorphic_variants_share_fingerprint(self, query, seed):
        variant = scrambled(query, seed)
        fp, fp_variant = fingerprint(query), fingerprint(variant)
        if fp.exact and fp_variant.exact:
            assert fp.text == fp_variant.text

    @SLOW
    @given(left=conjunctive_queries(), right=conjunctive_queries())
    def test_fingerprint_equal_implies_isomorphic(self, left, right):
        if fingerprint(left).text != fingerprint(right).text:
            return
        witness = isomorphism_witness(left, right)
        assert witness is not None
        assert left.apply(witness, require_safe=False) == right

    @SLOW
    @given(query=conjunctive_queries(), seed=st.integers(min_value=0, max_value=10_000))
    def test_witness_maps_variant_back(self, query, seed):
        variant = scrambled(query, seed)
        witness = isomorphism_witness(query, variant)
        assert witness is not None
        assert query.apply(witness, require_safe=False) == variant


class TestCachedRewritingProperties:
    @SLOW
    @given(
        query=conjunctive_queries(),
        views=view_sets(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_cached_variant_rewritings_are_expansion_equivalent(
        self, query, views, seed
    ):
        variant = scrambled(query, seed)
        session = connect(views=views)
        session.rewrite_cached(query)           # prime the cache
        served = session.rewrite_cached(variant)
        assert session.last_cache_hit is True
        uncached = rewrite(variant, views, algorithm="minicon")
        assert len(served.rewritings) == len(uncached.rewritings)
        served_expansions = [r.expansion for r in served.rewritings]
        uncached_expansions = [r.expansion for r in uncached.rewritings]
        # Same multiset of plans: each served expansion is equivalent to some
        # uncached one (and the counts match, so this is a bijection check).
        for expansion in served_expansions:
            assert any(
                is_equivalent(expansion, other) for other in uncached_expansions
            )

    @SLOW
    @given(
        query=conjunctive_queries(),
        views=view_sets(),
        database=databases(),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_cached_answers_equal_direct_evaluation(
        self, query, views, database, seed
    ):
        variant = scrambled(query, seed)
        engine = connect(views=views, data=database)
        engine.query(query).answers()           # prime both caches
        assert engine.query(variant).answers().rows == evaluate(variant, database)
