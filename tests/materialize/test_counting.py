"""Tests for the counting delta rules: exactness against recomputation."""

import random
from collections import Counter

import pytest

from repro.datalog.atoms import Atom
from repro.datalog.parser import parse_query
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import FunctionTerm, Variable
from repro.datalog.views import View
from repro.engine.database import Database
from repro.engine.evaluate import evaluate
from repro.errors import UnsupportedFeatureError
from repro.materialize.counting import (
    apply_count_changes,
    delta_counts,
    derivation_counts,
)
from repro.materialize.delta import Delta


def maintained_extent(definition, db, deltas):
    """Apply deltas via counting maintenance; return the final extent."""
    counts = derivation_counts(definition, db)
    for delta in deltas:
        effective = db.apply_delta(delta)
        apply_count_changes(counts, delta_counts(definition, db, effective))
    return frozenset(counts)


class TestDerivationCounts:
    def test_counts_are_multiplicities_not_distinct_rows(self):
        # v(A) :- r(A, B): two B-witnesses for A=1 -> count 2, one row.
        db = Database.from_dict({"r": [(1, 2), (1, 3), (4, 5)]})
        definition = parse_query("v(A) :- r(A, B).")
        counts = derivation_counts(definition, db)
        assert counts == Counter({(1,): 2, (4,): 1})

    def test_deletion_keeps_row_while_derivations_remain(self):
        db = Database.from_dict({"r": [(1, 2), (1, 3)]})
        definition = parse_query("v(A) :- r(A, B).")
        counts = derivation_counts(definition, db)
        effective = db.apply_delta(Delta.deletion("r", [(1, 2)]))
        inserted, removed = apply_count_changes(
            counts, delta_counts(definition, db, effective)
        )
        assert inserted == frozenset() and removed == frozenset()
        assert counts == Counter({(1,): 1})
        effective = db.apply_delta(Delta.deletion("r", [(1, 3)]))
        inserted, removed = apply_count_changes(
            counts, delta_counts(definition, db, effective)
        )
        assert removed == frozenset({(1,)})
        assert counts == Counter()


class TestDeltaRulesMatchRecomputation:
    def check(self, definition_text, base, deltas):
        definition = parse_query(definition_text)
        db = Database.from_dict(base)
        extent = maintained_extent(definition, db, deltas)
        assert extent == evaluate(definition, db)

    def test_join_insertions(self):
        self.check(
            "v(A, C) :- r(A, B), s(B, C).",
            {"r": [(1, 2)], "s": [(2, 3)]},
            [Delta(inserted={"r": [(5, 2)], "s": [(2, 9)]})],
        )

    def test_join_deletions(self):
        self.check(
            "v(A, C) :- r(A, B), s(B, C).",
            {"r": [(1, 2), (5, 2)], "s": [(2, 3), (2, 9)]},
            [Delta(removed={"r": [(5, 2)], "s": [(2, 3)]})],
        )

    def test_self_join(self):
        # Both occurrences of r get their own delta rule; a single inserted
        # tuple can participate in either (or both) positions.
        self.check(
            "v(A, C) :- r(A, B), r(B, C).",
            {"r": [(1, 1), (1, 2)]},
            [
                Delta(inserted={"r": [(2, 1)]}),
                Delta(removed={"r": [(1, 1)]}),
                Delta(inserted={"r": [(2, 2)]}, removed={"r": [(1, 2)]}),
            ],
        )

    def test_constants_in_body(self):
        self.check(
            'v(A) :- r(A, "x").',
            {"r": [(1, "x"), (2, "y")]},
            [Delta(inserted={"r": [(3, "x"), (4, "y")]}, removed={"r": [(1, "x")]})],
        )

    def test_repeated_variable_in_subgoal(self):
        self.check(
            "v(A) :- r(A, A).",
            {"r": [(1, 1), (1, 2)]},
            [Delta(inserted={"r": [(2, 2), (3, 4)]}, removed={"r": [(1, 1)]})],
        )

    def test_comparisons(self):
        self.check(
            "v(A, B) :- r(A, B), A < B.",
            {"r": [(1, 5), (5, 1)]},
            [Delta(inserted={"r": [(2, 9), (9, 2)]}, removed={"r": [(1, 5)]})],
        )

    def test_mixed_batch_on_same_relation(self):
        self.check(
            "v(A, C) :- r(A, B), s(B, C).",
            {"r": [(1, 2), (3, 2)], "s": [(2, 4)]},
            [Delta(inserted={"r": [(7, 2)], "s": [(2, 8)]}, removed={"r": [(1, 2)], "s": [(2, 4)]})],
        )

    def test_randomized_churn_matches_recompute(self):
        rng = random.Random(42)
        definition = parse_query("v(A, C) :- r(A, B), s(B, C), t(C).")
        db = Database.from_dict(
            {
                "r": [(rng.randrange(8), rng.randrange(8)) for _ in range(60)],
                "s": [(rng.randrange(8), rng.randrange(8)) for _ in range(60)],
                "t": [(rng.randrange(8),) for _ in range(12)],
            }
        )
        counts = derivation_counts(definition, db)
        for _step in range(40):
            inserted, removed = {}, {}
            for name, arity in (("r", 2), ("s", 2), ("t", 1)):
                rows = sorted(db.tuples(name))
                if rows and rng.random() < 0.8:
                    removed.setdefault(name, set()).add(rng.choice(rows))
                inserted.setdefault(name, set()).add(
                    tuple(rng.randrange(8) for _ in range(arity))
                )
            effective = db.apply_delta(Delta(inserted=inserted, removed=removed))
            apply_count_changes(counts, delta_counts(definition, db, effective))
            assert frozenset(counts) == evaluate(definition, db)
            assert all(c > 0 for c in counts.values())


class TestUnsupportedAndInconsistent:
    def test_function_term_definitions_never_become_views(self):
        # The counting rules see variables and constants only: a definition
        # holding a function term is refused where a view is built.
        head = Atom("v", [Variable("X")])
        body = [Atom("r", [Variable("X"), FunctionTerm("f", [Variable("X")])])]
        definition = ConjunctiveQuery(head, body)
        with pytest.raises(UnsupportedFeatureError, match="view v holds the function term"):
            View("v", definition)

    def test_negative_count_raises(self):
        from repro.materialize.counting import CountInconsistencyError

        counts = Counter({(1,): 1})
        with pytest.raises(CountInconsistencyError):
            apply_count_changes(counts, Counter({(1,): -2}))

    def test_irrelevant_delta_produces_no_changes(self):
        definition = parse_query("v(A, C) :- r(A, B), s(B, C).")
        db = Database.from_dict({"r": [(1, 2)], "s": [(2, 3)], "zzz": [(0,)]})
        effective = db.apply_delta(Delta.insertion("zzz", [(7,)]))
        assert delta_counts(definition, db, effective) == Counter()
