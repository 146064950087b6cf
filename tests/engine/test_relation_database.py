"""Tests for relations and databases."""

import pytest

from repro.errors import SchemaError
from repro.datalog.atoms import Atom
from repro.engine.database import Database, term_to_value, value_to_term
from repro.engine.relation import Relation
from repro.datalog.terms import Constant, Variable


class TestRelation:
    def test_add_and_len(self):
        relation = Relation("r", 2)
        assert relation.add((1, 2))
        assert not relation.add((1, 2))  # duplicate
        assert len(relation) == 1

    def test_arity_enforced(self):
        relation = Relation("r", 2)
        with pytest.raises(SchemaError):
            relation.add((1, 2, 3))

    def test_negative_arity_rejected(self):
        with pytest.raises(SchemaError):
            Relation("r", -1)

    def test_contains_and_iter(self):
        relation = Relation("r", 1, [(1,), (2,)])
        assert (1,) in relation
        assert sorted(relation) == [(1,), (2,)]

    def test_column_values_and_active_domain(self):
        relation = Relation("r", 2, [(1, 2), (1, 3)])
        assert relation.column_values(0) == {1}
        assert relation.active_domain() == {1, 2, 3}

    def test_index_on(self):
        relation = Relation("r", 2, [(1, 2), (1, 3), (2, 2)])
        index = relation.index_on([0])
        assert sorted(index[(1,)]) == [(1, 2), (1, 3)]

    def test_copy_is_independent(self):
        relation = Relation("r", 1, [(1,)])
        copy = relation.copy()
        copy.add((2,))
        assert len(relation) == 1

    def test_repeated_delete_reinsert_keeps_buckets_exact(self):
        # Regression for the O(bucket) list.remove discard: dict-backed
        # buckets must stay exactly one entry per live row through heavy
        # delete/reinsert churn on a hot key (structural check, no timing).
        relation = Relation("r", 2, [(k % 5, k) for k in range(50)])
        relation.index_on([0])
        hot = (3, 3)
        for _ in range(100):
            assert relation.discard(hot)
            assert relation.add(hot)
        bucket = relation.index_on([0])[(3,)]
        assert sorted(bucket) == [(3, k) for k in range(3, 50, 5)]
        assert relation.storage_stats() == {"rows": 50, "indexes": 1}
        # The maintained index equals a from-scratch rebuild, bucket for bucket.
        fresh = Relation("r", 2, relation.tuples())
        assert {key: set(b) for key, b in relation.index_on([0]).items()} == {
            key: set(b) for key, b in fresh.index_on([0]).items()
        }


class TestRowStore:
    """A relation is one insertion-ordered row dict plus its hash indexes."""

    def test_iteration_follows_insertion_order(self):
        relation = Relation("r", 1, [(3,), (1,), (2,)])
        assert list(relation) == [(3,), (1,), (2,)]
        relation.discard((3,))
        relation.add((3,))  # a re-inserted row goes to the end
        assert list(relation) == [(1,), (2,), (3,)]

    def test_discarding_an_absent_row_changes_nothing(self):
        relation = Relation("r", 2, [(1, 2)])
        relation.index_on([0])
        assert not relation.discard((9, 9))
        assert not relation.discard((1,))  # wrong arity is simply absent
        assert list(relation) == [(1, 2)]
        assert relation.index_on([0]) == {(1,): {(1, 2): None}}

    def test_emptied_buckets_leave_the_index(self):
        relation = Relation("r", 2, [(1, 2), (1, 3), (2, 2)])
        index = relation.index_on([0])
        relation.discard((1, 2))
        assert list(index[(1,)]) == [(1, 3)]
        relation.discard((1, 3))
        assert (1,) not in index
        assert list(index) == [(2,)]

    def test_index_built_after_churn_holds_only_live_rows(self):
        relation = Relation("r", 2, [(k % 3, k) for k in range(12)])
        for k in range(0, 12, 2):
            relation.discard((k % 3, k))
        index = relation.index_on([0])
        assert {key: sorted(bucket) for key, bucket in index.items()} == {
            (0,): [(0, 3), (0, 9)],
            (1,): [(1, 1), (1, 7)],
            (2,): [(2, 5), (2, 11)],
        }

    def test_every_index_is_maintained_on_add(self):
        relation = Relation("r", 2, [(1, 2)])
        by_first = relation.index_on([0])
        by_both = relation.index_on([1, 0])
        relation.add((1, 5))
        assert list(by_first[(1,)]) == [(1, 2), (1, 5)]
        assert by_both[(5, 1)] == {(1, 5): None}

    def test_index_position_out_of_range(self):
        with pytest.raises(SchemaError):
            Relation("r", 2).index_on([2])

    def test_column_values_position_out_of_range(self):
        with pytest.raises(SchemaError):
            Relation("r", 2, [(1, 2)]).column_values(-1)

    def test_readers_see_only_live_rows(self):
        relation = Relation("r", 2, [(1, 2), (3, 4), (5, 6)])
        by_second = relation.index_on([1])  # built before the discard
        relation.discard((3, 4))
        assert by_second.keys() == {(2,), (6,)}  # the emptied bucket is gone
        assert relation.column_values(0) == {1, 5}
        assert relation.active_domain() == {1, 2, 5, 6}
        assert relation.tuples() == frozenset({(1, 2), (5, 6)})

    def test_storage_stats_count_rows_and_indexes(self):
        relation = Relation("r", 2, [(1, 2), (3, 4)])
        assert relation.storage_stats() == {"rows": 2, "indexes": 0}
        relation.index_on([0])
        relation.index_on([0])  # built once per position tuple
        relation.index_on([1])
        relation.discard((1, 2))
        assert relation.storage_stats() == {"rows": 1, "indexes": 2}

    def test_equality_ignores_insertion_order(self):
        assert Relation("r", 1, [(1,), (2,)]) == Relation("r", 1, [(2,), (1,)])
        assert Relation("r", 1, [(1,)]) != Relation("s", 1, [(1,)])

    def test_nullary_relation_holds_the_empty_row(self):
        relation = Relation("r", 0)
        assert relation.add(())
        assert not relation.add(())
        assert list(relation) == [()]
        assert relation.discard(())
        assert len(relation) == 0

    def test_add_all_counts_new_rows(self):
        relation = Relation("r", 1, [(1,)])
        assert relation.add_all([(1,), (2,), (2,), (3,)]) == 2
        assert len(relation) == 3

    def test_column_accessors_are_gone(self):
        for name in ("column", "columns", "slots", "skolem_count", "has_skolems"):
            assert not hasattr(Relation, name), name


class TestDatabase:
    def test_from_dict_and_tuples(self):
        database = Database.from_dict({"r": [(1, 2)], "s": [("a",)]})
        assert database.tuples("r") == frozenset({(1, 2)})
        assert database.tuples("missing") == frozenset()

    def test_from_atoms(self):
        database = Database.from_atoms([Atom("r", [1, "a"]), Atom("r", [2, "b"])])
        assert len(database.relation("r")) == 2

    def test_add_atom_requires_ground(self):
        database = Database()
        with pytest.raises(SchemaError):
            database.add_atom(Atom("r", [Variable("X")]))

    def test_arity_conflict_detected(self):
        database = Database.from_dict({"r": [(1, 2)]})
        with pytest.raises(SchemaError):
            database.add_fact("r", (1, 2, 3))
        with pytest.raises(SchemaError):
            database.ensure_relation("r", 3)

    def test_size_and_active_domain(self):
        database = Database.from_dict({"r": [(1, 2)], "s": [(2, 3)]})
        assert database.size() == 2
        assert database.active_domain() == {1, 2, 3}

    def test_equality_ignores_empty_relations(self):
        left = Database.from_dict({"r": [(1,)]})
        right = Database.from_dict({"r": [(1,)]})
        right.ensure_relation("empty", 2)
        assert left == right

    def test_merge(self):
        left = Database.from_dict({"r": [(1,)]})
        right = Database.from_dict({"r": [(2,)], "s": [(3,)]})
        merged = left.merge(right)
        assert merged.tuples("r") == frozenset({(1,), (2,)})
        assert merged.tuples("s") == frozenset({(3,)})
        assert left.tuples("r") == frozenset({(1,)})  # inputs untouched

    def test_facts_round_trip(self):
        database = Database.from_dict({"r": [(1, "a")], "s": [(True,)]})
        rebuilt = Database.from_atoms(database.facts())
        assert rebuilt == database

    def test_restrict(self):
        database = Database.from_dict({"r": [(1,)], "s": [(2,)]})
        assert database.restrict(["r"]).relation_names() == ("r",)

    def test_copy_is_independent(self):
        database = Database.from_dict({"r": [(1,)]})
        copy = database.copy()
        copy.add_fact("r", (2,))
        assert database.size() == 1

    def test_term_value_conversions(self):
        assert term_to_value(Constant(3)) == 3
        with pytest.raises(SchemaError):
            term_to_value(Variable("X"))
        assert value_to_term(3) == Constant(3)
