"""Differential properties of the row store and the two executors.

1. **Executor agreement** — the backtracking interpreter and the compiled
   engine return *identical* answer sets (tuple for tuple, Skolem values
   included) on random queries, views and databases.
2. **Index/storage integrity** — after arbitrary add / discard / apply_delta
   churn, every incrementally-maintained hash index of a relation holds
   exactly what a from-scratch rebuild over the surviving tuples would hold,
   and every bucket row is a live member of the relation.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.engine.database import Database
from repro.engine.evaluate import evaluate, materialize_views
from repro.engine.relation import Relation
from repro.rewriting.inverse_rules import SkolemValue
from repro.exec import CompiledExecutor
from repro.materialize.delta import Delta

from tests.property.strategies import (
    DOMAIN,
    PREDICATE_POOL,
    conjunctive_queries,
    databases,
    view_sets,
)

COMPILED = CompiledExecutor()
INTERPRETED = "interpreted"

DIFFERENTIAL = settings(
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

#: A couple of Skolem witnesses that join by identity across relations.
SKOLEMS = [SkolemValue("f", (0,)), SkolemValue("g", (1, 2))]


@st.composite
def skolem_databases(draw):
    """A small database whose extents mix plain values and Skolem values."""
    database = draw(databases())
    values = st.sampled_from(DOMAIN + SKOLEMS)
    for predicate in PREDICATE_POOL:
        for _ in range(draw(st.integers(min_value=0, max_value=4))):
            database.add_fact(predicate, (draw(values), draw(values)))
    return database


class TestExecutorAgreement:
    @DIFFERENTIAL
    @given(database=databases(), query=conjunctive_queries())
    def test_executors_agree_on_random_queries(self, database, query):
        expected = evaluate(query, database, executor=INTERPRETED)
        assert evaluate(query, database, executor=COMPILED) == expected

    @DIFFERENTIAL
    @given(database=skolem_databases(), query=conjunctive_queries())
    def test_agreement_holds_on_skolem_bearing_extents(self, database, query):
        expected = evaluate(query, database, executor=INTERPRETED)
        assert evaluate(query, database, executor=COMPILED) == expected

    @DIFFERENTIAL
    @given(database=databases(), views=view_sets())
    def test_materialized_view_extents_agree(self, database, views):
        expected = materialize_views(views, database, executor=INTERPRETED)
        assert materialize_views(views, database, executor=COMPILED) == expected


# -- storage / index integrity under churn -----------------------------------

#: One churn step: mutate directly or through a database delta.
OPS = ["add", "discard", "delta_insert", "delta_delete"]

churn_rows = st.tuples(
    st.sampled_from(DOMAIN + SKOLEMS), st.sampled_from(DOMAIN + SKOLEMS)
)
churn_steps = st.lists(
    st.tuples(st.sampled_from(OPS), churn_rows), min_size=0, max_size=60
)


def apply_churn(database, relation, steps):
    for op, row in steps:
        if op == "add":
            relation.add(row)
        elif op == "discard":
            relation.discard(row)
        elif op == "delta_insert":
            database.apply_delta(Delta.insertion("r", [row]))
        else:
            database.apply_delta(Delta.deletion("r", [row]))


def assert_storage_consistent(relation):
    """The row store and every index match a from-scratch rebuild."""
    rebuilt = Relation(relation.name, relation.arity, relation.tuples())
    assert relation.storage_stats()["rows"] == len(rebuilt) == len(relation)
    for positions in list(relation._indexes):
        live = relation.index_on(positions)
        fresh = rebuilt.index_on(positions)
        # Same keys, same row sets per bucket as a from-scratch rebuild.
        assert {key: set(bucket) for key, bucket in live.items()} == {
            key: set(bucket) for key, bucket in fresh.items()
        }
        # Every bucket row is live, and carries the key it is filed under.
        for key, bucket in live.items():
            for row in bucket:
                assert row in relation
                assert tuple(row[p] for p in positions) == key


class TestIndexChurn:
    @DIFFERENTIAL
    @given(steps=churn_steps)
    def test_indexes_match_rebuild_after_churn(self, steps):
        database = Database()
        relation = database.ensure_relation("r", 2)
        # Build the indexes *before* the churn so they are maintained
        # incrementally through every step, never rebuilt.
        relation.index_on((0,))
        relation.index_on((1,))
        relation.index_on((0, 1))
        apply_churn(database, relation, steps)
        assert_storage_consistent(relation)

    @DIFFERENTIAL
    @given(steps=churn_steps, query=conjunctive_queries())
    def test_churned_relation_still_answers_identically(self, steps, query):
        database = Database()
        relation = database.ensure_relation("r", 2)
        relation.index_on((0,))
        for predicate in ("s", "t"):
            database.ensure_relation(predicate, 2)
        apply_churn(database, relation, steps)
        expected = evaluate(query, database, executor=INTERPRETED)
        assert evaluate(query, database, executor=COMPILED) == expected
