"""Tests for plan compilation: admission, join ordering, operator shapes."""

import pytest

from repro.datalog.parser import parse_query
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.atoms import Atom
from repro.datalog.terms import Constant, FunctionTerm, Variable
from repro.engine.database import Database
from repro.engine.evaluate import EvaluationStatistics, evaluate_conjunctive_interpreted
from repro.errors import EvaluationError
from repro.exec.compile import is_compilable, order_body, try_compile


def _db(**sizes):
    db = Database()
    for name, size in sizes.items():
        db.ensure_relation(name, 2)
        for i in range(size):
            db.add_fact(name, (i, i + 1))
    return db


class TestAdmission:
    def test_plain_queries_are_compilable(self):
        assert is_compilable(parse_query("q(X, Z) :- r(X, Y), s(Y, Z), X < Z."))

    def test_function_terms_in_body_are_rejected(self):
        x = Variable("X")
        query = ConjunctiveQuery(
            Atom("q", [x]),
            [Atom("r", [x, FunctionTerm("f", (x,))])],
            require_safe=False,
        )
        assert not is_compilable(query)
        assert try_compile(query, Database()) is None

    def test_function_terms_in_head_are_rejected(self):
        x = Variable("X")
        query = ConjunctiveQuery(
            Atom("q", [FunctionTerm("f", (x,))]),
            [Atom("r", [x, x])],
            require_safe=False,
        )
        assert not is_compilable(query)


class TestJoinOrdering:
    def test_smallest_restricted_subgoal_first(self):
        db = _db(big=1000, small=5)
        query = parse_query("q(X, Z) :- big(X, Y), small(Y, Z).")
        ordered = order_body(query, db)
        assert [a.predicate for a in ordered] == ["small", "big"]

    def test_constants_make_a_big_relation_attractive(self):
        db = Database()
        db.ensure_relation("big", 2)
        for i in range(1000):
            db.add_fact("big", (i, i))  # 1000 distinct values per column
        db.ensure_relation("mid", 2)
        for i in range(50):
            db.add_fact("mid", (i % 5, i))
        # big restricted by a constant ~ 1 row; mid ~ 50 rows.
        query = parse_query("q(Y, Z) :- mid(Y, Z), big(7, Y).")
        ordered = order_body(query, db)
        assert ordered[0].predicate == "big"

    def test_connected_subgoals_preferred_over_smaller_cartesian(self):
        db = _db(a=10, b=200, tiny=50)
        # After seeding with a, the connected b must come before the
        # disconnected tiny even though tiny is smaller: a cartesian product
        # is deferred until nothing connected remains.
        query = parse_query("q(X, Z, U) :- a(X, Y), b(Y, Z), tiny(U, U).")
        ordered = order_body(query, db)
        assert [atom.predicate for atom in ordered] == ["a", "b", "tiny"]

    def test_order_covers_every_subgoal_exactly_once(self):
        db = _db(r1=10, r2=20, r3=30)
        query = parse_query("q(X, W) :- r1(X, Y), r2(Y, Z), r3(Z, W).")
        ordered = order_body(query, db)
        assert sorted(a.predicate for a in ordered) == ["r1", "r2", "r3"]


class TestPlanShape:
    def test_first_step_is_a_scan_then_hash_probes(self):
        db = _db(r=10, s=10)
        plan = try_compile(parse_query("q(X, Z) :- r(X, Y), s(Y, Z)."), db)
        assert plan is not None
        assert plan.steps[0].key_positions == ()  # scan
        assert plan.steps[1].key_positions == (0,)  # probe on the join column
        assert "hash_join" in plan.explain()

    def test_constants_join_the_index_key(self):
        db = _db(r=10)
        plan = try_compile(parse_query("q(X) :- r(X, 5)."), db)
        assert plan is not None
        assert plan.steps[0].key_positions == (1,)
        assert plan.steps[0].key_sources == ((False, 5),)

    def test_key_positions_are_sorted_for_index_sharing(self):
        db = Database()
        db.ensure_relation("t", 3)
        db.add_fact("t", (1, 2, 3))
        # Y is bound first by r; in t the bound positions are 2 then 0.
        query = parse_query("q(X, Y) :- r(X, Y), t(Y, W, X).")
        db.ensure_relation("r", 2)
        db.add_fact("r", (3, 1))
        plan = try_compile(query, db)
        join = plan.steps[1]
        assert join.key_positions == tuple(sorted(join.key_positions))

    def test_repeated_variable_in_one_atom_becomes_eq_pair(self):
        db = _db(r=10)
        plan = try_compile(parse_query("q(X) :- r(X, X)."), db)
        assert plan.steps[0].eq_pairs == ((0, 1),)

    def test_ground_false_comparison_folds_to_empty_plan(self):
        db = _db(r=10)
        plan = try_compile(parse_query("q(X, Y) :- r(X, Y), 1 > 2."), db)
        assert plan.always_empty
        assert plan.execute(db) == frozenset()

    def test_comparison_attached_at_earliest_binding_step(self):
        db = _db(r=10, s=10)
        plan = try_compile(parse_query("q(X, Z) :- r(X, Y), s(Y, Z), X < Y."), db)
        # X and Y are both bound by the first subgoal in the pipeline order.
        first_with_filter = next(i for i, s in enumerate(plan.steps) if s.filters)
        assert first_with_filter == 0

    def test_empty_body_plan_projects_constants(self):
        db = Database()
        plan = try_compile(parse_query("q(1, 2)."), db)
        assert plan.steps == ()
        assert plan.execute(db) == frozenset([(1, 2)])


def _chain_db(r_rows=12):
    """r, s, t with fan-out 2 over a 6-value domain: joins multiply, answers don't.

    ``r_rows`` < 12 keeps only r's first rows — (0, 1), (0, 2), (1, 2), (1, 3),
    ... — so that r is the smallest thing in sight and every join order has to
    start there.
    """
    db = Database()
    for name in ("r", "s", "t"):
        db.ensure_relation(name, 2)
        for i in range(6):
            db.add_fact(name, (i, (i + 1) % 6))
            db.add_fact(name, (i, (i + 2) % 6))
    for row in list(db.relation("r"))[r_rows:]:
        db.remove_fact("r", row)
    return db


def _interpreted(text, db):
    return evaluate_conjunctive_interpreted(parse_query(text), db)


class TestLiveness:
    def test_dead_join_variable_is_dropped_and_step_marked_distinct(self):
        db = _chain_db()
        text = "q(X, W) :- r(X, Y), s(Y, Z), t(Z, W)."
        plan = try_compile(parse_query(text), db)
        by_predicate = {step.predicate: step for step in plan.steps}
        assert [s.predicate for s in plan.steps] == ["r", "s", "t"]
        assert not by_predicate["r"].distinct and len(by_predicate["r"].keep) == 2
        # s binds Z and is the last reader of Y; t is the last reader of Z.
        assert by_predicate["s"].distinct and by_predicate["s"].keep == (0, 2)
        assert by_predicate["t"].distinct and by_predicate["t"].keep == (0, 2)
        assert plan.execute(db) == _interpreted(text, db)

    def test_last_step_leaves_dedup_to_a_projection_that_rehashes(self):
        db = _chain_db()
        text = "q(Z, X) :- r(X, Y), s(Y, Z)."  # final layout (X, Z) is not the head
        plan = try_compile(parse_query(text), db)
        last = plan.steps[-1]
        assert last.keep == (0, 2) and not last.distinct
        assert plan.execute(db) == _interpreted(text, db)

    def test_variable_of_a_later_comparison_stays_live_until_attached(self):
        db = _chain_db()
        # The head spans r and t, so no witness plan is a candidate.
        text = "q(X, W) :- r(X, Y), s(Y, Z), t(Z, W), Y < W."
        plan = try_compile(parse_query(text), db)
        assert [s.predicate for s in plan.steps] == ["r", "s", "t"]
        r, s, t = plan.steps
        assert s.keep == (0, 1, 2) and not s.distinct  # Y kept for the filter
        assert len(t.filters) == 1 and t.keep == (0, 3) and t.distinct
        assert plan.execute(db) == _interpreted(text, db)

    def test_trailing_existential_subgoal_is_a_semi_join(self):
        db = _chain_db(r_rows=4)
        text = "q(X, Y) :- r(X, Y), s(Y, Z)."
        plan = try_compile(parse_query(text), db)
        scan, probe = plan.steps
        assert (scan.predicate, probe.predicate) == ("r", "s")
        assert probe.exists and probe.operator(first=False) == "semi_join"
        assert not probe.distinct  # every input column survives
        scan_stats, stats = EvaluationStatistics(), EvaluationStatistics()
        rows = scan.run(db, [()], scan_stats)
        survivors = probe.run(db, rows, stats)
        # One index entry per surviving row — not the bucket sizes (2 each).
        assert stats.probes == len(survivors) == 4
        assert plan.execute(db) == _interpreted(text, db)

    def test_filtered_dead_variable_stops_at_the_first_passing_match(self):
        db = _chain_db(r_rows=4)
        # The head is all of r: walking its keys is walking its rows, so the
        # estimator keeps the pipeline.
        text = "q(X, Y) :- r(X, Y), s(Y, Z), Z != 0."
        plan = try_compile(parse_query(text), db)
        assert [step.predicate for step in plan.steps] == ["r", "s"]
        probe = plan.steps[1]
        assert probe.exists and len(probe.filters) == 1
        assert plan.execute(db) == _interpreted(text, db)
        always = "q(X, Y) :- r(X, Y), s(Y, Z), Z != 99."
        stats = EvaluationStatistics()
        plan = try_compile(parse_query(always), db)
        rows = plan.steps[0].run(db, [()], EvaluationStatistics())
        plan.steps[1].run(db, rows, stats)
        assert len(rows) == 4 and stats.probes == len(rows)  # first match always passes

    def test_repeated_variable_with_dead_column_is_not_a_semi_join(self):
        db = _chain_db(r_rows=1)
        db.add_fact("s", (3, 3))
        text = "q(X) :- r(X, Y), s(Z, Z)."
        plan = try_compile(parse_query(text), db)
        assert [step.predicate for step in plan.steps] == ["r", "s"]
        product = plan.steps[1]
        assert product.eq_pairs == ((0, 1),)
        assert not product.exists and product.operator(first=False) == "product"
        assert plan.execute(db) == _interpreted(text, db) == frozenset([(0,)])
        db.remove_fact("s", (3, 3))
        assert try_compile(parse_query(text), db).execute(db) == frozenset()

    def test_boolean_head_yields_unit_or_empty(self):
        db = _chain_db()
        plan = try_compile(parse_query("q() :- r(X, Y), s(Y, Z)."), db)
        assert plan.steps[-1].keep == ()
        assert plan.execute(db) == frozenset([()])
        assert try_compile(parse_query("q() :- r(X, 77)."), db).execute(db) == frozenset()

    def test_constants_and_repeated_variables_in_the_head(self):
        db = _chain_db()
        text = "q(X, 7, X, Z) :- r(X, Y), s(Y, Z)."
        assert try_compile(parse_query(text), db).execute(db) == _interpreted(text, db)

    def test_disconnected_subgoal_with_dead_variables_is_an_existence_test(self):
        db = _chain_db(r_rows=1)
        text = "q(X) :- r(X, Y), t(U, V)."
        plan = try_compile(parse_query(text), db)
        assert [step.predicate for step in plan.steps] == ["r", "t"]
        product = plan.steps[1]
        assert not product.key_positions and product.exists
        stats = EvaluationStatistics()
        assert plan.execute(db, stats) == _interpreted(text, db)
        assert stats.extensions == 1 + 1  # never |r| x |t|

    def test_unbound_head_raises_only_when_a_row_reaches_projection(self):
        db = _chain_db()
        x, y, w = Variable("X"), Variable("Y"), Variable("W")
        reached = ConjunctiveQuery(Atom("q", [x, w]), [Atom("r", [x, y])], require_safe=False)
        with pytest.raises(EvaluationError):
            try_compile(reached, db).execute(db)
        empty = ConjunctiveQuery(
            Atom("q", [x, w]), [Atom("r", [x, Constant(77)])], require_safe=False
        )
        assert try_compile(empty, db).execute(db) == frozenset()

    def test_wrong_arity_relation_still_raises(self):
        db = _chain_db()
        db.ensure_relation("u", 3)
        db.add_fact("u", (1, 2, 3))
        # As a semi-join, an extending probe and a scan alike.
        for text in ("q(X) :- r(X, Y), u(Y, Z).", "q(X, Z) :- r(X, Y), u(Y, Z).", "q(X) :- u(X, Y)."):
            with pytest.raises(EvaluationError):
                try_compile(parse_query(text), db).execute(db)
