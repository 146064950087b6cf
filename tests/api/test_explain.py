"""Equivalence of ``engine.explain()`` with the pre-facade path.

The acceptance bar for the facade: the rewriting it reports is exactly what a
direct :func:`repro.rewriting.rewrite` call produces, and the physical plan steps are
exactly what a :class:`CompiledExecutor` compiles for that rewriting over the
materialized view instance — the facade describes the old pipeline, it does
not run a different one.
"""

import pytest

from repro import connect
from repro.rewriting import rewrite
from repro.api import Engine
from repro.datalog.atoms import Atom
from repro.datalog.parser import parse_database, parse_query, parse_views
from repro.datalog.printer import to_datalog
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import FunctionTerm, Variable
from repro.engine.database import Database
from repro.engine.evaluate import materialize_views
from repro.exec.executor import CompiledExecutor

VIEWS = """
v_rs(A, B) :- r(A, C), s(C, B).
v_r(A, B) :- r(A, B).
v_s(A, B) :- s(A, B).
"""
DATA = "r(1, 2). r(3, 4). s(2, 5). s(4, 6)."
QUERY = "q(X, Z) :- r(X, Y), s(Y, Z)."


def old_path(query_text, views_text, data_text, algorithm="minicon", mode="equivalent"):
    """The pre-facade pipeline, assembled by hand as the CLI used to."""
    query = parse_query(query_text)
    views = parse_views(views_text)
    database = Database.from_atoms(parse_database(data_text))
    result = rewrite(query, views, algorithm=algorithm, mode=mode)
    instance = materialize_views(views, database)
    plans = []
    if result.best is not None:
        executor = CompiledExecutor()
        plans = [executor.plan_for(d, instance) for d in result.best.disjuncts()]
    return result, plans


class TestExplainMatchesOldPath:
    def test_same_rewriting_chosen(self):
        explanation = connect(views=VIEWS, data=DATA).query(QUERY).explain()
        result, _plans = old_path(QUERY, VIEWS, DATA)
        assert explanation.rewriting.found
        assert explanation.rewriting.chosen == to_datalog(result.best.query)
        assert explanation.rewriting.kind == result.best.kind.value
        assert tuple(explanation.rewriting.views_used) == result.best.views_used
        assert explanation.rewriting.candidates_examined == result.candidates_examined

    def test_same_plan_steps(self):
        explanation = connect(views=VIEWS, data=DATA).query(QUERY).explain()
        _result, plans = old_path(QUERY, VIEWS, DATA)
        assert len(explanation.evaluation.plans) == len(plans)
        for described, compiled in zip(explanation.evaluation.plans, plans):
            assert described.strategy == "compiled"
            assert [s.predicate for s in described.steps] == [
                step.predicate for step in compiled.steps
            ]
            assert [s.key_positions for s in described.steps] == [
                step.key_positions for step in compiled.steps
            ]
            assert [(s.columns_kept, s.distinct) for s in described.steps] == [
                (len(step.keep), step.distinct) for step in compiled.steps
            ]
            assert [s.operator for s in described.steps] == [
                step.operator(first=index == 0)
                for index, step in enumerate(compiled.steps)
            ]

    def test_union_rewriting_plans_line_up(self):
        views = "v_r(A, B) :- r(A, B).\nv_q(A) :- r(A, A)."
        query = "q(X) :- r(X, Y)."
        explanation = (
            connect(views=views, data="r(1, 2). r(3, 3).", mode="maximally-contained")
            .query(query)
            .explain()
        )
        result, plans = old_path(
            query, views, "r(1, 2). r(3, 3).", mode="maximally-contained"
        )
        assert explanation.rewriting.chosen == to_datalog(result.best.query)
        assert len(explanation.evaluation.plans) == len(result.best.disjuncts())
        for described, compiled in zip(explanation.evaluation.plans, plans):
            assert [s.predicate for s in described.steps] == [
                step.predicate for step in compiled.steps
            ]

    def test_explained_answers_match_old_evaluation(self):
        engine = connect(views=VIEWS, data=DATA)
        explanation = engine.query(QUERY).explain()
        answer = engine.query(QUERY).answers()
        result, plans = old_path(QUERY, VIEWS, DATA)
        views = parse_views(VIEWS)
        database = Database.from_atoms(parse_database(DATA))
        instance = materialize_views(views, database)
        old_rows = frozenset().union(*(p.execute(instance) for p in plans))
        assert answer.rows == old_rows
        assert explanation.rewriting.chosen == answer.provenance.rewriting


class TestExplainShapes:
    def test_no_rewriting_found(self):
        explanation = (
            connect(views="v_t(A) :- t(A).", data=DATA).query(QUERY).explain()
        )
        assert not explanation.rewriting.found
        assert explanation.rewriting.chosen is None
        assert explanation.evaluation.target == "base"
        # The base-relation plan is still described.
        assert [s.predicate for s in explanation.evaluation.plans[0].steps] == ["r", "s"]

    def test_existential_subgoal_reported_as_semi_join(self):
        # Z is read by nobody: the probe is an existence test.  It is also the
        # last reader of Y, and dropping that input column makes it deduplicate.
        explanation = (
            connect(views="v_t(A) :- t(A).", data=DATA).query("q(X) :- r(X, Y), s(Y, Z).").explain()
        )
        scan, probe = explanation.evaluation.plans[0].steps
        assert (scan.operator, scan.columns_kept, scan.distinct) == ("scan", 2, False)
        assert (probe.operator, probe.columns_kept, probe.distinct) == ("semi_join", 1, True)
        assert "semi_join s/2 key=[0] keep=1 distinct" in explanation.to_text()

    def test_no_database_target_none(self):
        explanation = connect(views=VIEWS).query(QUERY).explain()
        assert explanation.evaluation.target == "none"
        assert explanation.evaluation.plans == ()
        assert explanation.materialization is None

    def test_function_term_disjunct_is_described_as_interpreted(self):
        # The one evaluator reports the interpreter fallback per disjunct.
        x = Variable("X")
        disjunct = ConjunctiveQuery(
            Atom("q", [x]), [Atom("r", [x, FunctionTerm("f", (x,))])], require_safe=False
        )
        database = Database.from_dict({"r": [(1, 2)]})
        description = Engine._describe_plan(disjunct, database, CompiledExecutor())
        assert description.strategy == "interpreted"
        assert description.steps == ()

    def test_cache_flags_flip_after_serving(self):
        engine = connect(views=VIEWS, data=DATA)
        first = engine.query(QUERY).explain()
        assert not first.rewriting.cache_hit
        assert not first.caches.answer_cached
        engine.query(QUERY).answers()
        second = engine.query(QUERY).explain()
        assert second.rewriting.cache_hit
        assert second.caches.answer_cached

    def test_alternatives_listed(self):
        explanation = connect(views=VIEWS, data=DATA).query(QUERY).explain()
        texts = [alt.query for alt in explanation.rewriting.alternatives]
        # v_r ⋈ v_s is the other equivalent rewriting minicon finds.
        assert any("v_r" in text and "v_s" in text for text in texts)

    def test_to_text_renders_the_tree(self):
        text = connect(views=VIEWS, data=DATA).query(QUERY).explain().to_text()
        assert "rewriting (minicon" in text
        assert "chosen [equivalent]" in text
        assert "scan v_rs/2" in text
        assert "materialization:" in text
