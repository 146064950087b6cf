"""Deprecation-shim coverage: the pre-facade public API stays importable and
functional.

``PRE_FACADE_SYMBOLS`` is the frozen ``repro.__all__`` as it stood before the
``repro.api`` facade landed, less the two caching entry points the
engine absorbed (``RewritingSession``, ``run_batch``; see
``docs/migration.md``).  Every one of those names must remain importable from
the top-level package, and the load-bearing entry points must keep working —
the facade composes them, it does not replace them.
"""

import pytest

import repro

#: repro.__all__ before the facade (frozen — edit only to remove a name on
#: purpose, with a docs/migration.md entry).
PRE_FACADE_SYMBOLS = (
    "Atom",
    "BatchReport",
    "BucketRewriter",
    "ChangeLog",
    "Comparison",
    "ComparisonOperator",
    "CompiledExecutor",
    "ConjunctiveQuery",
    "Constant",
    "Database",
    "DatalogProgram",
    "Delta",
    "EvaluationError",
    "ExhaustiveRewriter",
    "FunctionTerm",
    "InterpretedExecutor",
    "InverseRulesRewriter",
    "LRUCache",
    "MaterializationError",
    "MaterializedViewStore",
    "MiniConRewriter",
    "OptimizationResult",
    "ParseError",
    "PlanChoice",
    "QueryConstructionError",
    "QueryFingerprint",
    "ReproError",
    "Rewriting",
    "RewritingError",
    "RewritingKind",
    "RewritingResult",
    "SchemaError",
    "Substitution",
    "UnionQuery",
    "UnsafeQueryError",
    "UnsupportedFeatureError",
    "Variable",
    "View",
    "ViewChange",
    "ViewRelevanceIndex",
    "ViewSet",
    "certain_answers",
    "choose_best_plan",
    "enumerate_plans",
    "estimate_cost",
    "evaluate",
    "evaluate_boolean",
    "evaluate_program",
    "expand_rewriting",
    "is_complete_rewriting",
    "is_contained",
    "is_contained_rewriting",
    "is_equivalent",
    "is_satisfiable",
    "fingerprint",
    "materialize_views",
    "maximally_contained_rewriting",
    "measured_cost",
    "minimize",
    "parse_atom",
    "parse_database",
    "parse_delta",
    "parse_program",
    "parse_query",
    "parse_view",
    "parse_views",
    "partial_rewritings",
    "rewrite",
    "to_datalog",
    "view_is_relevant",
    "view_is_usable",
    "view_is_useful",
    "__version__",
)

VIEWS_TEXT = "v_rs(A, B) :- r(A, C), s(C, B)."
QUERY_TEXT = "q(X, Z) :- r(X, Y), s(Y, Z)."
FACTS_TEXT = "r(1, 2). s(2, 5)."


class TestSymbolsSurvive:
    @pytest.mark.parametrize("symbol", PRE_FACADE_SYMBOLS)
    def test_symbol_still_exported(self, symbol):
        assert hasattr(repro, symbol), f"repro.{symbol} disappeared"
        assert symbol in repro.__all__, f"repro.{symbol} fell out of __all__"

    def test_all_only_grew(self):
        # The facade adds names; it must not remove any.
        missing = set(PRE_FACADE_SYMBOLS) - set(repro.__all__) - {"__version__"}
        assert not missing


class TestShimsStayFunctional:
    def test_rewrite_shim(self):
        result = repro.rewrite(
            repro.parse_query(QUERY_TEXT), repro.parse_views(VIEWS_TEXT)
        )
        assert result.has_equivalent
        assert result.best.views_used == ("v_rs",)

    def test_evaluate_and_materialize_shims(self):
        database = repro.Database.from_atoms(repro.parse_database(FACTS_TEXT))
        views = repro.parse_views(VIEWS_TEXT)
        instance = repro.materialize_views(views, database)
        assert instance.tuples("v_rs") == frozenset({(1, 5)})
        rows = repro.evaluate(repro.parse_query(QUERY_TEXT), database)
        assert rows == frozenset({(1, 5)})

    def test_engine_keeps_what_the_session_did(self):
        database = repro.Database.from_atoms(repro.parse_database(FACTS_TEXT))
        engine = repro.connect(views=repro.parse_views(VIEWS_TEXT), data=database)
        query = repro.parse_query(QUERY_TEXT)
        assert engine.rewrite_cached(query).has_equivalent
        assert engine.query(query).answers().rows == frozenset({(1, 5)})
        assert engine.stats()["session"]["requests"] == 2  # one rewrite + one answer

    def test_certain_answers_shim(self):
        views = repro.parse_views(VIEWS_TEXT)
        instance = repro.Database.from_atoms(repro.parse_database("v_rs(1, 5)."))
        rows = repro.certain_answers(
            repro.parse_query(QUERY_TEXT), views, instance
        )
        assert rows == frozenset({(1, 5)})

    def test_delta_and_store_shims(self):
        database = repro.Database.from_atoms(repro.parse_database(FACTS_TEXT))
        store = repro.MaterializedViewStore(repro.parse_views(VIEWS_TEXT), database)
        log = store.apply_delta(repro.parse_delta("+ r(7, 2)."))
        assert log.delta.inserted_rows("r") == frozenset({(7, 2)})
        assert store.extent("v_rs") == frozenset({(1, 5), (7, 5)})

    def test_engine_batch_does_what_run_batch_did(self):
        report = repro.connect(views=repro.parse_views(VIEWS_TEXT)).batch([QUERY_TEXT])
        assert report.requests == 1
        assert report.errors == 0

    def test_facade_and_shim_agree(self):
        engine = repro.connect(views=VIEWS_TEXT, data=FACTS_TEXT)
        database = repro.Database.from_atoms(repro.parse_database(FACTS_TEXT))
        assert engine.query(QUERY_TEXT).answers().rows == repro.evaluate(
            repro.parse_query(QUERY_TEXT), database
        )
