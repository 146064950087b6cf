"""Tests for the repro.api facade: connect, Catalog, Engine, Answer."""

import gc
import warnings

import pytest

from repro import connect
from repro.api.catalog import Catalog
from repro.errors import (
    ConstraintViolationError,
    MaterializationError,
    QueryConstructionError,
    SchemaError,
    UnsupportedFeatureError,
)
from repro.datalog.atoms import Atom
from repro.datalog.parser import parse_query, parse_views
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import FunctionTerm, Variable
from repro.engine.database import Database
from repro.engine.evaluate import evaluate
from repro.materialize.delta import Delta
from repro.storage import StorageManager

VIEWS = """
v_rs(A, B) :- r(A, C), s(C, B).
v_r(A, B) :- r(A, B).
v_s(A, B) :- s(A, B).
"""
DATA = "r(1, 2). r(3, 4). s(2, 5). s(4, 6)."
QUERY = "q(X, Z) :- r(X, Y), s(Y, Z)."


def make_engine(**kwargs):
    options = {"views": VIEWS, "data": DATA}
    options.update(kwargs)
    return connect(**options)


class TestConnect:
    def test_accepts_text_views_and_data(self):
        engine = make_engine()
        assert len(engine.views) == 3
        assert engine.database is not None
        assert engine.database.tuples("r") == frozenset({(1, 2), (3, 4)})

    def test_accepts_parsed_objects_and_mappings(self):
        engine = connect(
            views=parse_views(VIEWS),
            data={"r": [(1, 2)], "s": [(2, 5)]},
        )
        assert sorted(engine.query(QUERY).answers()) == [(1, 5)]

    def test_accepts_database_instances(self):
        db = Database.from_dict({"r": [(1, 2)], "s": [(2, 5)]})
        engine = connect(views=VIEWS, data=db)
        assert engine.database is db

    def test_schema_can_be_declared_in_multiple_shapes(self):
        for schema in ({"r": 2, "s": 2}, ["r/2", "s/2"], "r/2 s/2"):
            engine = connect(schema=schema, views=VIEWS, data=DATA)
            assert engine.catalog.schema == {"r": 2, "s": 2}

    def test_engine_is_a_context_manager(self):
        with make_engine() as engine:
            assert len(engine.query(QUERY).answers()) == 2
        # close() only drops caches; the engine stays usable.
        assert len(engine.query(QUERY).answers()) == 2


class TestCatalogValidation:
    def test_declared_schema_rejects_unknown_view_predicate(self):
        with pytest.raises(SchemaError, match="undeclared relation"):
            connect(schema={"r": 2}, views=VIEWS)

    def test_views_with_conflicting_arities_rejected(self):
        with pytest.raises(SchemaError, match="arity"):
            connect(views="v_a(X) :- r(X, Y).\nv_b(X) :- r(X).")

    def test_data_arity_must_match_schema(self):
        with pytest.raises(SchemaError, match="arity"):
            connect(schema={"r": 3}, views=None, data="r(1, 2).")

    def test_view_names_cannot_shadow_base_relations(self):
        with pytest.raises(SchemaError, match="shadows"):
            Catalog(schema={"v_r": 2, "r": 2}, views="v_r(A, B) :- r(A, B).")

    def test_base_data_over_view_names_is_rejected(self):
        with pytest.raises(SchemaError, match="view_instance"):
            connect(views=VIEWS, data="v_rs(1, 5).")

    def test_queries_validated_against_declared_schema(self):
        engine = connect(schema={"r": 2, "s": 2}, views=VIEWS, data=DATA)
        with pytest.raises(SchemaError, match="undeclared relation"):
            engine.query("q(X) :- missing(X).")
        with pytest.raises(SchemaError, match="arity"):
            engine.query("q(X) :- r(X).")

    def test_function_term_query_is_rejected_before_fingerprinting(self, monkeypatch):
        import repro.api.engine as engine_module

        def never(query):
            raise AssertionError("fingerprinted a query the catalog should reject")

        monkeypatch.setattr(engine_module, "fingerprint", never)
        engine = connect(views="v(X,Y) :- r(X,Y).", data="r(1,2).")
        x = Variable("X")
        query = ConjunctiveQuery(
            Atom("q", [x]), [Atom("r", [x, FunctionTerm("f", (x,))])], require_safe=False
        )
        with pytest.raises(UnsupportedFeatureError, match="function term f"):
            engine.query(query)

    def test_inferred_schema_leaves_unknown_predicates_open(self):
        engine = make_engine()
        answer = engine.query("q(X) :- unrelated(X).").answers()
        assert len(answer) == 0

    def test_view_instance_must_use_view_relations(self):
        with pytest.raises(SchemaError, match="not a view"):
            connect(views=VIEWS, view_instance="other(1, 5).")


class TestIntegrityConstraints:
    CONSTRAINT = "self_loop() :- r(X, X)."

    def test_violation_at_attach_time(self):
        with pytest.raises(ConstraintViolationError) as excinfo:
            connect(views=VIEWS, data="r(1, 1).", constraints=self.CONSTRAINT)
        assert excinfo.value.violated == ("self_loop",)

    def test_check_after_deltas(self):
        engine = make_engine(constraints=self.CONSTRAINT)
        assert engine.check() == ()
        engine.apply(Delta.insertion("r", [(7, 7)]))
        assert engine.check() == ("self_loop",)

    def test_constraints_must_be_boolean(self):
        with pytest.raises(QueryConstructionError, match="boolean"):
            connect(views=VIEWS, constraints="bad(X) :- r(X, Y).")


class TestDurableConnectFailures:
    """A connect the catalog or the data rejects writes no state and leaves
    no file open."""

    VIEW = "v(X) :- r(X)."
    FACTS = "r(1). r(2)."

    @pytest.mark.parametrize(
        "rejected, error",
        [
            ({"constraints": "bad() :- r(X)."}, ConstraintViolationError),
            ({"views": "v(X, Y) :- r(X, Y)."}, SchemaError),
        ],
        ids=["constraint", "arity"],
    )
    def test_a_fresh_directory_stays_fresh(self, tmp_path, rejected, error):
        directory = str(tmp_path / "state")
        options = {"views": self.VIEW, "data": self.FACTS, "storage": directory}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(error):
                connect(**{**options, **rejected})
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        manager = StorageManager(directory)
        assert not manager.has_state
        manager.close()
        with connect(**options) as engine:
            assert engine.database.tuples("r") == frozenset({(1,), (2,)})

    def test_a_rejected_recovery_leaves_the_directory_byte_identical(self, tmp_path):
        directory = tmp_path / "state"
        with connect(views=self.VIEW, data=self.FACTS, storage=str(directory)) as engine:
            engine.apply("+ r(3).")
        before = {path.name: path.read_bytes() for path in directory.iterdir()}
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ConstraintViolationError):
                connect(views=self.VIEW, constraints="bad() :- r(X).", storage=str(directory))
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]
        assert {path.name: path.read_bytes() for path in directory.iterdir()} == before
        with connect(views=self.VIEW, storage=str(directory)) as engine:
            assert engine.database.tuples("r") == frozenset({(1,), (2,), (3,)})


class TestAnswers:
    def test_answers_match_direct_evaluation(self):
        engine = make_engine()
        answer = engine.query(QUERY).answers()
        direct = evaluate(parse_query(QUERY), Database.from_dict(
            {"r": [(1, 2), (3, 4)], "s": [(2, 5), (4, 6)]}
        ))
        assert answer.rows == direct

    def test_provenance_views_plan(self):
        engine = make_engine()
        answer = engine.query(QUERY).answers()
        assert answer.provenance.source == "views"
        assert answer.provenance.kind == "equivalent"
        assert answer.provenance.views_used == ("v_rs",)
        assert "v_rs" in answer.provenance.rewriting
        assert answer.provenance.executor == "compiled"
        assert not answer.provenance.cache_hit

    def test_provenance_base_fallback_and_cache_hits(self):
        engine = connect(views="v_t(A) :- t(A).", data=DATA)
        answer = engine.query(QUERY).answers()
        assert answer.provenance.source == "base"
        assert answer.provenance.rewriting is None
        again = engine.query(QUERY).answers()
        assert again.provenance.cache_hit
        assert again.provenance.answered_from_cache
        assert not answer.provenance.answered_from_cache
        assert again.rows == answer.rows

    def test_answer_behaves_like_a_set(self):
        answer = make_engine().query(QUERY).answers()
        assert len(answer) == 2
        assert (1, 5) in answer
        assert answer.sorted_rows() == [(1, 5), (3, 6)]
        payload = answer.to_json()
        assert payload["count"] == 2
        assert payload["provenance"]["source"] == "views"

    def test_answers_require_data(self):
        engine = connect(views=VIEWS)
        with pytest.raises(MaterializationError, match="no base data"):
            engine.query(QUERY).answers()

    def test_every_path_without_data_raises_one_error(self):
        engine = connect(views=VIEWS)
        for call in (
            lambda: engine.query(QUERY).answers(),
            lambda: engine.session.answer(parse_query(QUERY)),
            lambda: engine.apply("+ r(1, 2)."),
            lambda: engine.store(),
            lambda: engine.extent("v_rs"),
            engine.verify,
            engine.check,
            lambda: engine.batch([QUERY], with_answers=True),
        ):
            with pytest.raises(MaterializationError, match="no base data"):
                call()

    def test_query_accepts_parsed_objects_only_of_the_right_type(self):
        engine = make_engine()
        prepared = engine.query(parse_query(QUERY))
        assert len(prepared.answers()) == 2
        with pytest.raises(QueryConstructionError):
            engine.query(42)


class TestQueryTextMemo:
    def test_an_answered_text_is_not_parsed_again(self):
        engine = make_engine()
        first = engine.query(QUERY)
        assert engine.query(QUERY) is not first  # not memoised before a verb
        first.answers()
        assert engine.query(QUERY) is first
        parse = engine.metrics_registry.get("repro_stage_seconds").labels("parse")
        parsed = parse.count
        assert sorted(engine.query(QUERY).answers()) == [(1, 5), (3, 6)]
        assert parse.count == parsed

    def test_every_verb_memoises(self):
        for verb in ("answers", "rewrite", "explain", "certain"):
            engine = make_engine()
            prepared = engine.query(QUERY)
            getattr(prepared, verb)()
            assert engine.query(QUERY) is prepared, verb

    def test_failures_are_never_memoised(self):
        engine = make_engine(schema={"r": 2, "s": 2})
        for text in ("q(X :- broken", "q(X) :- unknown(X)."):
            for _ in range(2):
                with pytest.raises(Exception):
                    engine.query(text).answers()
        assert not engine._prepared

    def test_bounded_by_cache_size_first_in_first_out(self):
        engine = make_engine(cache_size=2)
        texts = [f"q(X) :- r(X, {n})." for n in range(3)]
        for text in texts:
            engine.query(text).answers()
        assert list(engine._prepared) == texts[1:]

    def test_cache_size_zero_disables_it(self):
        engine = make_engine(cache_size=0)
        engine.query(QUERY).answers()
        assert not engine._prepared

    def test_query_objects_are_not_memoised(self):
        engine = make_engine()
        engine.query(parse_query(QUERY)).answers()
        assert not engine._prepared

    def test_memoised_text_sees_deltas_and_reports_cache_flags(self):
        engine = make_engine()
        flags = []
        for _ in range(3):
            provenance = engine.query(QUERY).answers().provenance
            flags.append((provenance.cache_hit, provenance.answered_from_cache))
        assert flags == [(False, False), (True, True), (True, True)]
        engine.apply("+ r(7, 2).")
        answer = engine.query(QUERY).answers()
        assert (7, 5) in answer
        assert (answer.provenance.cache_hit, answer.provenance.answered_from_cache) == (
            True, False,
        )

    def test_close_drops_the_memo(self):
        engine = make_engine()
        engine.query(QUERY).answers()
        engine.close()
        assert not engine._prepared


class TestViewSetChange:
    LOOP = "q(X) :- r(X, X)."

    def test_the_catalog_follows_the_view_set(self):
        engine = connect(views="v_rs(A, B) :- r(A, C), s(C, B).", data=DATA + " r(9, 9).")
        engine.session.set_views(parse_views(
            "v_rs(A, B) :- r(A, C), s(C, B). w(A) :- r(A, A)."
        ))
        answer = engine.query(self.LOOP).answers()
        assert answer.rows == frozenset({(9,)})
        assert answer.provenance.views_used == ("w",)
        assert engine.stats()["catalog"]["views"] == ["v_rs", "w"]
        assert engine.catalog.views is engine.views
        certain = engine.query(self.LOOP).certain()
        assert certain.provenance.views_used == ("v_rs", "w")

    def test_new_views_are_validated_as_connect_validates_them(self):
        engine = connect(schema={"r": 2, "s": 2}, views=VIEWS, data=DATA)
        for views, error in (
            ("v(A) :- t(A).", "undeclared relation"),
            ("v(A) :- r(A).", "arity"),
            ("r(A, B) :- s(A, B).", "shadows"),
        ):
            with pytest.raises(SchemaError, match=error):
                engine.set_views(views)
        # A failed swap changes nothing.
        assert engine.stats()["catalog"]["views"] == ["v_rs", "v_r", "v_s"]
        assert engine.query(QUERY).answers().provenance.views_used == ("v_rs",)

    def test_a_view_named_like_a_base_relation_is_rejected(self):
        engine = make_engine()
        with pytest.raises(SchemaError, match="view name"):
            engine.set_views("s(A, B) :- r(A, B).")


class TestCertain:
    def test_certain_from_view_instance(self):
        engine = connect(
            views="v_rs(A, B) :- r(A, C), s(C, B).",
            view_instance="v_rs(1, 5). v_rs(3, 6).",
        )
        answer = engine.query(QUERY).certain()
        assert answer.rows == frozenset({(1, 5), (3, 6)})
        assert answer.provenance.source == "certain"
        assert answer.provenance.algorithm == "inverse-rules"

    def test_certain_methods_agree_over_materialized_extents(self):
        engine = make_engine()
        by_rules = engine.query(QUERY).certain(method="inverse-rules")
        by_rewriting = engine.query(QUERY).certain(method="rewriting")
        assert by_rules.rows == by_rewriting.rows

    def test_certain_requires_instance_or_data(self):
        engine = connect(views=VIEWS)
        with pytest.raises(MaterializationError):
            engine.query(QUERY).certain()


class TestDeltasAndMaintenance:
    def test_apply_text_delta_maintains_extents(self):
        engine = make_engine()
        before = engine.extent("v_rs")
        log = engine.apply("+ r(7, 2).")
        assert "r" in log.base_predicates
        after = engine.extent("v_rs")
        assert after - before == frozenset({(7, 5)})
        assert engine.verify() == []

    def test_answers_reflect_deltas(self):
        engine = make_engine()
        assert (7, 5) not in engine.query(QUERY).answers()
        engine.apply(Delta.insertion("r", [(7, 2)]))
        assert (7, 5) in engine.query(QUERY).answers()
        engine.apply(Delta.deletion("r", [(7, 2)]))
        assert (7, 5) not in engine.query(QUERY).answers()

    def test_apply_requires_data(self):
        engine = connect(views=VIEWS)
        with pytest.raises(MaterializationError, match="no base data"):
            engine.apply("+ r(1, 2).")


class TestBatchAndStats:
    def test_batch_through_engine_configuration(self):
        engine = make_engine()
        report = engine.batch(
            [QUERY, "q(A, B) :- s(C, B), r(A, C)."], with_answers=True
        )
        assert report.requests == 2
        assert report.errors == 0
        assert report.cache_hits == 1  # isomorphic second query
        assert report.items[0].answers == 2

    def test_batch_accepts_program_text(self):
        report = make_engine().batch(QUERY)
        assert report.requests == 1

    def test_stats_expose_catalog_engine_and_session(self):
        engine = make_engine()
        engine.query(QUERY).answers()
        stats = engine.stats()
        assert stats["queries_served"] == 1
        assert stats["catalog"]["views"] == ["v_rs", "v_r", "v_s"]
        assert stats["catalog"]["relations"] == {"r": 2, "s": 2}
        assert stats["session"]["requests"] == 1
        assert stats["session"]["executor"]["executor"] == "compiled"

    def test_cache_entries_gauge_covers_every_sized_cache(self):
        engine = make_engine()
        for constant in (5, 6):  # the second is a bound-form hit
            engine.query(f"q(X) :- r(X, Y), s(Y, {constant}).").answers()
        stats = engine.stats()["session"]
        lines = engine.metrics().splitlines()
        size = stats["bound_forms"]["size"]
        assert f'repro_cache_entries{{cache="bound_form"}} {size}' in lines
        for cache in ("rewrite", "answer", "containment_memo"):
            assert any(line.startswith(f'repro_cache_entries{{cache="{cache}"}} ') for line in lines)
        for cache in ("translation", "containment"):
            assert not any(f'repro_cache_entries{{cache="{cache}"}}' in line for line in lines)


class TestExecutorMatrix:
    """Every facade verb runs through the engine's compiled executor."""

    def test_facade_verbs_are_executor_invariant(self):
        engine = make_engine()
        answer = engine.query(QUERY).answers()
        assert answer.provenance.executor == "compiled"
        assert answer.sorted_rows() == [(1, 5), (3, 6)]
        assert answer.provenance.source == "views"
        assert answer.provenance.kind == "equivalent"

        engine.apply("+ r(7, 2).")
        after = engine.query(QUERY).answers()
        assert after.sorted_rows() == [(1, 5), (3, 6), (7, 5)]
        assert engine.extent("v_rs") == frozenset({(1, 5), (3, 6), (7, 5)})
        assert engine.verify() == []

        certain = engine.query(QUERY).certain()
        assert certain.rows == frozenset({(1, 5), (3, 6), (7, 5)})

        report = engine.batch(
            [QUERY, "q(A, B) :- s(C, B), r(A, C)."], with_answers=True
        )
        assert report.errors == 0
        assert report.items[0].answers == 3

        stats = engine.stats()
        assert stats["session"]["executor"]["executor"] == "compiled"


class TestPartialRewritingDatabase:
    """A partial rewriting reads the views beside the base relations."""

    SHAPE = "q(X, Z) :- r(X, Y), s(Y, Z), t(Z, W), W != %d."

    def engine(self):
        rows = [(i, (i * 7) % 300) for i in range(300)]
        data = Database.from_dict({"r": rows, "s": rows, "t": [(i, i % 20) for i in range(300)]})
        return connect(views="v_rs(A, B) :- r(A, C), s(C, B).", data=data, mode="partial")

    def test_requests_share_one_database_and_its_plans(self):
        engine = self.engine()
        for constant in range(20):
            answer = engine.query(self.SHAPE % constant).answers()
            assert answer.provenance.source == "views+base"
        executor = engine.stats()["session"]["executor"]
        assert executor["plan_misses"] <= 2
        assert executor["plans_cached"] <= 2
        assert engine.stats()["session"]["bound_forms"]["hits"] == 19
        engine.query(self.SHAPE % 3).explain()
        assert engine.stats()["session"]["executor"]["plan_misses"] <= 2

    def test_answers_follow_writes_to_base_and_views(self):
        engine = self.engine()
        for constant in (0, 1):
            engine.query(self.SHAPE % constant).answers()
        engine.apply(Delta(
            inserted={"r": {(1000, 7)}, "t": {(49, 5), (7, 1)}},
            removed={"r": {(3, 21)}, "t": {(21, 1)}},
        ))
        for constant in (0, 1, 5):
            text = self.SHAPE % constant
            expected = evaluate(parse_query(text), engine.database, executor="interpreted")
            assert engine.query(text).answers().rows == expected
