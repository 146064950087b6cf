"""Tests for the engine's caches: rewriting templates, answers, invalidation."""

import pytest

import repro.api.engine as engine_module
from repro import connect
from repro.errors import MaterializationError, RewritingError
from repro.datalog.parser import parse_query, parse_views
from repro.datalog.printer import to_datalog
from repro.engine.database import Database
from repro.engine.evaluate import evaluate
from repro.rewriting.rewriter import rewrite
from repro.service.fingerprint import fingerprint

VIEWS = parse_views(
    """
    v_rs(A, B) :- r(A, C), s(C, B).
    v_r(A, B) :- r(A, B).
    v_s(A, B) :- s(A, B).
    """
)

QUERY = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
ISOMORPH = parse_query("q(A, B) :- s(C, B), r(A, C).")


def make_db():
    return Database.from_dict({"r": [(1, 2), (3, 4)], "s": [(2, 5), (4, 6)]})


def open_engine(views=VIEWS, database=None, **options):
    # The in-memory backend attaches ``database`` itself, so a test can also
    # mutate it behind the engine's back.
    return connect(views=views, data=database, **options)


def cached(engine, query):
    """Whether an answer for ``query`` is in the answer cache (no hit counted)."""
    return (fingerprint(query).text, engine.algorithm, engine.mode) in engine._answer_cache


class TestRewriteCached:
    def test_miss_then_hit_byte_identical(self):
        session = open_engine()
        first = session.query(QUERY).rewrite()
        assert session.last_cache_hit is False
        second = session.query(QUERY).rewrite()
        assert session.last_cache_hit is True
        assert [str(r.query) for r in first.rewritings] == [
            str(r.query) for r in second.rewritings
        ]
        assert [str(r.expansion) for r in first.rewritings] == [
            str(r.expansion) for r in second.rewritings
        ]

    def test_miss_matches_uncached_rewrite(self):
        session = open_engine()
        cached = session.query(QUERY).rewrite()
        uncached = rewrite(QUERY, VIEWS, algorithm="minicon")
        assert [str(r.query) for r in cached.rewritings] == [
            str(r.query) for r in uncached.rewritings
        ]
        assert cached.candidates_examined == uncached.candidates_examined

    def test_isomorphic_query_hits_and_is_renamed(self):
        session = open_engine()
        session.query(QUERY).rewrite()
        result = session.query(ISOMORPH).rewrite()
        assert session.last_cache_hit is True
        # The returned plan is in the *incoming* query's variables.
        assert str(result.best.query) == "q(A, B) :- v_rs(A, B)."
        assert result.query is ISOMORPH

    def test_isomorphic_hit_equals_uncached_result(self):
        session = open_engine()
        session.query(QUERY).rewrite()
        cached = session.query(ISOMORPH).rewrite()
        uncached = rewrite(ISOMORPH, VIEWS, algorithm="minicon")
        assert sorted(str(r.query.canonical()) for r in cached.rewritings) == sorted(
            str(r.query.canonical()) for r in uncached.rewritings
        )

    def test_different_mode_sessions_do_not_share(self):
        contained = open_engine(mode="contained")
        result = contained.query(QUERY).rewrite()
        assert contained.last_cache_hit is False
        assert len(result.rewritings) >= 1

    def test_a_repeated_text_reuses_its_instance(self, monkeypatch):
        session = open_engine()
        text = to_datalog(QUERY)
        session.query(text).rewrite()
        first = session.query(text).rewrite()
        monkeypatch.setattr(
            engine_module, "Instance", lambda *args: pytest.fail("instantiated again")
        )
        second = session.query(text).rewrite()
        assert session.last_cache_hit is True
        assert second.best is first.best
        assert all(a is b for a, b in zip(first.rewritings, second.rewritings))

    def test_bad_algorithm_rejected(self):
        with pytest.raises(RewritingError):
            open_engine(algorithm="nope")
        with pytest.raises(RewritingError):
            open_engine(mode="nope")


def shaped_text(constant):
    return f"q(X, Z) :- r(X, Y), s(Y, Z), Y != {constant}."


def shaped(constant):
    return parse_query(shaped_text(constant))


#: Two copies of each base relation: four equivalent rewritings of ``shaped``.
COPIES = parse_views(
    "a(A, B) :- r(A, B). b(A, B) :- r(A, B). c(A, B) :- s(A, B). d(A, B) :- s(A, B)."
)


class TestTemplateCache:
    """The rewrite cache is keyed by shape: a first-seen constant is a hit."""

    def test_new_constant_of_a_known_shape_hits_and_equals_uncached(self):
        session = open_engine(COPIES)
        session.query(shaped(7)).rewrite()
        assert session.last_cache_hit is False
        served = session.query(shaped(8)).rewrite()
        assert session.last_cache_hit is True
        uncached = rewrite(shaped(8), COPIES, algorithm="minicon")
        assert len(served.rewritings) == 4
        assert [(r.kind, r.views_used, str(r.query), str(r.expansion))
                for r in served.rewritings] == [
            (r.kind, r.views_used, str(r.query), str(r.expansion))
            for r in uncached.rewritings
        ]
        assert str(served.best.query) == str(uncached.best.query)
        assert served.candidates_examined == uncached.candidates_examined
        stats = session.stats()["session"]
        assert (stats["rewrite_cache"]["hits"], stats["rewrite_cache"]["misses"]) == (1, 1)
        assert stats["rewrite_cache"]["size"] == 1

    def test_text_repeats_instantiate_nothing_new_constants_once(self, monkeypatch):
        session = open_engine()
        built = []
        instance = engine_module.Instance
        monkeypatch.setattr(
            engine_module, "Instance", lambda *args: built.append(args) or instance(*args)
        )
        for constant in (7, 8, 8, 9, 8):
            session.query(shaped_text(constant)).rewrite()
        stats = session.stats()["session"]
        assert (stats["rewrite_cache"]["hits"], stats["rewrite_cache"]["misses"]) == (4, 1)
        # 8 and 9 were instantiated once each; 8 came back twice.
        assert len(built) == 2

    def test_a_repeated_text_gets_the_very_same_rewritings(self):
        session = open_engine(COPIES)
        session.query(shaped_text(7)).rewrite()
        first = session.query(shaped_text(8)).rewrite()
        second = session.query(shaped_text(8)).rewrite()
        assert first is not second
        assert first.best is second.best
        assert all(a is b for a, b in zip(first.rewritings, second.rewritings))
        assert first.best in first.rewritings

    def test_best_is_instantiated_alone_until_the_list_is_read(self):
        session = open_engine(COPIES)
        session.query(shaped(7)).rewrite()
        served = session.query(shaped(8)).rewrite()
        assert "Y != 8" in str(served.best.query)
        assert served._instance._all is None
        assert len(served.rewritings) == len(served._instance._all) == 4

    def test_isomorphic_variant_with_a_new_constant(self):
        session = open_engine()
        session.query(shaped(7)).rewrite()
        variant = parse_query("q(A, B) :- s(C, B), r(A, C), C != 9.")
        served = session.query(variant).rewrite()
        assert session.last_cache_hit is True
        assert served.query is variant
        uncached = rewrite(variant, VIEWS, algorithm="minicon")
        assert sorted(str(r.query.canonical()) for r in served.rewritings) == sorted(
            str(r.query.canonical()) for r in uncached.rewritings
        )

    def test_set_views_recomputes_what_is_pinned(self):
        session = open_engine()
        session.query(shaped(7)).rewrite()
        session.query(shaped(8)).rewrite()
        assert session.last_cache_hit is True
        session.set_views(parse_views("v_rs(A, B) :- r(A, C), s(C, B), C != 8."))
        session.query(shaped(7)).rewrite()
        session.query(shaped(8)).rewrite()  # now a constant of a view: pinned
        assert session.last_cache_hit is False
        session.query(shaped(6)).rewrite()  # below 8, as 7 is
        assert session.last_cache_hit is True
        session.query(shaped(9)).rewrite()  # above it
        assert session.last_cache_hit is False

    def test_cache_size_zero_disables_it(self):
        session = open_engine(cache_size=0)
        session.query(shaped(7)).rewrite()
        session.query(shaped(8)).rewrite()
        assert session.last_cache_hit is False
        assert session.stats()["session"]["rewrite_cache"]["size"] == 0

    def test_answers_of_a_template_hit_match_the_interpreter(self):
        db = make_db()
        session = open_engine(database=db)
        session.query(shaped(4)).answers()
        for constant in (2, 4, 5):
            answer = session.query(shaped(constant)).answers()
            assert answer.provenance.cache_hit is True
            assert answer.provenance.answered_from_cache is (constant == 4)
            assert answer.rows == evaluate(shaped(constant), db, executor="interpreted")
        assert session.stats()["session"]["answer_cache"]["size"] == 3  # one per constant

    def test_delta_scoped_eviction_is_per_constant(self):
        from repro.materialize.delta import parse_delta

        views = parse_views("v_r(A, B) :- r(A, B). v_s(A, B) :- s(A, B). v_t(A) :- t(A).")
        db = make_db()
        db.add_fact("t", (1,))
        session = open_engine(views, database=db)
        other = parse_query("p(X) :- t(X), X != 3.")
        for query in (shaped(7), shaped(8), other):
            session.query(query).answers()
        assert session.stats()["session"]["rewrite_cache"]["size"] == 2
        session.apply(parse_delta("+ r(9, 2)."))
        assert not cached(session, shaped(7))
        assert not cached(session, shaped(8))
        assert cached(session, other)
        assert (session.delta_evictions, session.delta_retained) == (2, 1)
        answer = session.query(shaped(8)).answers()
        assert answer.provenance.cache_hit is True and (9, 5) in answer
        assert cached(session, shaped(8)) and not cached(session, shaped(7))


def answer(session, query):
    return session.query(query).answers().rows


class TestAnswer:
    def test_answers_match_direct_evaluation(self):
        db = make_db()
        session = open_engine(database=db)
        assert answer(session, QUERY) == evaluate(QUERY, db)

    def test_answer_cache_hit(self):
        session = open_engine(database=make_db())
        first = answer(session, QUERY)
        second = session.query(QUERY).answers()
        assert second.provenance.answered_from_cache is True
        assert first == second.rows

    def test_isomorphic_queries_share_answers(self):
        db = make_db()
        session = open_engine(database=db)
        answer(session, QUERY)
        shared = session.query(ISOMORPH).answers()
        assert shared.rows == evaluate(ISOMORPH, db)
        assert shared.provenance.answered_from_cache is True

    def test_database_mutation_invalidates_answers(self):
        db = make_db()
        session = open_engine(database=db)
        before = answer(session, QUERY)
        db.add_fact("r", (7, 8))
        db.add_fact("s", (8, 9))
        after = answer(session, QUERY)
        assert after != before
        assert (7, 9) in after
        assert session.invalidations >= 1

    def test_no_database_raises(self):
        session = open_engine()
        with pytest.raises(MaterializationError):
            session.query(QUERY).answers()

    def test_answers_count_each_query_once(self):
        db = make_db()
        session = open_engine(database=db)
        first = session.query(QUERY).answers()
        assert first.rows == evaluate(QUERY, db)
        assert first.provenance.rewriting is not None
        assert session.requests == 1
        stats = session.stats()["session"]["rewrite_cache"]
        assert (stats["hits"], stats["misses"]) == (0, 1)
        # A repeat is one request and one rewrite-cache hit.
        again = session.query(QUERY).answers()
        assert again.rows == first.rows
        assert again.provenance.cache_hit is True
        assert session.requests == 2

    def test_fingerprint_is_shared_by_isomorphic_queries(self):
        session = open_engine(database=make_db())
        fp_q = session.query(QUERY).answers().provenance.fingerprint
        assert session.query(ISOMORPH).answers().provenance.fingerprint == fp_q

    def test_unrewritable_query_falls_back_to_direct(self):
        db = make_db()
        db.add_fact("u", (1,))
        session = open_engine(database=db)
        lonely = parse_query("p(X) :- u(X).")
        assert answer(session, lonely) == evaluate(lonely, db)


class TestInvalidation:
    def test_set_views_clears_rewrite_cache(self):
        session = open_engine()
        session.query(QUERY).rewrite()
        session.set_views(parse_views("v_r(A, B) :- r(A, B)."))
        session.query(QUERY).rewrite()
        assert session.last_cache_hit is False

    def test_set_views_with_equal_contents_keeps_cache(self):
        session = open_engine()
        session.query(QUERY).rewrite()
        same = parse_views(
            """
            v_rs(A, B) :- r(A, C), s(C, B).
            v_r(A, B) :- r(A, B).
            v_s(A, B) :- s(A, B).
            """
        )
        session.set_views(same)
        session.query(QUERY).rewrite()
        assert session.last_cache_hit is True

    def test_invalidate_clears_everything(self):
        session = open_engine(database=make_db())
        session.query(QUERY).rewrite()
        answer(session, QUERY)
        session.invalidate()
        stats = session.stats()["session"]
        assert stats["rewrite_cache"]["size"] == 0
        assert stats["answer_cache"]["size"] == 0
        assert stats["bound_forms"]["size"] == 0
        assert stats["materialized"] is False
        assert not session._prepared


class TestStats:
    def test_stats_shape(self):
        session = open_engine(database=make_db())
        session.query(QUERY).rewrite()
        stats = session.stats()["session"]
        for key in (
            "algorithm", "mode", "requests", "views", "rewrite_cache",
            "bound_forms", "answer_cache", "view_index",
        ):
            assert key in stats
        assert "translation_cache" not in stats and "containment_cache" not in stats
        assert stats["requests"] == 1
        assert stats["view_index"]["queries_filtered"] == 1

    def test_requests_count_rewrites_and_answers_alike(self):
        db = make_db()
        session = open_engine(database=db)
        assert session.query(QUERY).rewrite().has_equivalent
        assert session.query(QUERY).answers().rows == evaluate(QUERY, db)
        assert session.stats()["session"]["requests"] == 2

    def test_stats_is_a_plain_dict_without_the_memo_alias(self):
        session = open_engine(database=make_db())
        session.query(QUERY).rewrite()
        stats = session.stats()["session"]
        assert type(stats) is dict
        assert "containment_memo" not in stats
        assert stats.get("containment_memo") is None


class TestLRUBoundOnSession:
    def test_eviction_under_tiny_cache(self):
        session = open_engine(cache_size=1)
        q1 = parse_query("q(X, Z) :- r(X, Y), s(Y, Z).")
        q2 = parse_query("p(X, Y) :- r(X, Y).")
        session.query(q1).rewrite()
        session.query(q2).rewrite()   # evicts q1's entry
        session.query(q1).rewrite()
        assert session.last_cache_hit is False
        assert session.stats()["session"]["rewrite_cache"]["evictions"] >= 1


class TestAnswerCacheIsWeighedInRows:
    """The answer cache holds at most ``128 x cache_size`` rows in total."""

    @staticmethod
    def session(rows, cache_size=1):
        db = Database.from_dict({"r": [(i, i + 1) for i in range(rows)], "s": [(1, 1)]})
        return open_engine(database=db, cache_size=cache_size), db

    def test_an_answer_heavier_than_the_budget_is_served_but_not_kept(self):
        session, db = self.session(rows=129)
        query = parse_query("q(X, Y) :- r(X, Y).")
        assert answer(session, query) == evaluate(query, db)
        assert answer(session, query) == evaluate(query, db)
        assert not cached(session, query)
        stats = session.stats()["session"]["answer_cache"]
        assert (stats["size"], stats["hits"], stats["evictions"]) == (0, 0, 0)

    def test_heavy_answers_evict_by_weight_before_the_entry_bound(self):
        session, db = self.session(rows=200, cache_size=4)  # 512 rows, 4 entries
        texts = [f"q(X, Y, {tag}) :- r(X, Y)." for tag in range(3)]  # 200 rows each
        for text in texts:
            answer(session, parse_query(text))
        # Two fit the row budget; the third pushed the oldest out with only
        # three of the four entries in use.
        kept = [cached(session, parse_query(text)) for text in texts]
        assert kept == [False, True, True]
        assert session.stats()["session"]["answer_cache"]["evictions"] == 1
        answer(session, parse_query("q(X) :- s(X, X)."))  # one row: room for it
        stats = session.stats()["session"]["answer_cache"]
        assert (stats["size"], stats["evictions"]) == (3, 1)

    def test_a_delta_gives_the_evicted_rows_back_to_the_budget(self):
        from repro.materialize import Delta

        session, db = self.session(rows=100, cache_size=1)  # 128 rows
        query, other = parse_query("q(X, Y) :- r(X, Y)."), parse_query("q(X, Y, 1) :- r(X, Y).")
        answer(session, query)
        session.apply(Delta.insertion("r", [(500, 501)]))  # evicts by predicate
        assert session._answer_cache.weight == 0
        answer(session, other)  # 101 rows fit only because the 100 were given back
        assert cached(session, other)
        assert session.stats()["session"]["answer_cache"]["evictions"] == 0
