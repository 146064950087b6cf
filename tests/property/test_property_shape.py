"""Soundness of shape-parameterised rewriting (the session's template cache).

A session that has served ``Q(c')`` answers ``Q(c)`` of the same template key
by substituting ``c`` into the rewritings it found for ``c'``.  The theorem
that allows it is in ``docs/paper_mapping.md`` ("Shape-parameterised
rewriting"); this suite enforces it:

* **differential**: whenever the second request is a template hit, what the
  session returns equals a from-scratch ``rewrite(Q(c))`` — same kinds,
  ``views_used``, rewritings and expansions up to variable renaming — and
  every instantiated expansion is re-verified against ``Q(c)`` by
  ``is_contained``;
* **adversarial pairs** that differ in something the views can tell apart
  must *not* share a template;
* **benchmark streams**: every pair of ``cold_rewrite`` / ``exec_heavy`` /
  ``warm_serve`` requests of equal shape *does* share one.
"""

from __future__ import annotations

import json
import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import connect
from repro.containment.containment import is_contained
from repro.datalog.atoms import Atom, Comparison
from repro.datalog.parser import parse_query, parse_views, scan_literals
from repro.datalog.printer import to_datalog
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.terms import Constant
from repro.datalog.views import View, ViewSet
from repro.errors import ParseError, UnsafeQueryError, UnsupportedFeatureError
from repro.rewriting.plans import RewritingKind
from repro.rewriting.rewriter import rewrite
from repro.service.fingerprint import fingerprint

from tests.property.strategies import databases, queries_with_comparisons

ALGORITHMS = ("exhaustive", "bucket", "minicon")
MODES = ("equivalent", "contained", "maximally-contained", "partial")

SLOW = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)

#: What a query constant may be replaced by: values equal to the strategies'
#: view constants (0, 1, 2) under another type, values between and beyond
#: them, and another class altogether.
REPLACEMENTS = [0, 1, 2, 3, -1, 0.5, 1.0, 1.5, 2.5, True, "a", "b"]


@st.composite
def views_with_comparisons(draw, max_views: int = 3) -> ViewSet:
    count = draw(st.integers(min_value=1, max_value=max_views))
    return ViewSet([
        View(f"v{i}", draw(queries_with_comparisons(name=f"v{i}"))) for i in range(count)
    ])


def with_constants(query: ConjunctiveQuery, mapping) -> ConjunctiveQuery:
    """``query`` with each constant replaced through ``mapping`` (by exact
    type and value, which ``replace_terms`` alone would not tell apart)."""
    def swap(term):
        if isinstance(term, Constant):
            return Constant(mapping.get((type(term.value), term.value), term.value))
        return term

    return ConjunctiveQuery(
        Atom(query.head.predicate, [swap(t) for t in query.head.args]),
        [Atom(a.predicate, [swap(t) for t in a.args]) for a in query.body],
        [Comparison(swap(c.left), c.op, swap(c.right)) for c in query.comparisons],
        require_safe=False,
    )


def constant_keys(query: ConjunctiveQuery):
    return sorted({(type(c.value), c.value) for c in fingerprint(query).params}, key=repr)


def _canonical(obj):
    """A query-like object up to variable renaming and subgoal order."""
    if obj is None:
        return None
    if isinstance(obj, UnionQuery):
        return tuple(sorted(_canonical(q) for q in obj.disjuncts))
    return fingerprint(obj).text


def described(result):
    return [
        (r.kind, r.views_used, _canonical(r.query), _canonical(r.expansion))
        for r in result.rewritings
    ]


def assert_same_rewritings(served, scratch, algorithm):
    assert served.algorithm == scratch.algorithm
    if algorithm == "minicon":
        assert described(served) == described(scratch)
        assert served.candidates_examined == scratch.candidates_examined
    else:  # bucket and the exhaustive search iterate over sets
        assert Counter(described(served)) == Counter(described(scratch))
    best, expected = served.best, scratch.best
    assert (best is None) == (expected is None)
    if best is not None:
        assert (best.kind, best.size()) == (expected.kind, expected.size())


def assert_expansions_verify(result, query):
    """Every instantiated expansion stands in its kind's relation to ``query``."""
    for rewriting in result.rewritings:
        expansion = rewriting.expansion
        if expansion is None:
            continue
        assert is_contained(expansion, query)
        if rewriting.kind in (RewritingKind.EQUIVALENT, RewritingKind.PARTIAL):
            assert is_contained(query, expansion)


def check_second_request(first, second, views, algorithm, mode, must_hit=False):
    """Serve ``first`` then ``second``; a template hit must equal from-scratch."""
    session = connect(views=views, algorithm=algorithm, mode=mode)
    try:
        session.query(first).rewrite()
        served = session.query(second).rewrite()
        hit = session.last_cache_hit
        scratch = rewrite(second, views, algorithm=algorithm, mode=mode)
    except UnsupportedFeatureError:
        return None
    if must_hit:
        assert hit
    if hit:
        assert_same_rewritings(served, scratch, algorithm)
        assert_expansions_verify(served, second)
    return hit


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
class TestTemplateDifferential:
    @SLOW
    @given(data=st.data(), base=queries_with_comparisons(), views=views_with_comparisons())
    def test_order_preserving_replacement_hits_and_equals_scratch(
        self, algorithm, mode, data, base, views
    ):
        # The strategies' constants are the integers 0..2, in queries and
        # views alike.  Moving a query constant c to c + e, 0 < e < 1, keeps
        # it off every view constant and keeps every order; two such moves of
        # the same constants are therefore always one template key.
        offsets = st.sampled_from([0.25, 0.5, 0.75])
        moved = [key for key in constant_keys(base) if data.draw(st.booleans())]
        first, second = (
            with_constants(base, {key: key[1] + data.draw(offsets) for key in moved})
            for _ in range(2)
        )
        check_second_request(first, second, views, algorithm, mode, must_hit=True)

    @SLOW
    @given(data=st.data(), base=queries_with_comparisons(), views=views_with_comparisons())
    def test_any_replacement_that_hits_equals_scratch(
        self, algorithm, mode, data, base, views
    ):
        values = st.sampled_from(REPLACEMENTS)
        first, second = (
            with_constants(base, {key: data.draw(values) for key in constant_keys(base)})
            for _ in range(2)
        )
        check_second_request(first, second, views, algorithm, mode)


def instance(text, *values) -> ConjunctiveQuery:
    """``text`` parsed with ``$1``, ``$2``... standing for constants of exactly
    these Python values (the parser has no literal for a bool or a NaN)."""
    marks = {(int, 9000 + i): value for i, value in enumerate(values, start=1)}
    parsed = parse_query(re.sub(r"\$(\d)", lambda m: str(9000 + int(m.group(1))), text))
    return with_constants(parsed, marks)


def shares_template(views_text, text, first, second, algorithm="minicon", mode="equivalent"):
    """Whether ``text`` with values ``second`` is served from the template of
    ``text`` with values ``first`` (checking, when it is, that it may be)."""
    first = first if isinstance(first, tuple) else (first,)
    second = second if isinstance(second, tuple) else (second,)
    hit = check_second_request(
        instance(text, *first), instance(text, *second),
        parse_views(views_text), algorithm, mode,
    )
    assert hit is not None
    return hit


class TestAdversarialPairs:
    """Pairs that differ in something the views (or the query itself) can
    tell apart never share a template — and close pairs that do not, do."""

    VIEW_ONE = "v(A, B) :- r(A, B), B != 1."
    VIEW_LT5 = "v(A) :- r(A), A < 5."
    VIEW_PLAIN = "v(A, B) :- r(A, B)."

    @pytest.mark.parametrize("equal_to_view_constant", [1, 1.0, True])
    def test_constant_equal_to_a_view_constant_is_pinned(self, equal_to_view_constant):
        query = "q(X) :- r(X, Y), Y != $1."
        assert not shares_template(self.VIEW_ONE, query, 7, equal_to_view_constant)
        assert not shares_template(self.VIEW_ONE, query, equal_to_view_constant, 7)
        assert shares_template(self.VIEW_ONE, query, 7, 8)

    def test_types_of_a_pinned_value_are_told_apart(self):
        # 1, 1.0 and True are equal constants but print — and answer — differently.
        query = "q(X, $1) :- r(X, Y)."
        assert not shares_template(self.VIEW_ONE, query, 1, 1.0)
        assert not shares_template(self.VIEW_ONE, query, 1, True)

    def test_rank_among_view_comparison_constants(self):
        # Under v's A < 5, X < 4 is answerable from v and X < 6 is not; and
        # X != 6 is implied by it where X != 4 is not.
        below = "q(X) :- r(X), X < $1."
        views = parse_views(self.VIEW_LT5)
        assert rewrite(instance(below, 4), views).has_equivalent
        assert not rewrite(instance(below, 6), views).has_equivalent
        for query in (below, "q(X) :- r(X), X != $1."):
            for mode in ("equivalent", "contained"):
                assert not shares_template(self.VIEW_LT5, query, 4, 6, mode=mode)
                assert not shares_template(self.VIEW_LT5, query, 6, 4, mode=mode)
                assert shares_template(self.VIEW_LT5, query, 6, 9, mode=mode)
                assert shares_template(self.VIEW_LT5, query, 4, -3, mode=mode)

    def test_between_below_above_two_view_constants(self):
        views = "v(A) :- r(A), A > 2, A < 8."
        query = "q(X) :- r(X), X > $1."
        below, between, above = 1, 5, 9
        for first, second in ((below, between), (between, above), (below, above)):
            assert not shares_template(views, query, first, second, mode="contained")
        assert shares_template(views, query, between, 6.5, mode="contained")

    def test_mutual_order_of_two_params(self):
        query = "q(X, Y) :- r(X, Y), X < $1, Y > $2."
        assert not shares_template(self.VIEW_PLAIN, query, (3, 5), (5, 3))
        assert shares_template(self.VIEW_PLAIN, query, (3, 5), (4, 9))
        # 3 < X < 5 is satisfiable, 5 < X < 3 is not.
        window = "q(X) :- r(X, Y), X > $1, X < $2."
        assert not shares_template(self.VIEW_PLAIN, window, (3, 5), (5, 3))

    def test_one_constant_twice_is_not_two_constants(self):
        query = "q(X) :- r(X, Y), r(X, Z), Y != $1, Z != $2."
        assert not shares_template(self.VIEW_PLAIN, query, (3, 3), (3, 5))
        assert not shares_template(self.VIEW_PLAIN, query, (3, 5), (3, 3))
        assert shares_template(self.VIEW_PLAIN, query, (3, 5), (4, 6))

    def test_equal_values_of_two_types_are_pinned(self):
        # r(X, 1), r(X, 1.0) is one subgoal twice; r(X, 2), r(X, 3.0) is two.
        query = "q(X) :- r(X, $1), r(X, $2)."
        assert not shares_template(self.VIEW_PLAIN, query, (1, 1.0), (2, 3.0))
        assert not shares_template(self.VIEW_PLAIN, query, (2, 3.0), (1, 1.0))
        assert not shares_template(self.VIEW_PLAIN, query, (1, True), (2, True))
        assert not shares_template(self.VIEW_PLAIN, query, (2, True), (1, True))

    def test_classes_are_told_apart(self):
        query = "q(X) :- r(X, Y), Y != $1."
        assert not shares_template(self.VIEW_PLAIN, query, 3, "3")
        assert not shares_template(self.VIEW_PLAIN, query, 3, True)
        assert shares_template(self.VIEW_PLAIN, query, "a", "zebra")
        assert shares_template(self.VIEW_PLAIN, query, 3, 2.5)

    def test_param_in_head_and_in_body(self):
        head = "q(X, $1) :- r(X, Y)."
        body = "q(X) :- r(X, $1)."
        assert shares_template(self.VIEW_PLAIN, head, 3, 4)
        assert shares_template(self.VIEW_PLAIN, body, 3, 4)
        both = "q(X, $1) :- r(X, $2)."
        assert shares_template(self.VIEW_PLAIN, both, (3, 3), (4, 4))
        assert not shares_template(self.VIEW_PLAIN, both, (3, 3), (3, 4))
        # In a view's head or body a constant pins as anywhere else.
        assert not shares_template("v(A, 3) :- r(A, B).", body, 4, 3)
        assert not shares_template("v(A) :- r(A, 3).", body, 4, 3)

    def test_nan_is_never_substituted(self):
        query = "q(X) :- r(X, Y), Y < $1."
        nan = float("nan")
        assert not shares_template(self.VIEW_PLAIN, query, 3.5, nan)
        assert not shares_template(self.VIEW_PLAIN, query, nan, 3.5)
        assert shares_template(self.VIEW_PLAIN, query, 3.5, float("inf"))

    def test_inverse_rules_pins_everything(self):
        query = "q(X) :- r(X, Y), s(Y, $1)."
        views = "v(A, B) :- r(A, B). w(A, B) :- s(A, B)."
        assert not shares_template(views, query, 7, 8, algorithm="inverse-rules")
        assert shares_template(views, query, 7, 7, algorithm="inverse-rules")


class TestBenchmarkStreams:
    """Requests of the e2e read workloads that have one shape share one template."""

    @pytest.fixture(scope="class")
    def inputs(self):
        directory = str(Path(__file__).resolve().parents[2] / "benchmarks" / "e2e")
        sys.path.insert(0, directory)
        try:
            import inputs  # read-only: the generators, not the harness
        finally:
            sys.path.remove(directory)
        return inputs

    @pytest.mark.parametrize(
        "workload, requests", [("cold_rewrite", 160), ("exec_heavy", 60), ("warm_serve", 96)]
    )
    def test_equal_shapes_share_and_equal_scratch(self, inputs, workload, requests):
        generated = getattr(inputs, workload)(seed=5)
        session = connect(views=generated.views)
        shapes = set()
        for text, _ in generated.reads(requests):
            query = parse_query(text)
            shape = fingerprint(query).shape
            served = session.query(query).rewrite()
            assert session.last_cache_hit is (shape in shapes)
            shapes.add(shape)
            scratch = rewrite(query, generated.views, algorithm="minicon")
            assert_same_rewritings(served, scratch, "minicon")
            assert [str(r.query) for r in served.rewritings] == [
                str(r.query) for r in scratch.rewritings
            ]
        assert len(shapes) < requests


# ---------------------------------------------------------------------------
# Bound forms: the same pairs, and the lexer's own, replayed through text
# ---------------------------------------------------------------------------

def stable(payload):
    """``Answer.to_json()`` minus what may differ between a hit and a miss."""
    payload = {k: v for k, v in payload.items() if k != "elapsed"}
    payload["provenance"] = {
        k: v for k, v in payload["provenance"].items()
        if k not in ("cache_hit", "answered_from_cache")
    }
    return payload


def open_engine(views, data, **options):
    return connect(views=views, data=data, **options)


def serve(views, data, texts, **options):
    """Serve ``texts`` in order through one engine; per text, whether it was a
    bound-form hit — each reply checked against a fresh engine's."""
    engine = open_engine(views, data, **options)
    hits = []
    for text in texts:
        before = engine.stats()["session"]["bound_forms"]["hits"]
        served = stable(engine.query(text).answers().to_json())
        hits.append(engine.stats()["session"]["bound_forms"]["hits"] - before == 1)
        fresh = open_engine(views, data, **options)
        assert served == stable(fresh.query(text).answers().to_json()), text
        assert engine.query(text)._fingerprint.text == fingerprint(parse_query(text)).text
    return hits


def shares_form(views, data, template, first, second, **options):
    first = first if isinstance(first, tuple) else (first,)
    second = second if isinstance(second, tuple) else (second,)
    return serve(views, data, [template % first, template % second], **options)[1]


PAIRS = {(a, b) for a in range(-3, 10) for b in range(-3, 10, 2)} | {(1.0, 1), (6.5, 2), ("a", "b")}
R2 = {"r": sorted(PAIRS, key=repr), "s": [(b, a) for a, b in sorted(PAIRS, key=repr)]}
R1 = {"r": [(n,) for n in (-3, 0, 1, 3, 4, 4.5, 5, 6, 7, 9)]}


class TestAdversarialPairsThroughText(TestAdversarialPairs):
    """``TestAdversarialPairs`` with the constants spelled in the text: a pair
    that may not share a template must not share a bound form either, and
    whatever is served equals a fresh engine's reply."""

    @pytest.mark.parametrize("equal_to_view_constant", ["1", "1.0"])
    def test_constant_equal_to_a_view_constant_is_pinned(self, equal_to_view_constant):
        query = "q(X) :- r(X, Y), Y != %s."
        assert not shares_form(self.VIEW_ONE, R2, query, 7, equal_to_view_constant)
        assert not shares_form(self.VIEW_ONE, R2, query, equal_to_view_constant, 7)
        assert shares_form(self.VIEW_ONE, R2, query, 7, 8)

    def test_types_of_a_pinned_value_are_told_apart(self):
        assert not shares_form(self.VIEW_ONE, R2, "q(X, %s) :- r(X, Y).", "1", "1.0")

    def test_rank_among_view_comparison_constants(self):
        for query in ("q(X) :- r(X), X < %s.", "q(X) :- r(X), X != %s."):
            for mode in ("equivalent", "contained"):
                assert not shares_form(self.VIEW_LT5, R1, query, 4, 6, mode=mode)
                assert not shares_form(self.VIEW_LT5, R1, query, 6, 4, mode=mode)
                assert shares_form(self.VIEW_LT5, R1, query, 6, 9, mode=mode)
                assert shares_form(self.VIEW_LT5, R1, query, 4, -3, mode=mode)

    def test_between_below_above_two_view_constants(self):
        views = "v(A) :- r(A), A > 2, A < 8."
        query = "q(X) :- r(X), X > %s."
        for first, second in ((1, 5), (5, 9), (1, 9)):
            assert not shares_form(views, R1, query, first, second, mode="contained")
        assert shares_form(views, R1, query, 5, 6.5, mode="contained")

    def test_mutual_order_of_two_params(self):
        query = "q(X, Y) :- r(X, Y), X < %s, Y > %s."
        assert not shares_form(self.VIEW_PLAIN, R2, query, (3, 5), (5, 3))
        assert shares_form(self.VIEW_PLAIN, R2, query, (3, 5), (4, 9))
        window = "q(X) :- r(X, Y), X > %s, X < %s."
        assert not shares_form(self.VIEW_PLAIN, R2, window, (3, 5), (5, 3))

    def test_one_constant_twice_is_not_two_constants(self):
        query = "q(X) :- r(X, Y), r(X, Z), Y != %s, Z != %s."
        assert not shares_form(self.VIEW_PLAIN, R2, query, (3, 3), (3, 5))
        assert not shares_form(self.VIEW_PLAIN, R2, query, (3, 5), (3, 3))
        assert shares_form(self.VIEW_PLAIN, R2, query, (3, 5), (4, 6))

    def test_equal_values_of_two_types_are_pinned(self):
        query = "q(X) :- r(X, %s), r(X, %s)."
        assert not shares_form(self.VIEW_PLAIN, R2, query, ("1", "1.0"), ("2", "3.0"))
        assert not shares_form(self.VIEW_PLAIN, R2, query, ("2", "3.0"), ("1", "1.0"))

    def test_classes_are_told_apart(self):
        query = "q(X) :- r(X, Y), Y != %s."
        assert not shares_form(self.VIEW_PLAIN, R2, query, 3, "'3'")
        assert shares_form(self.VIEW_PLAIN, R2, query, "'a'", "'zebra'")
        assert shares_form(self.VIEW_PLAIN, R2, query, 3, 2.5)

    def test_param_in_head_and_in_body(self):
        assert shares_form(self.VIEW_PLAIN, R2, "q(X) :- r(X, %s).", 3, 4)
        # A literal the rewriting's head keeps is part of the plan's shape.
        assert not shares_form(self.VIEW_PLAIN, R2, "q(X, %s) :- r(X, Y).", 3, 4)
        both = "q(X, %s) :- r(X, %s)."
        assert not shares_form(self.VIEW_PLAIN, R2, both, (3, 3), (4, 4))
        assert not shares_form(self.VIEW_PLAIN, R2, both, (3, 3), (3, 4))
        assert not shares_form("v(A, 3) :- r(A, B).", R2, "q(X) :- r(X, %s).", 4, 3)
        assert not shares_form("v(A) :- r(A, 3).", R2, "q(X) :- r(X, %s).", 4, 3)

    test_nan_is_never_substituted = None  # the token grammar spells no NaN

    def test_inverse_rules_pins_everything(self):
        query = "q(X) :- r(X, Y), s(Y, %s)."
        views = "v(A, B) :- r(A, B). w(A, B) :- s(A, B)."
        assert not shares_form(views, R2, query, 7, 8, algorithm="inverse-rules")
        assert not shares_form(views, R2, query, 7, 7, algorithm="inverse-rules")


class TestLexerPairs:
    """What only a text can do to a literal."""

    VIEWS = "v(A, B) :- r(A, B). w(A, B) :- s(A, B)."
    QUERY = "q(X) :- r(X, Y), Y != %s."

    def hits(self, *texts, views=VIEWS, data=R2):
        return serve(views, data, list(texts))

    def test_a_sign_is_part_of_the_number(self):
        assert self.hits(self.QUERY % "-3", self.QUERY % "3", "q(X) :- r(X, Y), Y>-3.") == [
            False, True, False
        ]
        # ``<-`` is the arrow, whatever follows it: not a smaller-than minus three.
        with pytest.raises(ParseError):
            serve(self.VIEWS, R2, ["q(X) :- r(X, Y), Y <3.", "q(X) :- r(X, Y), Y <-3."])

    def test_spellings_of_one_number(self):
        assert self.hits(self.QUERY % "1e3", self.QUERY % "1000.0", self.QUERY % "1000") == [
            False, True, True
        ]

    def test_quotes_and_escapes_of_one_string(self):
        texts = [self.QUERY % spelled for spelled in (
            r"'a\'b'", '"a\'b"', r"'\u0041'", "'A'", r"'tab\there'", "'%'", "'# 5'"
        )]
        assert self.hits(*texts) == [False] + [True] * 6
        with pytest.raises(ParseError):
            serve(self.VIEWS, R2, [self.QUERY % "'a'", self.QUERY % r"'\u00zz'"])

    def test_a_literal_inside_a_comment_is_no_literal(self):
        commented = "q(X) :- r(X, Y), % Y != 5, 'x'\n Y != 7. # 9"
        # A comment is whitespace: the text has one literal, 7, where 6 stood.
        assert self.hits("q(X) :- r(X, Y), Y != 6.", commented) == [False, True]
        assert self.hits(commented, commented.replace("7", "8").replace("5", "55")) == [
            False, True
        ]

    def test_digits_inside_identifiers_stay(self):
        views = "v_0_1(A, B) :- r1(A, B)."
        data = {"r1": [(1, 2), (2, 4)]}
        first = "q(X2) :- r1(X2, Y1), Y1 != 4."
        assert self.hits(first, "q(X2) :- r1(X2, Y1), Y1 != 2.", views=views, data=data) == [
            False, True
        ]
        assert self.hits(first, "q(X3) :- r1(X3, Y1), Y1 != 2.", views=views, data=data) == [
            False, False
        ]

    def test_a_symbolic_constant_is_part_of_the_skeleton(self):
        data = {"r": [(1, 2), (2, "abc"), (3, "b")], "s": [(1, "abc"), (2, "b")]}
        number = "q(X) :- r(X, Y), s(X, abc), Y != %s."
        assert self.hits(number % 2, number % 7, views=self.VIEWS, data=data) == [False, True]
        assert self.hits(number % 2, number.replace("abc", "b") % 7, data=data) == [False, False]
        # Its order against a string literal -- and whether the two are equal:
        # both parse to one constant -- is in no key: never a form, whichever
        # text comes first.
        string = "q(X) :- r(X, Y), s(X, abc), Y != %s."
        for order in (("'b'", "'zz'", "'abc'"), ("'abc'", "'b'", "'zz'")):
            assert self.hits(*(string % s for s in order), data=data) == [False] * 3
        two = "q(X) :- r(X, Y), s(X, abc), Y != %s, Y != %s."
        pairs = [("'abc'", "'zz'"), ("'b'", "'zz'"), ("'a'", "'abc'"), ("'a'", "'b'")]
        assert self.hits(*(two % pair for pair in pairs), data=data) == [False] * 4

    def test_whitespace(self):
        assert self.hits(
            self.QUERY % 7, "q(X)  :-\n\tr(X,   Y),  Y\t!=  8.  ", "q(X):-r(X,Y),Y!=9",
            "q(X):-r(X,Y),Y!=10",
        ) == [False, True, False, True]

    def test_hostile_strings_reach_no_key_unescaped(self):
        session = open_engine(self.VIEWS, R2).session
        hostile = ["' @ int:1,str:'", "\x00" + "0\x00", "\t", "\n", "$s0", "'), s(Y, '"]
        texts = [self.QUERY % ("'%s'" % h.replace("\\", "\\\\").replace("'", "\\'"))
                 for h in hostile]
        keys = {session.bound_lookup(text)[0][:2] for text in texts}
        assert keys == {session.bound_lookup(self.QUERY % "'benign'")[0][:2]}
        assert self.hits(self.QUERY % "'benign'", *texts) == [False] + [True] * len(hostile)
        for value, text in zip(hostile, texts):
            assert repr(value) in fingerprint(parse_query(text)).text

    def test_a_view_constant_that_spells_a_hole_mark_is_not_taken_for_one(self):
        views = "v(A, B) :- r(A, B), B != '\x00" + "0\x00'."
        assert self.hits(self.QUERY % 7, self.QUERY % 8, views=views) == [False, True]


class TestBoundFormLifecycle:
    VIEWS = "v_rs(A, B) :- r(A, C), s(C, B)."
    DATA = {"r": [(1, 7), (2, 8), (3, 9)], "s": [(7, 5), (8, 5), (9, 6)]}
    SHAPE = "q(X, Y) :- r(X, Z), s(Z, Y), Y != %d."

    def forms(self, engine):
        return engine.stats()["session"]["bound_forms"]

    def test_set_views_invalidate_and_close_empty_the_memo(self):
        engine = open_engine(self.VIEWS, self.DATA)
        for clear in (
            lambda: engine.session.set_views(parse_views(self.VIEWS + " w(A) :- r(A, A).")),
            engine.session.invalidate,
            engine.close,
        ):
            engine.query(self.SHAPE % 6).answers()
            assert self.forms(engine)["size"] == 1
            clear()
            assert self.forms(engine)["size"] == 0
            hits = self.forms(engine)["hits"]
            assert engine.query(self.SHAPE % 4).answers().rows == {(1, 5), (2, 5), (3, 6)}
            assert self.forms(engine)["hits"] == hits
            engine.close()

    def test_a_view_constant_added_later_pins_a_ranked_literal(self):
        engine = open_engine(self.VIEWS, self.DATA)
        engine.query(self.SHAPE % 6).answers()
        memoised = engine.query(self.SHAPE % 5)
        assert memoised.answers().provenance.rewriting == "q(X, Y) :- v_rs(X, Y), Y != 5."
        engine.session.set_views(parse_views("v_rs(A, B) :- r(A, C), s(C, B), B != 5."))
        # 5 is now a constant of a view: no form, and the text's memoised
        # PreparedQuery does not serve it from the one it came from either.
        for prepared in (memoised, engine.query(self.SHAPE % 5)):
            answer = prepared.answers()
            assert answer.rows == {(3, 6)} and answer.provenance.source == "views"
        assert engine.session.bound_lookup(self.SHAPE % 5) == (None, (), None)
        assert engine.query(self.SHAPE % 4).answers().rows == {(1, 5), (2, 5), (3, 6)}
        hits = self.forms(engine)["hits"]
        assert engine.query(self.SHAPE % 3).answers().rows == {(1, 5), (2, 5), (3, 6)}
        assert engine.query(self.SHAPE % 7).answers().rows == {(1, 5), (2, 5), (3, 6)}
        assert self.forms(engine)["hits"] == hits + 1  # 3 ranks as 4 does, 7 does not

    def test_a_form_whose_template_was_evicted_is_replaced(self):
        engine = open_engine(self.VIEWS, self.DATA)
        engine.query(self.SHAPE % 6).answers()
        stale = engine.query(self.SHAPE % 4)._form
        engine.session._rewrite_cache.clear()  # what LRU pressure from other shapes does
        answer = engine.query(self.SHAPE % 4).answers()  # the long way: a cold rewrite
        assert answer.rows == {(1, 5), (2, 5), (3, 6)} and not answer.provenance.cache_hit
        prepared = engine.query(self.SHAPE % 3)
        assert prepared._form is not None and prepared._form is not stale
        assert prepared.answers().provenance.cache_hit and prepared._query is None

    def test_a_bound_hit_parses_and_fingerprints_nothing(self, monkeypatch):
        engine = open_engine(self.VIEWS, self.DATA)
        engine.query(self.SHAPE % 6).answers()
        import repro.api.engine as module
        for name in ("parse_query", "fingerprint"):
            monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail(name))
        prepared = engine.query(self.SHAPE % 4)
        answer = prepared.answers()
        assert (answer.provenance.cache_hit, answer.provenance.answered_from_cache) == (True, False)
        assert prepared._query is None and prepared._instance is None
        monkeypatch.undo()
        assert prepared.query == parse_query(self.SHAPE % 4)
        assert [str(r.query) for r in prepared.rewrite().rewritings] == [
            "q(X, Y) :- v_rs(X, Y), Y != 4."
        ]
        assert "Y != 4" in prepared.explain().rewriting.chosen

    def test_counters_keep_their_meaning(self):
        engine = open_engine(self.VIEWS, self.DATA)
        engine.query(self.SHAPE % 6).answers()
        before = engine.stats()["session"]
        engine.query(self.SHAPE % 4).answers()
        after = engine.stats()["session"]
        moved = {
            (cache, field): after[cache][field] - before[cache][field]
            for cache in ("bound_forms", "rewrite_cache", "answer_cache")
            for field in ("hits", "misses")
        }
        assert moved == {
            ("bound_forms", "hits"): 1, ("bound_forms", "misses"): 0,
            ("rewrite_cache", "hits"): 1, ("rewrite_cache", "misses"): 0,
            ("answer_cache", "hits"): 0, ("answer_cache", "misses"): 1,
        }
        assert after["executor"]["plan_hits"] == before["executor"]["plan_hits"] + 1
        assert after["executor"]["plan_misses"] == before["executor"]["plan_misses"]
        assert 'repro_cache_events_total{cache="bound_form",outcome="hit"} 1' in engine.metrics()
        assert 'repro_cache_events_total{cache="bound_form",outcome="miss"} 1' in engine.metrics()


def respelled(query: ConjunctiveQuery, mapping) -> str:
    return to_datalog(with_constants(query, mapping))


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
class TestBoundFormDifferential:
    @SLOW
    @given(
        data=st.data(), base=queries_with_comparisons(), views=views_with_comparisons(),
        database=databases(),
    )
    def test_a_mutated_literal_is_served_as_a_fresh_engine_serves_it(
        self, algorithm, mode, data, base, views, database
    ):
        values = st.sampled_from(REPLACEMENTS[:9] + ["a", "b", "x y"])
        texts = [
            respelled(base, {key: data.draw(values) for key in constant_keys(base)})
            for _ in range(3)
        ]
        engine = connect(views=views, data=database.copy(), algorithm=algorithm, mode=mode)
        try:
            served = [stable(engine.query(text).answers().to_json()) for text in texts]
        except UnsupportedFeatureError:
            return
        for text, reply in zip(texts, served):
            fresh = connect(views=views, data=database.copy(), algorithm=algorithm, mode=mode)
            assert reply == stable(fresh.query(text).answers().to_json())


class TestScanAgreesWithTheTokenGrammar:
    """A skeleton and its literals say what the tokens are: re-spelling the
    literals, spaced, into the skeleton's marks parses — or fails — as the text."""

    ALPHABET = list("XYr1(),.:-<>=!'\"%# \n\\eaE5") + ["q(X) :- r(X, Y), ", " != ", "'a'", "3.5"]

    @staticmethod
    def outcome(text):
        """The query, or the type of the error that rejects the text."""
        try:
            return parse_query(text)
        except (ParseError, UnsafeQueryError) as error:
            return type(error)

    @settings(max_examples=600, deadline=None)
    @given(pieces=st.lists(st.sampled_from(ALPHABET), max_size=14))
    @example(pieces=["q(X) :- r(X, Y), ", "E", "<", "X"])  # unsafe: E is in no subgoal
    def test_on_token_soup(self, pieces):
        text = "".join(pieces)
        scanned = scan_literals(text)
        if scanned is None:
            assert self.outcome(text) in (ParseError, UnsafeQueryError)
            return
        skeleton, values = scanned
        spelled = iter(
            " %s " % (json.dumps(v).replace("'", "\\'") if isinstance(v, str) else repr(v))
            for v in values
        )
        respelt = re.sub("[\t\n]", lambda mark: next(spelled), skeleton)
        assert self.outcome(respelt) == self.outcome(text)
        assert next(spelled, None) is None
