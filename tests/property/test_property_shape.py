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

import re
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.containment.containment import is_contained
from repro.datalog.atoms import Atom, Comparison
from repro.datalog.parser import parse_query, parse_views
from repro.datalog.queries import ConjunctiveQuery, UnionQuery
from repro.datalog.terms import Constant
from repro.datalog.views import View, ViewSet
from repro.errors import UnsupportedFeatureError
from repro.rewriting.plans import RewritingKind
from repro.rewriting.rewriter import rewrite
from repro.service.fingerprint import fingerprint
from repro.service.session import RewritingSession

from tests.property.strategies import queries_with_comparisons

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
    session = RewritingSession(views, algorithm=algorithm, mode=mode)
    try:
        session.rewrite_cached(first)
        served = session.rewrite_cached(second)
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
        session = RewritingSession(generated.views)
        shapes = set()
        for text, _ in generated.reads(requests):
            query = parse_query(text)
            shape = fingerprint(query).shape
            served = session.rewrite_cached(query)
            assert session.last_cache_hit is (shape in shapes)
            shapes.add(shape)
            scratch = rewrite(query, generated.views, algorithm="minicon")
            assert_same_rewritings(served, scratch, "minicon")
            assert [str(r.query) for r in served.rewritings] == [
                str(r.query) for r in scratch.rewritings
            ]
        assert len(shapes) < requests
