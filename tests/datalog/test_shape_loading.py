"""Facts load by shape: the same rows, and the same errors, as the full parser.

:func:`repro.datalog.parser.parse_facts` parses each distinct skeleton piece
of a facts text once and fills the rows of the others from the literal
values.  Every text is also run through the full parser (``_parse_facts``,
token by token); the two must agree on each row -- value types included, so
``1``, ``1.0`` and ``'1'`` stay apart -- and on each error, type and message
alike.  The error messages of the malformed cases are pinned as the token
parser words them.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import pytest

from repro.errors import ParseError, ReproError, SchemaError
from repro.api.engine import as_database
from repro.datalog import parser
from repro.datalog.parser import _parse_facts, _shape as shape, parse_database, parse_facts
from repro.engine.database import Database
from repro.materialize.delta import parse_delta

RELAXED = settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])

ESCAPES = ["\\\\", "\\'", '\\"', "\\n", "\\r", "\\t", "\\u00e9", "\\U0001F600", "\\q", "\\%"]
identifiers = st.from_regex(r"[a-z][a-z0-9_]{0,4}", fullmatch=True)
integers = st.integers(min_value=-10**6, max_value=10**6).map(str)
floats = st.builds(
    lambda sign, whole, fraction, exponent: f"{sign}{whole}{fraction}{exponent}",
    st.sampled_from(["", "-"]),
    st.integers(min_value=0, max_value=999),
    st.sampled_from(["", ".0", ".5", ".125"]),
    st.sampled_from(["e3", "E-2", "e+7", "e0"]),
)
string_bodies = st.lists(
    st.one_of(st.sampled_from(ESCAPES), st.text(alphabet="ab %#.,()-1 é", min_size=1, max_size=3)),
    max_size=4,
).map("".join)
strings = st.builds(lambda body, quote: f"{quote}{body}{quote}", string_bodies, st.sampled_from("'\""))
shapes = st.tuples(
    st.sampled_from(["r", "s", "edge", "e1"]),
    st.sampled_from([", ", ",", " , "]),
    st.lists(st.sampled_from([integers, floats, strings, identifiers]), max_size=3),
)


@st.composite
def fact_texts(draw) -> str:
    """Facts of a few shapes, with comments, line breaks or nothing between
    them, and an optional final period."""
    pool = draw(st.lists(shapes, min_size=1, max_size=4))
    separators = st.sampled_from([".\n", ". ", ".", ". % a note\n", ".\n# 'quoted' . (\n", " .\n", " "])
    text = ""
    for _ in range(draw(st.integers(0, 24))):
        predicate, comma, kinds = draw(st.sampled_from(pool))
        text += f"{predicate}({comma.join(draw(kind) for kind in kinds)})" + draw(separators)
    return text + draw(st.sampled_from(["", "r(1)", "r(1).", "% trailing"]))


def typed(row):
    """A row whose values keep their types and spellings: ``1``, ``1.0`` and
    ``True`` differ, and so do ``0.0`` and ``-0.0``."""
    return tuple((type(value), value, repr(value)) for value in row)


def outcome(load, text):
    """What ``load(text)`` returns, or the error it raises."""
    try:
        return "ok", load(text)
    except ReproError as error:
        return type(error).__name__, str(error)


def shape_rows(text):
    return [(predicate, typed(row)) for predicate, row in parse_facts(text)]


def full_facts(text):
    return [(atom.predicate, tuple(term.value for term in atom.args)) for atom in _parse_facts(text)]


def full_rows(text):
    return [(atom.predicate, typed(term.value for term in atom.args)) for atom in _parse_facts(text)]


def atoms(parse):
    return lambda text: [(atom.predicate, typed(t.value for t in atom.args)) for atom in parse(text)]


def unsigned_zeros(row):
    """A sort key blind to the sign of zero, as row equality is."""
    return repr([(kind, value + 0.0 if kind is float else value) for kind, value, _ in row])


def relations(database):
    return {
        name: sorted(map(typed, database.tuples(name)), key=unsigned_zeros)
        for name in database.relation_names()
    }


def full_database(text):
    return relations(Database.from_atoms(_parse_facts(text)))


def shape_database(text):
    return relations(as_database(text))


class TestDifferential:
    @RELAXED
    @given(text=fact_texts())
    def test_rows_equal_the_full_parsers(self, text):
        assert outcome(shape_rows, text) == outcome(full_rows, text)
        assert outcome(atoms(parse_database), text) == outcome(atoms(_parse_facts), text)
        assert outcome(shape_database, text) == outcome(full_database, text)

    @RELAXED
    @given(
        text=fact_texts(),
        position=st.integers(min_value=0, max_value=200),
        char=st.sampled_from(list("X.(),'\"\\%#-1 e_")),
        replace=st.booleans(),
    )
    def test_a_damaged_text_fails_as_the_full_parser_does(self, text, position, char, replace):
        position = min(position, len(text))
        damaged = text[:position] + char + text[position + replace:]
        assert outcome(shape_rows, damaged) == outcome(full_rows, damaged)
        assert outcome(shape_database, damaged) == outcome(full_database, damaged)

    def test_symbolic_constants_and_several_facts_in_a_piece(self):
        text = "r(1, a). r(2, a) s() t(b, 3, 'x'). r(3, b)." * 2
        assert parse_facts(text) == [
            ("r", (1, "a")), ("r", (2, "a")), ("s", ()), ("t", ("b", 3, "x")), ("r", (3, "b"))
        ] * 2

    def test_symbolic_constants_share_a_shape(self, monkeypatch):
        parsed = []
        monkeypatch.setattr(parser, "_shape", lambda piece: parsed.append(piece) or shape(piece))
        text = " ".join(f"cites(a{i}, b{i % 7}). cites(c, '{i}')." for i in range(20))
        assert parse_facts(text) == full_facts(text)
        # The first piece is the only one without a leading space.
        assert parsed == ["cites(\r, \r)", " cites(\r, \n)", " cites(\r, \r)"]

    def test_a_text_whose_pieces_seldom_repeat_parses_whole(self, monkeypatch):
        parsed = []
        monkeypatch.setattr(parser, "_shape", lambda piece: parsed.append(piece) or shape(piece))
        text = " ".join(f"p{i}(a, {i})." for i in range(60))
        assert parse_facts(text) == full_facts(text)
        # It gives up once its shapes outnumber 16 plus half its facts.
        assert len(parsed) == 33

    def test_a_negative_zero_leaves_other_zeros_alone(self):
        parse_database("s(-0.0).")
        assert repr(parse_database("r(0e3).")[0].args[0].value) == "0.0"
        assert [repr(value) for (value,) in as_database("p(0.0).").tuples("p")] == ["0.0"]

    @pytest.mark.parametrize("reader", ["parse_database", "as_database", "parse_delta"])
    @pytest.mark.parametrize("first, then", [("-0.0", "0e3"), ("0.0", "-0e0")])
    def test_each_reader_keeps_the_sign_of_a_later_zero(self, reader, first, then):
        read = {
            "parse_database": lambda text: parse_database(f"r({text}).")[0].args[0].value,
            "as_database": lambda text: next(iter(as_database(f"r({text}).").tuples("r")))[0],
            "parse_delta": lambda text: next(iter(parse_delta(f"+ r({text}).").inserted["r"]))[0],
        }[reader]
        assert repr(read(first)) == repr(float(first))
        assert repr(read(then)) == repr(float(then))

    def test_a_text_of_a_few_facts_parses_whole(self, monkeypatch):
        monkeypatch.setattr(parser, "_shape", None)
        assert parse_facts("r(1). r(2) s(a). s(b, 'x').") == [
            ("r", (1,)), ("r", (2,)), ("s", ("a",)), ("s", ("b", "x"))
        ]


MALFORMED = [
    ("r(X).", ParseError, "facts must be ground, found variables in r(X)"),
    ('r("\\u12").', ParseError, "\\u escape needs 4 hex digits (line 1, column 3)"),
    ('r("\\uzzzz").', ParseError, "invalid \\u escape in string literal (line 1, column 3)"),
    ("r(1)..", ParseError, "expected ident, found '.' (line 1, column 6)"),
    ("r(1).5", ParseError, "unexpected character '.' (line 1, column 5)"),
]


class TestMalformed:
    @pytest.mark.parametrize("text, error, message", MALFORMED)
    def test_every_loader_raises_the_full_parsers_error(self, text, error, message):
        for load in (parse_facts, parse_database, as_database, lambda t: parse_delta("+ " + t)):
            with pytest.raises(error) as raised:
                load(text)
            assert str(raised.value) == message

    def test_facts_need_no_period_between_them(self):
        assert parse_facts("r(1) r(2).") == [("r", (1,)), ("r", (2,))]
        assert as_database("r(1) r(2).").tuples("r") == {(1,), (2,)}

    def test_an_arity_clash_is_the_databases_error(self):
        assert parse_facts("r(1). r(1,2).") == [("r", (1,)), ("r", (1, 2))]
        with pytest.raises(SchemaError, match=r"^relation r has arity 1, got tuple of length 2$"):
            as_database("r(1). r(1,2).")
        with pytest.raises(SchemaError, match=r"mixed arities \[1, 2\]"):
            parse_delta("+ r(1). r(1,2).")


class TestParseDelta:
    def test_lines_fold_in_order(self):
        assert parse_delta("+ r(1).\n- r(1).").removed_rows("r") == {(1,)}
        assert parse_delta("- r(1).\n+ r(1).").inserted_rows("r") == {(1,)}

    def test_one_line_may_hold_several_facts(self):
        delta = parse_delta("+ r(1). r(2) r('x').\n- s(-1.5e3, a).")
        assert delta.inserted_rows("r") == {(1,), (2,), ("x",)}
        assert delta.removed_rows("s") == {(-1500.0, "a")}
