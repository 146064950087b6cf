"""A small parser for datalog-style query, view and database text.

Syntax
------
* A **rule** is ``head :- subgoal, subgoal, ... .``  The trailing period is
  optional for single-rule inputs but recommended.
* A **fact** is a ground atom followed by a period, e.g. ``cites(a, b).``
* **Variables** start with an upper-case letter or underscore (``X``, ``_Y``).
* **Constants** are lower-case identifiers (``smith``), numbers (``3``,
  ``4.5``, ``-2``, ``1e-5``) or quoted strings (``'New York'`` /
  ``"New York"``).  Strings support backslash escapes: ``\\``, ``\'``,
  ``\"``, ``\n``, ``\r``, ``\t`` and ``\\uXXXX`` / ``\\UXXXXXXXX`` code
  points; any other escaped character stands for itself.
* **Comparisons** are infix: ``X < Y``, ``X != 'a'``, ``Z >= 10``.
* ``%`` and ``#`` start a comment that runs to the end of the line.

Facts load by shape
-------------------
:func:`parse_facts` cuts the skeleton of a facts text at its periods: that of
:func:`scan_literals`, with each argument's symbolic constant also stood in
by a placeholder (``e1(0, a). e1(-2, b).`` is ``e1(\\t, \\r). e1(\\t, \\r).``).
It parses each distinct piece once, and fills the rows of every piece of
that shape from the values: no token, term or atom is built per fact.
Shapes are remembered for one call, never process-wide.  A text of a few
facts, one whose pieces seldom repeat, or one the shapes cannot take whole
goes to the full parser, whose errors it raises.

Example
-------
>>> q = parse_query("q(X, Y) :- cites(X, Z), cites(Z, Y), X != Y.")
>>> q.size()
2
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ParseError
from repro.datalog.atoms import Atom, Comparison, ComparisonOperator
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Constant, Term, Variable
from repro.datalog.views import View, ViewSet


_UNSIGNED = r"\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"
_NUMBER = "-?" + _UNSIGNED
_STRING = r"""'(?:\\.|[^'\\])*'|"(?:\\.|[^"\\])*\""""

_TOKEN_RE = re.compile(
    rf"""
    (?P<ws>\s+)
  | (?P<comment>[%\#][^\n]*)
  | (?P<implies>:-|<-)
  | (?P<op><=|>=|!=|=|<|>)
  | (?P<lparen>\()
  | (?P<rparen>\))
  | (?P<comma>,)
  | (?P<period>\.(?!\d))
  | (?P<number>{_NUMBER})
  | (?P<string>{_STRING})
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    """,
    re.VERBOSE,
)


class _Token:
    __slots__ = ("kind", "text", "position")

    def __init__(self, kind: str, text: str, position: int):
        self.kind = kind
        self.text = text
        self.position = position

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"_Token({self.kind}, {self.text!r}, {self.position})"


def _tokenize(text: str) -> List[_Token]:
    tokens: List[_Token] = []
    position = 0
    length = len(text)
    while position < length:
        match = _TOKEN_RE.match(text, position)
        if match is None:
            raise ParseError(
                f"unexpected character {text[position]!r}", text=text, position=position
            )
        kind = match.lastgroup
        assert kind is not None
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, match.group(), position))
        position = match.end()
    return tokens


#: One-character escape sequences (the inverse of the printer's escaping).
_SIMPLE_ESCAPES = {"n": "\n", "r": "\r", "t": "\t"}


def _unescape_string(body: str, text: str, position: int) -> str:
    """Resolve backslash escapes in a quoted string's interior.

    ``\\uXXXX`` and ``\\UXXXXXXXX`` name code points; ``\\n``/``\\r``/``\\t``
    are the usual controls; any other escaped character stands for itself
    (which covers ``\\\\``, ``\\'`` and ``\\"``).
    """
    if "\\" not in body:
        return body
    out: List[str] = []
    index = 0
    length = len(body)
    while index < length:
        char = body[index]
        if char != "\\":
            out.append(char)
            index += 1
            continue
        # The token regex only matches a backslash followed by another
        # character, so body[index + 1] exists.
        escape = body[index + 1]
        if escape in _SIMPLE_ESCAPES:
            out.append(_SIMPLE_ESCAPES[escape])
            index += 2
        elif escape in ("u", "U"):
            digits = 4 if escape == "u" else 8
            hex_part = body[index + 2 : index + 2 + digits]
            try:
                code = int(hex_part, 16)
                out.append(chr(code))
            except (ValueError, OverflowError):
                raise ParseError(
                    f"invalid \\{escape} escape in string literal",
                    text=text,
                    position=position,
                )
            if len(hex_part) != digits:
                raise ParseError(
                    f"\\{escape} escape needs {digits} hex digits",
                    text=text,
                    position=position,
                )
            index += 2 + digits
        else:
            out.append(escape)
            index += 2
    return "".join(out)


def _number(text: str) -> Union[int, float]:
    return float(text) if "." in text or "e" in text or "E" in text else int(text)


#: What :func:`scan_literals` blanks or collapses: a run of whitespace and
#: comments, a number token, a string token.  Everything else is verbatim, so
#: a number may not start inside an identifier (``X2``), nor with the ``-`` of
#: an ``:-`` / ``<-`` -- the two places where the token grammar above, which
#: tries its alternatives at every position in turn, would not try one.
_SCAN_RE = re.compile(
    rf"(?:\s+|[%\#][^\n]*)+|(?<![A-Za-z0-9_])((?:(?<![:<])-)?{_UNSIGNED})|({_STRING})"
)


def scan_literals(text: str) -> Optional[Tuple[str, Tuple[Union[int, float, str], ...]]]:
    """A query text's *skeleton* and the values of its literals, in one pass.

    The skeleton is the text with every number token replaced by a tab, every
    string token by a newline and every run of whitespace and comments by one
    space; identifiers -- variables and lower-case symbolic constants alike --
    and punctuation stay as written.  Two texts of one skeleton are the same
    token sequence up to the values of their literals (no token contains
    whitespace, so the three marks cannot be confused with anything kept),
    hence parse to the same tree up to those values, or fail alike.  Returns
    None when a string's escapes are malformed (the parser words the error).
    """
    parts = _SCAN_RE.split(text)  # kept, number | None, string | None, kept, ...
    values: List[Union[int, float, str]] = []
    try:
        for index in range(1, len(parts), 3):
            number, string = parts[index], parts[index + 1]
            parts[index + 1] = ""
            if number is not None:
                values.append(_number(number))
                parts[index] = "\t"
            elif string is not None:
                values.append(_unescape_string(string[1:-1], text, 0))
                parts[index] = "\n"
            else:
                parts[index] = " "
    except ParseError:
        return None
    return "".join(parts).strip(" "), tuple(values)


class _Parser:
    """Recursive-descent parser over the token stream."""

    def __init__(self, text: str):
        self.text = text
        self.tokens = _tokenize(text)
        self.index = 0

    # -- token stream helpers ------------------------------------------------
    def _peek(self) -> Optional[_Token]:
        if self.index < len(self.tokens):
            return self.tokens[self.index]
        return None

    def _next(self) -> _Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input", text=self.text, position=len(self.text))
        self.index += 1
        return token

    def _expect(self, kind: str) -> _Token:
        token = self._next()
        if token.kind != kind:
            raise ParseError(
                f"expected {kind}, found {token.text!r}", text=self.text, position=token.position
            )
        return token

    def _accept(self, kind: str) -> Optional[_Token]:
        token = self._peek()
        if token is not None and token.kind == kind:
            self.index += 1
            return token
        return None

    def at_end(self) -> bool:
        return self.index >= len(self.tokens)

    # -- grammar ---------------------------------------------------------------
    def parse_term(self) -> Term:
        token = self._next()
        if token.kind == "number":
            return Constant(_number(token.text))
        if token.kind == "string":
            return Constant(
                _unescape_string(token.text[1:-1], self.text, token.position)
            )
        if token.kind == "ident":
            name = token.text
            if name[0].isupper() or name[0] == "_":
                return Variable(name)
            return Constant(name)
        raise ParseError(
            f"expected a term, found {token.text!r}", text=self.text, position=token.position
        )

    def parse_atom(self) -> Atom:
        ident = self._expect("ident")
        if ident.text[0].isupper():
            raise ParseError(
                f"predicate names must start with a lower-case letter: {ident.text!r}",
                text=self.text,
                position=ident.position,
            )
        self._expect("lparen")
        args: List[Term] = []
        if self._accept("rparen") is None:
            args.append(self.parse_term())
            while self._accept("comma") is not None:
                args.append(self.parse_term())
            self._expect("rparen")
        return Atom(ident.text, args)

    def parse_literal(self) -> Union[Atom, Comparison]:
        # A literal is an atom when an identifier is followed by '(';
        # otherwise it must be a comparison between two terms.
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input", text=self.text, position=len(self.text))
        if token.kind == "ident":
            following = (
                self.tokens[self.index + 1] if self.index + 1 < len(self.tokens) else None
            )
            if following is not None and following.kind == "lparen":
                return self.parse_atom()
        left = self.parse_term()
        op_token = self._expect("op")
        right = self.parse_term()
        return Comparison(left, ComparisonOperator.from_symbol(op_token.text), right)

    def parse_rule(self) -> ConjunctiveQuery:
        head = self.parse_atom()
        body: List[Atom] = []
        comparisons: List[Comparison] = []
        if self._accept("implies") is not None:
            literal = self.parse_literal()
            self._add_literal(literal, body, comparisons)
            while self._accept("comma") is not None:
                literal = self.parse_literal()
                self._add_literal(literal, body, comparisons)
        self._accept("period")
        return ConjunctiveQuery(head, body, comparisons)

    @staticmethod
    def _add_literal(
        literal: Union[Atom, Comparison], body: List[Atom], comparisons: List[Comparison]
    ) -> None:
        if isinstance(literal, Atom):
            body.append(literal)
        else:
            comparisons.append(literal)

    def parse_fact(self) -> Atom:
        atom = self.parse_atom()
        self._accept("period")
        if not atom.is_ground():
            raise ParseError(
                f"facts must be ground, found variables in {atom}", text=self.text
            )
        return atom


def parse_atom(text: str) -> Atom:
    """Parse a single atom, e.g. ``"cites(X, 'smith')"``."""
    parser = _Parser(text)
    atom = parser.parse_atom()
    parser._accept("period")
    if not parser.at_end():
        token = parser._peek()
        assert token is not None
        raise ParseError("trailing input after atom", text=text, position=token.position)
    return atom


def parse_query(text: str) -> ConjunctiveQuery:
    """Parse a single conjunctive query rule."""
    parser = _Parser(text)
    query = parser.parse_rule()
    if not parser.at_end():
        token = parser._peek()
        assert token is not None
        raise ParseError(
            "trailing input after query (use parse_program for multiple rules)",
            text=text,
            position=token.position,
        )
    return query


def parse_program(text: str) -> List[ConjunctiveQuery]:
    """Parse a sequence of rules (one or more)."""
    parser = _Parser(text)
    rules: List[ConjunctiveQuery] = []
    while not parser.at_end():
        rules.append(parser.parse_rule())
    if not rules:
        raise ParseError("empty program", text=text)
    return rules


def parse_view(text: str, name: Optional[str] = None) -> View:
    """Parse a single view definition.

    The view name defaults to the head predicate of the rule.
    """
    query = parse_query(text)
    return View(name or query.name, query)


def parse_views(text: str) -> ViewSet:
    """Parse several view definitions, one rule each."""
    return ViewSet([View(q.name, q) for q in parse_program(text)])


def _parse_facts(text: str) -> List[Atom]:
    """Every fact of ``text`` through the full parser."""
    parser = _Parser(text)
    facts: List[Atom] = []
    while not parser.at_end():
        facts.append(parser.parse_fact())
    return facts


#: An argument's symbolic constant in a skeleton, or (``_VALUE_RE``) a placeholder.
_SYMBOL = r"([(,] ?)([a-z][A-Za-z0-9_]*)(?= ?[,)])"
_SYMBOL_RE = re.compile(_SYMBOL)
_VALUE_RE = re.compile(rf"([\t\n])|{_SYMBOL}")


def _lift_symbols(skeleton: str, values: Tuple[Any, ...]) -> Tuple[str, Tuple[Any, ...]]:
    """The skeleton with each argument's symbolic constant stood in by a
    carriage return (never kept: whitespace), and every value in text order."""
    literals, lifted = iter(values), []

    def stand_in(match: "re.Match[str]") -> str:
        if match.group(1):
            lifted.append(next(literals))
            return match.group(1)
        lifted.append(match.group(3))
        return match.group(2) + "\r"

    return _VALUE_RE.sub(stand_in, skeleton), tuple(lifted)


def _shape(piece: str) -> Optional[List[Tuple[str, int]]]:
    """The facts of a skeleton piece as ``(predicate, arity)`` pairs, whose
    arguments read its values in order (after lifting, every argument is a
    placeholder); None unless it parses to facts."""
    try:
        atoms = _parse_facts(re.sub("[\t\n\r]", "''", piece))
    except ParseError:
        return None
    return [(atom.predicate, len(atom.args)) for atom in atoms] or None


def parse_facts(text: str) -> List[Tuple[str, Tuple[Any, ...]]]:
    """The ground facts of ``text`` as ``(predicate, values)`` pairs, in text
    order, loaded by shape (see the module docstring).  A text of a few facts
    (fewer than 8 periods) parses faster whole."""
    scanned = scan_literals(text) if text.count(".") >= 8 else None
    if scanned is not None:
        skeleton, values = scanned
        if _SYMBOL_RE.search(skeleton):
            skeleton, values = _lift_symbols(skeleton, values)
        *pieces, last = skeleton.split(".")
        pieces += [last] if last.strip(" ") else []
        shapes: Dict[str, Any] = {}
        facts: List[Tuple[str, Tuple[Any, ...]]] = []
        at = 0
        for piece in pieces:
            shape = shapes.get(piece)
            if shape is None:
                if len(shapes) > 16 + len(facts) // 2:  # pieces seldom repeat: parse whole
                    break
                shape = shapes[piece] = _shape(piece)
                if shape is None:
                    break
            for predicate, arity in shape:
                facts.append((predicate, values[at : at + arity]))
                at += arity
        else:
            return facts
    return [(atom.predicate, tuple(t.value for t in atom.args)) for atom in _parse_facts(text)]


def parse_database(text: str) -> List[Atom]:
    """Parse a list of ground facts, e.g. ``"cites(a,b). cites(b,c)."``."""
    return [Atom(predicate, map(Constant, row)) for predicate, row in parse_facts(text)]
