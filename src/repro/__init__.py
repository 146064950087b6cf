"""repro — Answering Queries Using Views (PODS 1995).

A library for rewriting conjunctive queries using materialized views:
containment and equivalence testing, complete and maximally-contained
rewritings (exhaustive / bucket / MiniCon / inverse-rules algorithms),
certain-answer computation, and an in-memory relational engine for verifying
and costing the plans.

Quickstart
----------
The front door is :func:`repro.connect`: one call validates the catalog
(schema + views + constraints), attaches data, and returns an engine whose
verbs cover the whole lifecycle:

>>> import repro
>>> engine = repro.connect(
...     views="v_smith(S1) :- enrolled(S1, C1), taught_by(C1, 'smith').",
...     data="enrolled('ana', 'db'). taught_by('db', 'smith').",
... )
>>> answer = engine.query("q(S) :- enrolled(S, C), taught_by(C, 'smith').").answers()
>>> sorted(answer)
[('ana',)]
>>> answer.provenance.source
'views'

This package exports what a ``connect`` caller needs: the engine and its
results, the parsers, the query model, :class:`Delta` and the errors.  Each
of the paper's algorithms has one home in its sub-package —
:mod:`repro.rewriting`, :mod:`repro.containment`, :mod:`repro.engine` —
and is imported from there (``docs/migration.md`` lists every name's home):

>>> from repro import parse_query, parse_views
>>> from repro.rewriting import rewrite
>>> query = parse_query("q(S) :- enrolled(S, C), taught_by(C, 'smith').")
>>> views = parse_views(
...     "v_smith(S1) :- enrolled(S1, C1), taught_by(C1, 'smith')."
... )
>>> result = rewrite(query, views, algorithm="minicon")
>>> result.has_equivalent
True
"""

from repro.errors import (
    ConstraintViolationError,
    EvaluationError,
    MaterializationError,
    ParseError,
    QueryConstructionError,
    ReproError,
    RewritingError,
    SchemaError,
    SnapshotError,
    StorageError,
    UnsafeQueryError,
    UnsupportedFeatureError,
    WalCorruptionError,
)
from repro.datalog import (
    Atom,
    Comparison,
    ComparisonOperator,
    ConjunctiveQuery,
    Constant,
    UnionQuery,
    Variable,
    View,
    ViewSet,
    parse_atom,
    parse_database,
    parse_program,
    parse_query,
    parse_view,
    parse_views,
    to_datalog,
)
from repro.materialize import Delta, parse_delta
from repro.api import Answer, Engine, Explanation, PreparedQuery, connect

__version__ = "2.0.0"

__all__ = [
    "Answer",
    "Atom",
    "Comparison",
    "ComparisonOperator",
    "ConjunctiveQuery",
    "Constant",
    "ConstraintViolationError",
    "Delta",
    "Engine",
    "EvaluationError",
    "Explanation",
    "MaterializationError",
    "ParseError",
    "PreparedQuery",
    "QueryConstructionError",
    "ReproError",
    "RewritingError",
    "SchemaError",
    "SnapshotError",
    "StorageError",
    "UnionQuery",
    "UnsafeQueryError",
    "UnsupportedFeatureError",
    "Variable",
    "View",
    "ViewSet",
    "WalCorruptionError",
    "connect",
    "parse_atom",
    "parse_database",
    "parse_delta",
    "parse_program",
    "parse_query",
    "parse_view",
    "parse_views",
    "to_datalog",
    "__version__",
]
