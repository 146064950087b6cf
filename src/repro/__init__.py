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

The pre-facade entry points (``rewrite``, ``evaluate``, ...) remain fully
supported; the caching ones fold into the engine — see ``docs/migration.md``:

>>> from repro import parse_query, parse_views, rewrite
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
    FunctionTerm,
    Substitution,
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
from repro.containment import (
    containment_memo_stats,
    is_contained,
    is_equivalent,
    is_satisfiable,
    minimize,
)
from repro.engine import (
    Database,
    DatalogProgram,
    estimate_cost,
    evaluate,
    evaluate_boolean,
    evaluate_program,
    materialize_views,
    measured_cost,
)
from repro.rewriting import (
    BucketRewriter,
    ExhaustiveRewriter,
    InverseRulesRewriter,
    MiniConRewriter,
    OptimizationResult,
    PlanChoice,
    Rewriting,
    RewritingKind,
    RewritingResult,
    certain_answers,
    choose_best_plan,
    enumerate_plans,
    expand_rewriting,
    is_complete_rewriting,
    is_contained_rewriting,
    maximally_contained_rewriting,
    partial_rewritings,
    rewrite,
    view_is_relevant,
    view_is_usable,
    view_is_useful,
)
from repro.exec import CompiledExecutor
from repro.materialize import (
    ChangeLog,
    Delta,
    MaterializedViewStore,
    ViewChange,
    parse_delta,
)
from repro.service import (
    BatchReport,
    LRUCache,
    QueryFingerprint,
    ViewRelevanceIndex,
    fingerprint,
)
from repro.api import (
    Answer,
    Catalog,
    Engine,
    Explanation,
    PreparedQuery,
    connect,
)
from repro.storage import StorageManager, WriteAheadLog

__version__ = "1.1.0"

__all__ = [
    "Answer",
    "Atom",
    "BatchReport",
    "BucketRewriter",
    "Catalog",
    "ChangeLog",
    "Comparison",
    "ComparisonOperator",
    "CompiledExecutor",
    "ConjunctiveQuery",
    "Constant",
    "ConstraintViolationError",
    "Database",
    "Engine",
    "DatalogProgram",
    "Delta",
    "EvaluationError",
    "ExhaustiveRewriter",
    "Explanation",
    "FunctionTerm",
    "InverseRulesRewriter",
    "LRUCache",
    "MaterializationError",
    "MaterializedViewStore",
    "MiniConRewriter",
    "OptimizationResult",
    "ParseError",
    "PlanChoice",
    "PreparedQuery",
    "QueryConstructionError",
    "QueryFingerprint",
    "ReproError",
    "Rewriting",
    "RewritingError",
    "RewritingKind",
    "RewritingResult",
    "SchemaError",
    "SnapshotError",
    "StorageError",
    "StorageManager",
    "Substitution",
    "UnionQuery",
    "UnsafeQueryError",
    "UnsupportedFeatureError",
    "Variable",
    "View",
    "ViewChange",
    "ViewRelevanceIndex",
    "ViewSet",
    "WalCorruptionError",
    "WriteAheadLog",
    "certain_answers",
    "choose_best_plan",
    "connect",
    "containment_memo_stats",
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
]
