"""repro.api — the connection-style facade over the whole library.

One call opens an engine; a handful of verbs cover the paper's lifecycle::

    import repro

    engine = repro.connect(
        views='''
            v_rs(A, B) :- r(A, C), s(C, B).
            v_s(A, B) :- s(A, B).
        ''',
        data="r(1, 2). s(2, 3).",
    )
    answer = engine.query("q(X, Z) :- r(X, Y), s(Y, Z).").answers()
    sorted(answer)                       # [(1, 3)]
    answer.provenance.source             # 'views'

The pieces:

* :func:`connect` — validate a :class:`Catalog` (schema + views + integrity
  constraints) once, attach data, return an :class:`Engine`;
* :class:`Engine` — ``query() / apply() / batch() / stats() / check()``;
* :class:`PreparedQuery` — ``answers() / rewrite() / explain() / certain()``;
* :class:`Answer` / :class:`Explanation` — typed results carrying provenance
  and a JSON-serializable decision tree (schema:
  ``docs/explanation.schema.json``); the dataclasses they are built from
  (``Provenance``, ``PlanStep``, ...) live in :mod:`repro.api.results`.

The engine is the one object that caches.  The algorithms it composes are
imported from their own packages (:func:`repro.rewriting.rewrite`,
:func:`repro.engine.evaluate`, ...); ``docs/migration.md`` maps each
one-shot call to the engine verb that replaces it.
"""

from repro.api.catalog import Catalog
from repro.api.engine import Engine, PreparedQuery, connect
from repro.api.results import Answer, Explanation

__all__ = ["Answer", "Catalog", "Engine", "Explanation", "PreparedQuery", "connect"]
