"""Physical plans: set-at-a-time pipelines over whole relations.

A :class:`PhysicalPlan` is a straight-line pipeline compiled from one
conjunctive query (see :mod:`repro.exec.compile`), or a *witness plan*:

``seed row () → HashJoinStep* → projection``

Each :class:`HashJoinStep` extends every in-flight row with the matching
tuples of one relation, probing the relation's incrementally-maintained hash
index (:meth:`repro.engine.relation.Relation.index_on`) on the step's key
positions.  Constants, parameters and already-bound join variables all
contribute to the index key, so the first step degenerates to an (indexed)
scan and later steps are hash joins whose *build side is the relation index
itself* — built once, maintained across deltas, and shared by every plan
(and every disjunct of a union rewriting) that joins on the same positions.

**Index-key scans.**  An opening step with no key and no repeated variable
that reads (keeps or filters on) only a strict subset of its relation's
columns walks the keys of the relation's index on those columns instead of
its rows (:attr:`HashJoinStep.scan_keys`): ``q(X) :- v(X, Y)`` touches each
distinct ``X`` once, however many rows carry it.  :meth:`Relation.discard`
drops a bucket that empties, so the keys are exactly the live projections.
A step that keeps every scanned column and filters nothing emits the keys as
they stand — they are distinct already, so no set is built.

**Kernels.**  A step does not interpret its description row by row: at
construction it generates one Python function for exactly its shape (text on
``step.kernel.source``) — one ``for row in rows``, one index lookup, one ``for
r in bucket`` over the relation's own row tuples, equalities and ``=``/``!=``
filters inlined, order comparisons as calls to the operator's
:meth:`~repro.datalog.atoms.ComparisonOperator.evaluate`, the
output row a tuple display of the columns that stay live.  The text is
assembled from integers the compiler computed (positions, slot and parameter
indexes) and nothing else: constants, operators and names reach the function
through its globals or arguments.  The head projection is generated likewise.

**Parameters.**  A value source is a row slot, a literal, or an index into
the ``params`` tuple the plan is bound to (:meth:`PhysicalPlan.bind`), so one
plan serves every query of its shape (the executor lifts constants before
compiling).  Kernels look relations and indexes up by name on every run: a
plan stays *correct* across any change to the data; only its order goes stale.

Rows are plain tuples whose layout is **per step**: the compiler knows which
variables the head, later subgoals and later comparisons still read after
each step, and a step emits only those (its ``keep`` positions).  A step that
drops a column deduplicates as it emits — so existential variables stop
multiplying rows at the step that last uses them — and a subgoal none of
whose new variables survive is a semi-join that never enumerates its bucket.

**Witness plans.**  When one subgoal holds the head, the plan may open on
``index_on(head positions)`` of it, keeping each key's bucket, and run the
rest of the body as one generated limit-1 kernel: for each key, the
bucket's rows until one has a witness, through nested loops over the tail's
index probes that ``break`` at the first match, with one memo dict per level
keyed on what it and later levels read from before it — each connecting
binding is searched at most once per execution, and only head rows are
built.  Its steps only describe the levels (slots number every level's new
variables): ``scan v/2 keys[0] (head)``, ``semi_join w/2 on w[0]=slot 1
limit 1``.

Plans return exactly the interpreter's answer *sets* and raise the same
:class:`~repro.errors.EvaluationError` s (arity mismatches always raise; an
unbound head variable raises only when at least one row reaches projection).
The :class:`~repro.engine.evaluate.EvaluationStatistics` counters measure
this pipeline's own work, which early projection makes smaller than the
interpreter's assignment counts: ``probes`` = index entries touched (a
semi-join touches one per surviving row, not the bucket; an index-key scan
one per key, not per row), ``extensions`` = rows a step emits after its own
dedup, ``answers`` = rows reaching projection.  A witness plan's ``probes``
are the opening rows tried plus the tail entries memo misses enumerate (at
most the opening's rows plus the tail buckets touched), its ``extensions``
and ``answers`` the head keys that have a witness.
"""

from __future__ import annotations

import copy
import linecache
from collections import Counter
from functools import lru_cache
from typing import Any, Collection, Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.errors import EvaluationError
from repro.datalog.atoms import ComparisonOperator
from repro.datalog.queries import ConjunctiveQuery
from repro.datalog.terms import Variable
from repro.engine.database import Database
from repro.engine.evaluate import EvaluationStatistics, order_subgoals
from repro.engine.relation import Relation

#: A value source in a compiled row: ``(True, slot_index)`` reads the current
#: row, ``(False, constant_value)`` is a literal, ``(None, index)`` reads the
#: parameters the plan is bound to.
Source = Tuple[Optional[bool], Any]

#: One comparison subgoal: operator and the two sides' sources.
Filter = Tuple[ComparisonOperator, Source, Source]

Row = Tuple[Any, ...]

@lru_cache(maxsize=1024)
def _code(source: str) -> Any:
    """Compile a kernel's text, once per distinct text.

    A text names no constant, predicate or operator, so the steps of many
    plans share a few dozen of them and ``compile`` — most of what a kernel
    costs to build — runs for the first only.  The text is registered with
    :mod:`linecache`, so a traceback through a kernel shows the failing line.
    """
    filename = f"<repro.exec kernel {hash(source) & 0xFFFFFFFFFFFF:012x}>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    return compile(source, filename, "exec")


class _Kernel:
    """A function generated as Python source, and the text it came from.

    ``namespace`` holds every object the text names (literals and operators).
    """

    __slots__ = ("source", "namespace", "function")

    def __init__(self, source: str, namespace: Dict[str, Any]):
        self.source = source
        self.namespace = namespace
        scope = dict(namespace)
        exec(_code(source), scope)
        self.function = scope["kernel"]


def _literal(namespace: Dict[str, Any], value: Any) -> str:
    """Bind ``value`` in a kernel's namespace; the name that reads it."""
    name = f"k{len(namespace):d}"
    namespace[name] = value
    return name


def _comparison(namespace: Dict[str, Any], op: ComparisonOperator, a: str, b: str) -> str:
    """The expression testing ``a op b``, with the interpreter's semantics:
    an order operator goes through :meth:`ComparisonOperator.evaluate`,
    which holds for no pair of incomparable values, and for (dis)equality
    the plain Python operator is the whole semantics."""
    if op is ComparisonOperator.EQ:
        return f"{a} == {b}"
    if op is ComparisonOperator.NE:
        return f"{a} != {b}"
    return f"{_literal(namespace, op)}.evaluate({a}, {b})"


class HashJoinStep:
    """Join every in-flight row with the matching tuples of one relation.

    The step probes ``relation.index_on(key_positions)`` with a key assembled
    from literals, parameters and input-row slots (``key_sources``, aligned
    with ``key_positions``).  With no key positions the step is a scan (first
    step) or a cartesian product (disconnected subgoal).  ``eq_pairs`` are
    within-atom equality checks between positions carrying the same new
    variable; ``new_positions`` carry the newly-bound variables in
    first-occurrence order, and ``filters`` address the *full* row — the
    ``width`` input columns followed by one column per new position.

    ``keep`` lists the full-row positions still needed after this step (by
    the head, a later subgoal or a later comparison) — the step's output
    layout.  When no new column survives and there are no ``eq_pairs`` the
    step is a semi-join (:attr:`exists`): it keeps an input row iff some
    match passes the filters, and without filters never looks inside the
    bucket.  A step that drops a column it enumerated emits a **set**
    (:attr:`distinct`): duplicates can only arise where a column is dropped,
    so every row collection in the pipeline stays duplicate-free and steps
    that drop nothing stay append loops.  ``rehashed`` says the consumer
    hashes every row again (a head projection that is not the identity), so
    a set built here would only be hashed twice.  All of this, and
    :attr:`scan_keys`, is fixed at construction, when the step's
    :attr:`kernel` is generated.
    """

    __slots__ = (
        "predicate",
        "arity",
        "key_positions",
        "key_sources",
        "eq_pairs",
        "new_positions",
        "filters",
        "width",
        "keep",
        "distinct",
        "exists",
        "scan_keys",
        "witness",
        "kernel",
    )

    def __init__(
        self,
        predicate: str,
        arity: int,
        key_positions: Tuple[int, ...],
        key_sources: Tuple[Source, ...],
        eq_pairs: Tuple[Tuple[int, int], ...],
        new_positions: Tuple[int, ...],
        filters: Tuple[Filter, ...],
        width: int,
        keep: Tuple[int, ...],
        rehashed: bool = False,
        scan_keys: Optional[Tuple[int, ...]] = None,
        witness: bool = False,
    ):
        self.predicate = predicate
        self.arity = arity
        self.key_positions = key_positions
        self.key_sources = key_sources
        self.eq_pairs = eq_pairs
        self.new_positions = new_positions
        self.filters = filters
        self.width = width
        self.keep = keep
        self.witness = witness  # a level of a witness plan: no kernel of its own
        self.exists = witness or not eq_pairs and all(k < width for k in keep)
        #: The columns an index-key scan reads (see the module docstring).
        self.scan_keys: Tuple[int, ...] = scan_keys or ()
        if scan_keys is None and not width and not key_positions and not eq_pairs:
            read = set(keep)  # with no input and no key, slot k is column k
            read.update(v for _op, *sides in filters for kind, v in sides if kind)
            if 0 < len(read) < arity:
                self.scan_keys = tuple(sorted(read))
        # A semi-join never enumerates its new columns, so only a dropped
        # input column can make two of its output rows equal.
        enumerated = width if self.exists else width + len(self.scan_keys or new_positions)
        self.distinct = len(keep) < enumerated and not rehashed and not witness
        self.kernel: Optional[_Kernel] = None if witness else self._generate()

    def operator(self, first: bool) -> str:
        """The step's name in explain output (``first``: it opens the pipeline)."""
        if first:
            return "scan"
        if self.exists:
            return "semi_join"
        return "hash_join" if self.key_positions else "product"

    def _generate(self) -> _Kernel:
        """``kernel(rows, matches, p) -> (out, probes)`` for this step's shape.

        ``matches`` is the index's ``get`` for a keyed step and, for a scan or
        product, the one bucket every row meets: the relation itself, whose
        ``r`` is one of its own row tuples, or for an index-key scan the index
        on :attr:`scan_keys`, whose ``r`` is one of its key tuples.
        """
        namespace: Dict[str, Any] = {}
        params: set = set()
        width = self.width
        # Where each new column of the full row sits in ``r``.
        if self.scan_keys:  # a key tuple holds the scanned columns only
            at = {slot: i for i, slot in enumerate(self.scan_keys)}
        else:
            at = {width + k: position for k, position in enumerate(self.new_positions)}

        def value(source: Source) -> str:
            kind, v = source
            if kind:  # a column of the full row: input slots, then new columns
                return f"row[{v:d}]" if v < width else f"r[{at[v]:d}]"
            if kind is None:
                params.add(v)
                return f"p{v:d}"
            return _literal(namespace, v)

        tests = [f"r[{a:d}] == r[{b:d}]" for a, b in self.eq_pairs]
        tests += [
            _comparison(namespace, op, value(left), value(right))
            for op, left, right in self.filters
        ]
        kept = [value((True, k)) for k in self.keep]
        if self.keep == tuple(range(width)):
            emitted = "row"
        elif not width and len(kept) == len(self.scan_keys or range(self.arity)):
            emitted = "r"  # every column of r, in order
        else:
            emitted = "(" + "".join(cell + ", " for cell in kept) + ")"
        key = "".join(value(source) + ", " for source in self.key_sources)

        body: List[str] = []
        if self.exists and not tests:
            body += ["probes += 1", f"emit({emitted})"]
        elif self.exists:  # one passing match decides
            body += [
                "for r in bucket:",
                "    probes += 1",
                f"    if {' and '.join(tests)}:",
                f"        emit({emitted})",
                "        break",
            ]
        else:
            body += ["probes += len(bucket)"]
            if tests:
                body += ["for r in bucket:", f"    if {' and '.join(tests)}:"]
                body += [f"        emit({emitted})"]
            elif emitted == "r":  # the bucket's own tuples, distinct already
                body += ["out.extend(bucket)"]
            else:
                body += ["for r in bucket:", f"    emit({emitted})"]
        if self.key_positions:
            body = [f"bucket = get(({key}))", "if bucket:"] + ["    " + line for line in body]
        lines = [f"def kernel(rows, {'get' if self.key_positions else 'bucket'}, p):"]
        lines += [f"    p{index:d} = p[{index:d}]" for index in sorted(params)]
        lines += [
            "    out = set()" if self.distinct else "    out = []",
            "    emit = out.add" if self.distinct else "    emit = out.append",
            "    probes = 0",
            "    for row in rows:",
        ]
        lines += ["        " + line for line in body]
        lines += ["    return out, probes", ""]
        return _Kernel("\n".join(lines), namespace)

    def relation(self, database: Database) -> Optional[Relation]:
        """The relation this step reads, or None when it has no rows."""
        relation = database.relation(self.predicate)
        if relation is None or len(relation) == 0:
            return None
        if relation.arity != self.arity:
            raise EvaluationError(
                f"subgoal {self.predicate} has arity {self.arity} but relation "
                f"{relation.name} has arity {relation.arity}"
            )
        return relation

    def run(
        self,
        database: Database,
        rows: Collection[Row],
        stats: EvaluationStatistics,
        params: Row = (),
    ) -> Collection[Row]:
        relation = self.relation(database)
        if relation is None:
            return []
        if self.key_positions:
            matches = relation.index_on(self.key_positions).get
        else:
            matches = relation.index_on(self.scan_keys) if self.scan_keys else relation
        out, probes = self.kernel.function(rows, matches, params)
        stats.probes += probes
        stats.extensions += len(out)
        return out


def _indent(lines: List[str]) -> List[str]:
    return ["    " + line for line in lines]


def _witness_kernel(steps: Sequence[HashJoinStep]) -> _Kernel:
    """``kernel(pairs, g, p) -> (out, probes)`` over the opening's ``(head key,
    bucket)`` pairs and the tail levels' ``get`` (relation, if unkeyed): level
    ``j`` reads row ``rj`` and sets ``fj`` (the tail from ``j`` on has a match)
    once per value ``cj`` of what it and later levels read (memo ``mj``)."""
    namespace: Dict[str, Any] = {}
    params: set = set()
    where = {
        step.width + k: f"r{level:d}[{position:d}]"
        for level, step in enumerate(steps)
        for k, position in enumerate(step.new_positions)
    }

    def value(source: Source) -> str:
        kind, v = source
        if kind:
            return where[v]
        if kind is None:
            params.add(v)
            return f"p{v:d}"
        return _literal(namespace, v)

    def passing(level: int, lines: List[str]) -> List[str]:
        """``lines`` under the tests of level ``level``'s row."""
        step = steps[level]
        tests = [f"r{level:d}[{a:d}] == r{level:d}[{b:d}]" for a, b in step.eq_pairs]
        if not level:  # the opening's constants and parameters are tests too
            tests += [f"r0[{p:d}] == {value(v)}" for p, v in zip(step.key_positions, step.key_sources)]
        tests += [_comparison(namespace, op, value(a), value(b)) for op, a, b in step.filters]
        return [f"if {' and '.join(tests)}:"] + _indent(lines) if tests else lines

    read: set = set()
    lines: List[str] = []
    for level in range(len(steps) - 1, 0, -1):  # innermost level first
        step = steps[level]
        read.update(v for kind, v in step.key_sources if kind)
        read.update(v for _op, *sides in step.filters for kind, v in sides if kind)
        cells = [where[v] for v in sorted(read) if v < step.width]
        connecting = cells[0] if len(cells) == 1 else "(" + "".join(c + ", " for c in cells) + ")"
        key = "".join(value(source) + ", " for source in step.key_sources)
        bucket = f"g{level:d}(({key})) or ()" if key else f"g{level:d}"
        found = [f"f{level:d} = True", "break"]
        if lines:
            found = lines + [f"if f{level + 1:d}:"] + _indent(found)
        lines = [
            f"c{level:d} = {connecting}",
            f"f{level:d} = m{level:d}.get(c{level:d})",
            f"if f{level:d} is None:",
            f"    f{level:d} = False",
            f"    for r{level:d} in {bucket}:",
            *_indent(_indent(["probes += 1"] + passing(level, found))),
            f"    m{level:d}[c{level:d}] = f{level:d}",
        ]
    body = ["probes += 1"] + passing(0, lines + ["if f1:", "    emit(key)", "    break"])
    levels = range(1, len(steps))
    source = ["def kernel(pairs, g, p):"] + _indent(
        [f"p{index:d} = p[{index:d}]" for index in sorted(params)]
        + ["".join(f"g{level:d}, " for level in levels) + "= g"]
        + [f"m{level:d} = {{}}" for level in levels]
        + ["out = []", "emit = out.append", "probes = 0", "for key, bucket in pairs:"]
        + _indent(["for r0 in bucket:"] + _indent(body))
        + ["return out, probes"]
    )
    return _Kernel("\n".join(source) + "\n", namespace)


def derivation_counts(query: ConjunctiveQuery, database: Database) -> Counter:
    """Head row -> number of satisfying assignments of ``query``'s body, the
    interpreter's counts, by one generated loop nest: a level per subgoal in
    the interpreter's order, probing the indexes it would (constants and
    earlier-bound variables), so it builds no other.  A comparison is tested
    at the first level binding its variables (one the body never binds
    holds); the innermost level counts.  A missing or empty relation yields
    nothing, and one of another arity raises when reached."""
    counts: Counter = Counter()
    body = query.body
    relations = [database.relation(atom.predicate) for atom in body]
    if not all(relations):
        return counts
    namespace: Dict[str, Any] = {}
    where: Dict[Variable, str] = {}  # each variable's first binding
    pending = list(query.comparisons)
    sources: List[Any] = []

    def value(term: Any) -> str:
        if isinstance(term, Variable):  # an unbound head variable raises KeyError
            return where.get(term) or f"{_literal(namespace, {})}[{_literal(namespace, term)}]"
        return _literal(namespace, term.value)

    lines = ["def kernel(g, counts):", "    get = counts.get"]
    indent = "    "
    for level, index in enumerate(order_subgoals(body, lambda i: len(relations[i]))):
        atom, relation = body[index], relations[index]
        if relation.arity != len(atom.args):
            error = EvaluationError(
                f"subgoal {atom} has arity {len(atom.args)} but relation "
                f"{relation.name} has arity {relation.arity}"
            )
            lines.append(f"{indent}raise {_literal(namespace, error)}")
            break
        earlier = set(where)
        positions, key, tests = [], [], []
        for position, term in enumerate(atom.args):
            cell = f"r{level:d}[{position:d}]"
            if isinstance(term, Variable) and term not in earlier:
                if term in where:  # repeated within the subgoal
                    tests.append(f"{cell} == {where[term]}")
                else:
                    where[term] = cell
            else:
                positions.append(position)
                key.append(value(term) + ", ")
        ready = [c for c in pending if all(v in where for v in c.variables())]
        pending = [c for c in pending if c not in ready]
        tests += [_comparison(namespace, c.op, value(c.left), value(c.right)) for c in ready]
        if positions:
            sources.append(relation.index_on(positions).get)
            lines.append(f"{indent}for r{level:d} in g[{level:d}](({''.join(key)}), ()):")
        else:
            sources.append(relation)
            lines.append(f"{indent}for r{level:d} in g[{level:d}]:")
        indent += "    "
        if tests:
            lines.append(f"{indent}if {' and '.join(tests)}:")
            indent += "    "
    else:
        row = "".join(value(term) + ", " for term in query.head.args)
        lines += [f"{indent}row = ({row})", f"{indent}counts[row] = get(row, 0) + 1"]
    _Kernel("\n".join(lines) + "\n", namespace).function(tuple(sources), counts)
    return counts


class PhysicalPlan:
    """A compiled pipeline for one conjunctive query, bound to parameter values."""

    __slots__ = (
        "query_name",
        "steps",
        "projection",
        "unbound_head_terms",
        "checks",
        "params",
        "always_empty",
        "_project",
        "_witness",
    )

    def __init__(
        self,
        query_name: str,
        steps: Sequence[HashJoinStep],
        projection: Tuple[Source, ...],
        unbound_head_terms: Tuple[str, ...] = (),
        checks: Tuple[Filter, ...] = (),
        params: Row = (),
        witness: bool = False,
    ):
        self.query_name = query_name
        self.steps = tuple(steps)
        #: Head sources over the last step's output layout.
        self.projection = projection
        #: Head terms not bound by the body; evaluation raises if any
        #: assignment reaches projection (mirroring the interpreter).
        self.unbound_head_terms = unbound_head_terms
        #: The ground comparisons (literals and parameters only): decided once
        #: per binding, not per row.
        self.checks = checks
        # None when the last step's layout already is the head: its rows are
        # the answers, and a set of them is not hashed a second time.
        self._project: Optional[_Kernel] = None
        width = len(self.steps[-1].keep) if self.steps else 0
        if projection != tuple((True, k) for k in range(width)):
            namespace: Dict[str, Any] = {}
            cells = "".join(
                (f"row[{v:d}]" if is_slot else _literal(namespace, v)) + ", "
                for is_slot, v in projection
            )
            self._project = _Kernel(
                f"def kernel(rows):\n    return frozenset([({cells}) for row in rows])\n",
                namespace,
            )
        #: The one kernel that runs a witness plan's levels (None: a pipeline).
        self._witness = _witness_kernel(self.steps) if witness else None
        self._bind(params)

    def _bind(self, params: Row) -> None:
        def value(source: Source) -> Any:
            kind, v = source
            return v if kind is False else params[v]

        self.params = params
        #: True when a ground comparison is false: the plan returns no rows.
        self.always_empty = not all(
            op.evaluate(value(left), value(right)) for op, left, right in self.checks
        )

    def bind(self, params: Row) -> "PhysicalPlan":
        """This pipeline over other parameter values (steps and kernels shared)."""
        bound = copy.copy(self)
        bound._bind(params)
        return bound

    def execute(
        self, database: Database, statistics: Optional[EvaluationStatistics] = None
    ) -> FrozenSet[Row]:
        stats = statistics if statistics is not None else EvaluationStatistics()
        if self.always_empty:
            return frozenset()
        stats.subgoals += len(self.steps)
        if self._witness is not None:
            return self.project_rows(self._witness_rows(database, stats), stats)
        rows = self.run_steps(database, [()], stats)
        return self.project_rows(rows, stats)

    def _witness_rows(self, database: Database, stats: EvaluationStatistics) -> List[Row]:
        """The opening's head keys that have a witness in the tail."""
        relations = []
        for step in self.steps:
            relations.append(step.relation(database))
            if relations[-1] is None:  # no key can have a witness
                return []
        (opening, *tail), (first, *rest) = self.steps, relations
        keys = opening.scan_keys
        if len(keys) == opening.arity:  # each row is its own key
            pairs: Any = ((row, (row,)) for row in first)
        else:
            pairs = first.index_on(keys).items() if keys else [((), first)]
        gets = [r.index_on(s.key_positions).get if s.key_positions else r for s, r in zip(tail, rest)]
        assert self._witness is not None
        out, probes = self._witness.function(pairs, gets, self.params)
        stats.probes += probes
        stats.extensions += len(out)
        return out

    def run_steps(
        self,
        database: Database,
        rows: Collection[Row],
        stats: EvaluationStatistics,
    ) -> Collection[Row]:
        """Run the pipeline steps over duplicate-free seed rows.

        Returns the surviving rows (possibly empty).
        """
        for step in self.steps:
            rows = step.run(database, rows, stats, self.params)
            if not rows:
                return []
        return rows

    def project_rows(
        self, rows: Collection[Row], stats: EvaluationStatistics
    ) -> FrozenSet[Row]:
        """Project and deduplicate surviving rows into the answer set.

        Mirrors the interpreter's semantics: an unbound head variable raises
        only when at least one assignment reaches projection (an empty row
        list short-circuits to the empty answer set first — except for the
        body-less ground-head query, whose seed row always survives).
        """
        if not rows:
            return frozenset()
        if self.unbound_head_terms:
            raise EvaluationError(
                f"head term {self.unbound_head_terms[0]} of query "
                f"{self.query_name} is not bound by the body"
            )
        stats.answers += len(rows)
        if self._project is None:
            return frozenset(rows)
        return self._project.function(rows)

    def explain(self) -> str:
        """A human-readable rendering of the pipeline (for tests and debugging)."""
        lines = [f"plan for {self.query_name}:"]
        if self.always_empty:
            lines.append("  <always empty: a ground comparison is false>")
        for index, step in enumerate(self.steps):
            key = ", ".join(
                f"{step.predicate}[{p}]="
                + (f"slot {v}" if kind else repr(v if kind is False else self.params[v]))
                for p, (kind, v) in zip(step.key_positions, step.key_sources)
            )
            scanned = ""
            if step.scan_keys or step.witness and not index:
                scanned = f" keys{list(step.scan_keys)}" + (" (head)" if step.witness else "")
            extras = []
            if step.eq_pairs:
                extras.append(f"eq={list(step.eq_pairs)}")
            if step.filters:
                extras.append(f"filters={len(step.filters)}")
            if not step.witness:
                extras.append(f"keep={len(step.keep)}" + (" distinct" if step.distinct else ""))
            elif index:
                extras.append("limit 1")
            lines.append(
                f"  {index}: {step.operator(first=index == 0)} {step.predicate}/{step.arity}"
                + scanned
                + (f" on {key}" if key else "")
                + "".join(" " + extra for extra in extras)
            )
        lines.append(f"  project -> {len(self.projection)} columns")
        return "\n".join(lines)
