"""Physical plans: set-at-a-time pipelines over whole relations.

A :class:`PhysicalPlan` is a straight-line pipeline compiled from one
conjunctive query (see :mod:`repro.exec.compile`):

``seed row () → HashJoinStep* → projection``

Each :class:`HashJoinStep` extends every in-flight row with the matching
tuples of one relation, probing the relation's incrementally-maintained hash
index (:meth:`repro.engine.relation.Relation.index_on`) on the step's key
positions.  Constants and already-bound join variables both contribute to the
index key, so the first step degenerates to an (indexed) scan and later steps
are hash joins whose *build side is the relation index itself* — built once,
maintained across deltas, and shared by every plan (and every disjunct of a
union rewriting) that joins on the same positions.

Relations store their data columnar (per-position arrays addressed by slot;
see :mod:`repro.engine.relation`), and index buckets map row tuples to slots.
Probe and scan therefore read **column slices**: a step fetches only the
columns carrying its newly-bound variables (plus any within-atom equality
columns) and extends rows via slot lookups into those arrays — matched rows
are never materialized as whole tuples on the probe path.

Rows are plain tuples whose layout is **per step**: the compiler knows which
variables the head, later subgoals and later comparisons still read after
each step, and a step emits only those (its ``keep`` positions).  A step that
drops a column deduplicates as it emits — so existential variables stop
multiplying rows at the step that last uses them — and a subgoal none of
whose new variables survive is a semi-join that never enumerates its bucket.
The per-row work in the inner loop is tuple indexing and concatenation — no
per-binding dictionaries, no term matching, no recursion.  Comparison
subgoals are compiled to closures and applied at the earliest step where
both sides are bound.

Plans return exactly the interpreter's answer *sets* and raise the same
:class:`~repro.errors.EvaluationError` s (arity mismatches always raise; an
unbound head variable raises only when at least one row reaches projection).
The :class:`~repro.engine.evaluate.EvaluationStatistics` counters measure
this pipeline's own work, which early projection makes smaller than the
interpreter's assignment counts: ``probes`` = index entries touched (a
semi-join touches one per surviving row, not the bucket), ``extensions`` =
rows a step emits after its own dedup, ``answers`` = rows reaching
projection.
"""

from __future__ import annotations

from operator import itemgetter
from typing import (
    Any,
    Callable,
    Collection,
    FrozenSet,
    Iterator,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import EvaluationError
from repro.datalog.atoms import ComparisonOperator
from repro.engine.database import Database
from repro.engine.evaluate import EvaluationStatistics
from repro.engine.relation import SkolemValue

#: A value source in a compiled row: ``(True, slot_index)`` reads the current
#: row, ``(False, constant_value)`` is a literal.
Source = Tuple[bool, Any]

Row = Tuple[Any, ...]
RowFilter = Callable[[Row], bool]

_ORDER_OPS = frozenset(("<", "<=", ">", ">="))


def compare_values(op: ComparisonOperator, left: Any, right: Any) -> bool:
    """Comparison semantics shared with the interpreter.

    Skolem values (unknown witnesses) are only comparable by (dis)equality;
    an order comparison involving one is never satisfied.
    """
    if isinstance(left, SkolemValue) or isinstance(right, SkolemValue):
        if op.value in _ORDER_OPS:
            return False
    return op.evaluate(left, right)


def make_comparison_filter(
    op: ComparisonOperator, left: Source, right: Source
) -> RowFilter:
    """Compile one comparison subgoal into a row predicate.

    ``=`` / ``!=`` compile to direct closures: :func:`compare_values` guards
    only the order operators (Skolem operands, incomparable types), so for
    (dis)equality the plain Python operator is the whole semantics.
    """
    left_is_slot, a = left
    right_is_slot, b = right
    if not left_is_slot and not right_is_slot:
        verdict = compare_values(op, a, b)
        return lambda row: verdict
    if op is ComparisonOperator.EQ or op is ComparisonOperator.NE:
        if not left_is_slot:  # symmetric operators: put the slot on the left
            left_is_slot, a, right_is_slot, b = True, b, False, a
        if op is ComparisonOperator.NE:
            if right_is_slot:
                return lambda row: row[a] != row[b]
            return lambda row: row[a] != b
        if right_is_slot:
            return lambda row: row[a] == row[b]
        return lambda row: row[a] == b
    if left_is_slot and right_is_slot:
        return lambda row: compare_values(op, row[a], row[b])
    if left_is_slot:
        return lambda row: compare_values(op, row[a], b)
    return lambda row: compare_values(op, a, row[b])


def _picker(positions: Tuple[int, ...]) -> Callable[[Row], Row]:
    """A row → tuple-of-``positions`` function (``itemgetter`` that always
    returns a tuple)."""
    if not positions:
        return lambda row: ()
    if len(positions) == 1:
        position = positions[0]
        return lambda row: (row[position],)
    return itemgetter(*positions)


class HashJoinStep:
    """Join every in-flight row with the matching tuples of one relation.

    The step probes ``relation.index_on(key_positions)`` with a key assembled
    from constants and input-row slots (``key_sources``, aligned with
    ``key_positions``).  With no key positions the step is a scan (first
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
    that drop nothing stay append loops.  (The plan clears the flag on a last
    step whose rows the head projection hashes anyway.)
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
    )

    def __init__(
        self,
        predicate: str,
        arity: int,
        key_positions: Tuple[int, ...],
        key_sources: Tuple[Source, ...],
        eq_pairs: Tuple[Tuple[int, int], ...],
        new_positions: Tuple[int, ...],
        filters: Tuple[RowFilter, ...],
        width: int,
        keep: Tuple[int, ...],
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
        self.exists = not eq_pairs and all(k < width for k in keep)
        # A semi-join never enumerates its new columns, so only a dropped
        # input column can make two of its output rows equal.
        enumerated = width if self.exists else width + len(new_positions)
        self.distinct = len(keep) < enumerated

    def operator(self, first: bool) -> str:
        """The step's name in explain output (``first``: it opens the pipeline)."""
        if first:
            return "scan"
        if self.exists:
            return "semi_join"
        return "hash_join" if self.key_positions else "product"

    def _matches(self, relation: Any, rows: Collection[Row]) -> Iterator[Tuple[Row, Any]]:
        """Each input row that has matches, with the slots of its matches."""
        if not self.key_positions:
            # Scan (first step) or cartesian product (disconnected subgoal):
            # every row meets every live slot.
            slots = list(relation.slots())
            for row in rows:
                yield row, slots
            return
        get = relation.index_on(self.key_positions).get
        sources = self.key_sources
        if len(sources) == 1 and sources[0][0]:
            # The common chain/star join: one bound slot is the whole key.
            slot = sources[0][1]
            for row in rows:
                bucket = get((row[slot],))
                if bucket:
                    yield row, bucket.values()
        else:
            for row in rows:
                bucket = get(tuple(row[v] if is_slot else v for is_slot, v in sources))
                if bucket:
                    yield row, bucket.values()

    def run(
        self, database: Database, rows: Collection[Row], stats: EvaluationStatistics
    ) -> Collection[Row]:
        relation = database.relation(self.predicate)
        if relation is None or len(relation) == 0:
            return []
        if relation.arity != self.arity:
            raise EvaluationError(
                f"subgoal {self.predicate} has arity {self.arity} but relation "
                f"{relation.name} has arity {relation.arity}"
            )
        eq_pairs = self.eq_pairs
        filters = self.filters
        keep = self.keep
        width = self.width
        out: Any = set() if self.distinct else []
        emit = out.add if self.distinct else out.append
        probes = 0
        # Column slices: only the arrays this step actually reads.  Matched
        # rows are addressed by slot (bucket values / live slots); their full
        # tuples are never rebuilt on the probe path.
        columns = relation.columns()
        new_columns = tuple(columns[p] for p in self.new_positions)
        check = (
            None if not filters
            else filters[0] if len(filters) == 1
            else lambda row: all(f(row) for f in filters)
        )
        matched = self._matches(relation, rows)

        if self.exists:
            # Semi-join: no new column survives, so one passing match decides.
            pick = _picker(keep) if len(keep) < width else None
            for row, matches in matched:
                if check is None:
                    probes += 1
                else:
                    for match_slot in matches:
                        probes += 1
                        if check(row + tuple(c[match_slot] for c in new_columns)):
                            break
                    else:
                        continue
                emit(row if pick is None else pick(row))
        elif check is None and not eq_pairs:
            # Nothing to re-check per match: project the input row once, then
            # append only the new columns that stay live.
            pick = None
            if len(keep) < width + len(new_columns):
                pick = _picker(tuple(k for k in keep if k < width))
                new_columns = tuple(new_columns[k - width] for k in keep if k >= width)
            column = new_columns[0] if len(new_columns) == 1 else None
            for row, matches in matched:
                probes += len(matches)
                base = row if pick is None else pick(row)
                if column is not None:
                    for match_slot in matches:
                        emit(base + (column[match_slot],))
                else:
                    for match_slot in matches:
                        emit(base + tuple(c[match_slot] for c in new_columns))
        else:
            pick = _picker(keep) if len(keep) < width + len(new_columns) else None
            for row, matches in matched:
                probes += len(matches)
                for match_slot in matches:
                    if eq_pairs and any(
                        columns[a][match_slot] != columns[b][match_slot]
                        for a, b in eq_pairs
                    ):
                        continue
                    new_row = row + tuple(c[match_slot] for c in new_columns)
                    if check is not None and not check(new_row):
                        continue
                    emit(new_row if pick is None else pick(new_row))
        stats.probes += probes
        stats.extensions += len(out)
        return out


class PhysicalPlan:
    """A compiled pipeline for one conjunctive query."""

    __slots__ = (
        "query_name",
        "steps",
        "projection",
        "unbound_head_terms",
        "always_empty",
        "_project",
    )

    def __init__(
        self,
        query_name: str,
        steps: Sequence[HashJoinStep],
        projection: Tuple[Source, ...],
        unbound_head_terms: Tuple[str, ...] = (),
        always_empty: bool = False,
    ):
        self.query_name = query_name
        self.steps = tuple(steps)
        #: Head sources over the last step's output layout.
        self.projection = projection
        #: Head terms not bound by the body; evaluation raises if any
        #: assignment reaches projection (mirroring the interpreter).
        self.unbound_head_terms = unbound_head_terms
        #: True when a ground comparison is false: the plan returns no rows.
        self.always_empty = always_empty
        # None when the last step's layout already is the head: its rows are
        # the answers, and a set of them is not hashed a second time.
        self._project: Optional[Callable[[Row], Row]]
        width = len(self.steps[-1].keep) if self.steps else 0
        if projection == tuple((True, k) for k in range(width)):
            self._project = None
        elif all(is_slot for is_slot, _value in projection):
            self._project = _picker(tuple(value for _is_slot, value in projection))
        else:
            self._project = lambda row: tuple(
                row[v] if is_slot else v for is_slot, v in projection
            )
        if self._project is not None and self.steps:
            # Projecting hashes every row anyway: a set built by the last
            # step would be hashed twice.
            self.steps[-1].distinct = False

    def execute(
        self, database: Database, statistics: Optional[EvaluationStatistics] = None
    ) -> FrozenSet[Row]:
        stats = statistics if statistics is not None else EvaluationStatistics()
        stats.subgoals += len(self.steps)
        if self.always_empty:
            return frozenset()
        rows = self.run_steps(database, [()], stats)
        return self.project_rows(rows, stats)

    def run_steps(
        self,
        database: Database,
        rows: Collection[Row],
        stats: EvaluationStatistics,
        start: int = 0,
    ) -> Collection[Row]:
        """Run the pipeline steps from ``start`` over duplicate-free seed rows.

        The parallel executor uses ``start`` to replay only the tail of the
        pipeline inside a worker, over one partition of the first step's
        output.  Returns the surviving rows (possibly empty).
        """
        for step in self.steps[start:]:
            rows = step.run(database, rows, stats)
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
        return frozenset(map(self._project, rows))

    def explain(self) -> str:
        """A human-readable rendering of the pipeline (for tests and debugging)."""
        lines = [f"plan for {self.query_name}:"]
        if self.always_empty:
            lines.append("  <always empty: a ground comparison is false>")
        for index, step in enumerate(self.steps):
            key = ", ".join(
                f"{step.predicate}[{p}]={'slot ' + str(v) if is_slot else repr(v)}"
                for p, (is_slot, v) in zip(step.key_positions, step.key_sources)
            )
            extras = []
            if step.eq_pairs:
                extras.append(f"eq={list(step.eq_pairs)}")
            if step.filters:
                extras.append(f"filters={len(step.filters)}")
            extras.append(f"keep={len(step.keep)}" + (" distinct" if step.distinct else ""))
            lines.append(
                f"  {index}: {step.operator(first=index == 0)} {step.predicate}/{step.arity}"
                + (f" on {key}" if key else "")
                + " "
                + " ".join(extras)
            )
        lines.append(f"  project -> {len(self.projection)} columns")
        return "\n".join(lines)
