"""Index-key scans: an opening step that reads a strict subset of its
relation's columns walks the keys of the index on them, not the rows.

The compiled answers must stay the interpreter's through deltas that empty a
key's bucket (the plan and the index both outlive the delta), the shapes the
scan does not cover must keep reading rows, and the probe counter must show
one probe per key.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.datalog.parser import parse_query
from repro.engine.database import Database
from repro.engine.evaluate import EvaluationStatistics, evaluate
from repro.exec import CompiledExecutor
from repro.materialize.delta import Delta

#: Projecting shapes over ``t/3`` and ``b/2``: each opens with an index-key scan.
KEY_SCANS = (
    "q(X) :- t(X, Y, Z).",
    "q(Z, X) :- t(X, Y, Z).",
    "q(X) :- t(X, Y, Z), Z > 3.",
    "q(X) :- t(X, Y, Z), X != Z.",
    "q() :- t(X, Y, Z), Y > 5.",
    "q(Y) :- b(X, Y).",
)

#: Joins whose opening step may be either kind, depending on the data.
JOINS = (
    "q(X, W) :- t(X, Y, Z), b(X, W).",
    "q(X) :- t(X, Y, Z), b(Y, W).",
    "q(W) :- b(X, W), t(X, Y, Z), Z < 4.",
)

#: Shapes whose opening step must read rows.
ROW_SCANS = (
    "q(X) :- b(X, X).",  # a repeated variable
    "q(X) :- b(X, Y), Y > 3.",  # a filter on a dropped column: every column read
    "q(X, Y, Z) :- t(X, Y, Z).",  # every column kept
    "q(X) :- t(X, 2, Z).",  # a constant is a key
)


def opening(query_text, database):
    return CompiledExecutor().plan_for(parse_query(query_text), database).steps[0]


def small_database(rng, rows=40, domain=8):
    database = Database()
    database.ensure_relation("t", 3)
    database.ensure_relation("b", 2)
    for _ in range(rows):
        database.add_fact("t", tuple(rng.randrange(domain) for _ in range(3)))
        database.add_fact("b", (rng.randrange(domain), rng.randrange(domain)))
    return database


class TestWhichStepsScanKeys:
    def test_projections_scan_keys(self):
        database = small_database(random.Random(1))
        for text in KEY_SCANS:
            assert opening(text, database).scan_keys, text

    def test_other_shapes_read_rows(self):
        database = small_database(random.Random(1))
        for text in ROW_SCANS:
            assert opening(text, database).scan_keys == (), text

    def test_scanned_columns_are_the_kept_and_filtered_ones(self):
        database = small_database(random.Random(1))
        assert opening("q(X) :- t(X, Y, Z).", database).scan_keys == (0,)
        assert opening("q(Z, X) :- t(X, Y, Z).", database).scan_keys == (0, 2)
        assert opening("q(X) :- t(X, Y, Z), Z > 3.", database).scan_keys == (0, 2)

    def test_unfiltered_scan_emits_the_keys_without_a_set(self):
        step = opening("q(X) :- t(X, Y, Z).", small_database(random.Random(1)))
        assert not step.distinct and "out.extend(bucket)" in step.kernel.source
        filtered = opening("q(X) :- t(X, Y, Z), Z > 3.", small_database(random.Random(1)))
        assert filtered.distinct and "out = set()" in filtered.kernel.source

    def test_explain_names_the_scanned_columns(self):
        executor = CompiledExecutor()
        database = small_database(random.Random(1))
        text = executor.plan_for(parse_query("q(Z, X) :- t(X, Y, Z)."), database).explain()
        assert "0: scan t/3 keys[0, 2] keep=2" in text
        rows = executor.plan_for(parse_query("q(X, Y, Z) :- t(X, Y, Z)."), database).explain()
        assert "keys" not in rows


class TestProbesCountKeys:
    def test_one_probe_per_key_not_per_row(self):
        database = Database.from_dict({"t": [(i % 5, i, -i) for i in range(60)]})
        executor = CompiledExecutor()
        stats = EvaluationStatistics()
        answers = executor.evaluate(parse_query("q(X) :- t(X, Y, Z)."), database, stats)
        relation = database.relation("t")
        assert answers == {(i,) for i in range(5)}
        assert stats.probes == len(relation.index_on((0,))) == 5 < len(relation)

    def test_a_row_scan_still_counts_rows(self):
        database = Database.from_dict({"t": [(i % 5, i, -i) for i in range(60)]})
        stats = EvaluationStatistics()
        CompiledExecutor().evaluate(parse_query("q(X, Y, Z) :- t(X, Y, Z)."), database, stats)
        assert stats.probes == 60


class TestAgreementThroughDeltas:
    def test_emptied_bucket_leaves_the_answer(self):
        database = Database.from_dict({"t": [(1, 1, 1), (1, 2, 2), (2, 3, 3)]})
        executor = CompiledExecutor()
        query = parse_query("q(X) :- t(X, Y, Z).")
        assert executor.evaluate(query, database) == {(1,), (2,)}
        database.apply_delta(Delta(removed={"t": {(2, 3, 3)}}))
        assert executor.evaluate(query, database) == {(1,)}
        database.apply_delta(Delta(removed={"t": {(1, 1, 1)}}))
        assert executor.evaluate(query, database) == {(1,)}  # (1, 2, 2) still carries 1
        database.apply_delta(Delta(inserted={"t": {(2, 0, 0)}}))
        assert executor.evaluate(query, database) == {(1,), (2,)}

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        text=st.sampled_from(KEY_SCANS + ROW_SCANS + JOINS),
        emptied=st.lists(st.integers(min_value=0, max_value=7), min_size=1, max_size=4),
    )
    def test_compiled_matches_the_interpreter(self, seed, text, emptied):
        """Each delta removes every row carrying one value in the first
        column (emptying that key's bucket) and inserts a few fresh rows;
        the same executor, plans and indexes serve every state."""
        rng = random.Random(seed)
        database = small_database(rng, rows=rng.randrange(1, 40))
        executor = CompiledExecutor()
        query = parse_query(text)
        for value in emptied:
            expected = evaluate(query, database, executor="interpreted")
            assert executor.evaluate(query, database) == expected
            removed = {
                name: {row for row in database.tuples(name) if row[0] == value}
                for name in ("t", "b")
            }
            inserted = {
                "t": {tuple(rng.randrange(8) for _ in range(3)) for _ in range(2)},
                "b": {(rng.randrange(8), rng.randrange(8))},
            }
            database.apply_delta(Delta(inserted=inserted, removed=removed))
        assert executor.evaluate(query, database) == evaluate(
            query, database, executor="interpreted"
        )
