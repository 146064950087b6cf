"""The memory-only serve path leaves storage, batch and the experiments unloaded.

A server restarted without ``--storage`` answers no query before its modules
are loaded, so what ``repro serve`` imports is part of its time to a first
reply.  One fresh interpreter builds ``serve``'s engine through
:mod:`repro.cli`, answers a query, and reports which of the modules that path
never calls were loaded; then it runs the verbs that do call them, which must
work as before.  (The rewriting algorithms load with :mod:`repro.rewriting`,
served or not.)
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

NOT_ON_THE_SERVE_PATH = [
    "repro.storage",
    "sqlite3",
    "repro.experiments",
    "repro.workloads",
    "repro.service.batch",
]

SCRIPT = """
import io, json, sys
from repro.cli import _engine_for, build_parser, main

views = "v_rs(A, B) :- r(A, C), s(C, B).  v_s(A, B) :- s(A, B)."
facts = "r(1, 2). r(2, 3). s(2, 5). s(3, 'x')."
query = "q(X, Z) :- r(X, Y), s(Y, Z), X != 9."
args = build_parser().parse_args(["serve", "--views", views, "--database", facts])
engine = _engine_for(args)
rows = sorted(engine.query(query).answers().rows, key=repr)
loaded = [name for name in json.loads(sys.argv[1]) if name in sys.modules]

import repro
from repro.rewriting import BucketRewriter, certain_answers, choose_best_plan
bucket = repro.connect(views=views, data=facts, algorithm="bucket").query(query).answers()
durable = repro.connect(views=views, data=facts, storage=sys.argv[2])
batch = engine.batch([query])
listing = io.StringIO()
main(["experiments"], out=listing)
print(json.dumps({
    "rows": rows,
    "loaded": loaded,
    "names": [BucketRewriter.__name__, certain_answers.__name__, choose_best_plan.__name__],
    "bucket_rows": sorted(bucket.rows, key=repr),
    "durable_rows": sorted(durable.query(query).answers().rows, key=repr),
    "batch": [batch.requests, batch.errors],
    "experiments": listing.getvalue().split()[0],
}))
durable.close()
"""


def test_the_memory_only_serve_path_leaves_the_other_modules_unloaded(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # Development mode, every warning an error: imports inside the verbs and
    # generated kernels warn about nothing.
    result = subprocess.run(
        [
            sys.executable, "-X", "dev", "-W", "error", "-c", SCRIPT,
            json.dumps(NOT_ON_THE_SERVE_PATH), str(tmp_path / "state"),
        ],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    report = json.loads(result.stdout)
    assert report["rows"] == [[1, 5], [2, "x"]]
    assert report["loaded"] == []
    # Loaded when a verb needs them, through the names they always had.
    assert report["names"] == ["BucketRewriter", "certain_answers", "choose_best_plan"]
    assert report["bucket_rows"] == [[1, 5], [2, "x"]]
    assert report["durable_rows"] == [[1, 5], [2, "x"]]
    assert report["batch"] == [1, 0]
    assert report["experiments"] == "E1"
