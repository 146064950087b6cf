"""The benchmark's own smoke test: one ``--smoke --trace`` run of everything.

Checks the harness, not the numbers: every workload reports every metric
``BENCHMARK.json`` declares, nothing failed, the oracle agreed everywhere
(also after each SIGKILL recovery), and the span trees are well formed.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
CONTRACT = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def test_e2e_smoke(tmp_path):
    out = tmp_path / "smoke.json"
    trace = tmp_path / "trace.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "1", "--seed", "11",
         "--out", str(out), "--trace-file", str(trace)],
        capture_output=True, text=True, timeout=170,
    )
    assert done.returncode == 0, done.stdout[-3000:] + done.stderr[-3000:]
    document = json.loads(out.read_text())
    host = document["fingerprint"]["host"]
    assert host["usable_cores"] >= 1 and host["python"]

    runs = {run["workload"]: run for run in document["runs"]}
    assert sorted(runs) == sorted(w["name"] for w in CONTRACT["workloads"])
    for section, key in (("per_layer", "metrics"), ("end_to_end", "end_to_end_of_traced_run")):
        declared = {m["name"]: m["unit"] for m in CONTRACT[section]}
        assert all(NAME.match(name) for name in declared)
        for name, run in runs.items():
            got = run[key]
            assert sorted(got) == sorted(declared), (name, section)
            for metric, entry in got.items():
                assert entry["unit"] == declared[metric]
                assert entry["value"] == entry["value"], (name, metric)  # not NaN

    for name, run in runs.items():
        assert run["correct"], (name, run["problems"])
        assert run["failed"] == 0 and run["attempted"] > 0
        assert run["oracle_checks"] > 0 and run["oracle_mismatches"] == 0
        assert all(phase["failed"] == 0 for phase in run["phases"].values())
    # The write path is exercised everywhere, the crash path where it is durable.
    assert all(run["phases"]["paced"]["reads"] > 0 for run in runs.values())
    assert runs["churn_mixed"]["phases"]["paced"]["writes"] > 0
    assert runs["churn_mixed"]["samples"]["recovery_s"] >= 2

    traces = json.loads(trace.read_text())["traces"]
    assert [t["workload"] for t in traces] == [run["workload"] for run in document["runs"]]
    for traced in traces:
        _check_spans(traced["spans"])


def _check_spans(spans):
    by_id = {span["id"]: span for span in spans}
    assert len(by_id) == len(spans) > 0
    names = {span["name"] for span in spans}
    assert {"request", "api.answers", "layers", "datalog.parse", "exec.execute",
            "storage.wal_append", "materialize.maintain"} <= names
    for span in spans:
        assert span["end"] >= span["start"]
        if span["parent"] is None:
            assert span["name"] in ("request", "layers")
        else:
            parent = by_id[span["parent"]]
            assert parent["request_id"] == span["request_id"]
            assert parent["start"] <= span["start"] and span["end"] <= parent["end"]
