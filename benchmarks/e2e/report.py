"""Metric names, host fingerprint, printing and ``--compare``.

``BENCHMARK.json`` at the repo root is the contract: it lists every metric
with its unit, direction and (for end-to-end metrics) regression bound.  This
module reads it rather than repeating it, so a metric added there without
being measured — or measured without being declared — fails the run.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from hostspeed import USABLE_CORES

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK_JSON = ROOT / "BENCHMARK.json"


def contract() -> Dict[str, Any]:
    return json.loads(BENCHMARK_JSON.read_text())


def declared(section: str) -> Dict[str, Dict[str, Any]]:
    """``end_to_end`` or ``per_layer`` metric declarations, by name."""
    return {entry["name"]: entry for entry in contract()[section]}


def metric_payload(values: Dict[str, float], section: str) -> Dict[str, Dict[str, Any]]:
    """``{name: {"value", "unit"}}`` for exactly the declared metrics."""
    wanted = declared(section)
    missing = sorted(set(wanted) - set(values))
    extra = sorted(set(values) - set(wanted))
    if missing or extra:
        raise KeyError(
            f"{section} metrics out of step with BENCHMARK.json: "
            f"missing {missing}, undeclared {extra}"
        )
    return {
        name: {"value": float(values[name]), "unit": wanted[name]["unit"]}
        for name in wanted
    }


# ---------------------------------------------------------------------------
# Host + commit fingerprint
# ---------------------------------------------------------------------------

def _git(*args: str) -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), *args],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def fingerprint(wal_policy: str) -> Dict[str, Any]:
    """Where and on what these numbers were taken."""
    status = _git("status", "--porcelain")
    return {
        "host": {
            "usable_cores": len(USABLE_CORES),
            "machine": platform.machine(),
            "platform": platform.platform(),
            "python": platform.python_version(),
            "python_build": " ".join(platform.python_build()),
            "python_compiler": platform.python_compiler(),
        },
        "wal_policy": wal_policy,
        # None outside a git checkout (the driver's copies are not one).
        "commit": _git("rev-parse", "HEAD"),
        "dirty": bool(status) if status is not None else None,
    }


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def print_report(result: Dict[str, Any], out=sys.stderr) -> None:
    """The human-readable report: every metric by name, with unit and count."""
    def emit(line: str = "") -> None:
        print(line, file=out)

    emit(f"== {result['workload']}  seed={result['seed']}  "
         f"seconds={result['seconds']}  trace={result['trace']}")
    emit(f"   sizes: {json.dumps(result['sizes'], sort_keys=True)}")
    for phase, counts in result["phases"].items():
        emit(
            f"   phase {phase:<9} attempted={counts['attempted']:<6} "
            f"succeeded={counts['succeeded']:<6} failed={counts['failed']:<3} "
            + " ".join(f"{k}={v}" for k, v in counts.items()
                       if k not in ("attempted", "succeeded", "failed"))
        )
    shown = {**result["end_to_end_of_traced_run"], **result["metrics"]}
    for name, entry in shown.items():
        count = result["samples"].get(name)
        suffix = f"  (n={count})" if count is not None else ""
        if name in result["raw"]:
            suffix += f"  [as measured: {result['raw'][name]:.4f}]"
        emit(f"   {name:<38} {entry['value']:>14.4f} {entry['unit']}{suffix}")
    for note in result["notes"]:
        emit(f"   note: {note}")
    for problem in result["problems"]:
        emit(f"   PROBLEM: {problem}")
    emit(f"   correct={result['correct']}  oracle_checks={result['oracle_checks']}  "
         f"oracle_mismatches={result['oracle_mismatches']}")


# ---------------------------------------------------------------------------
# --compare
# ---------------------------------------------------------------------------

def _quartile_spread(values: Sequence[float]) -> float:
    """(Q3 - Q1) / median, the driver's own measure of run-to-run spread."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def _collect(document: Dict[str, Any]) -> Dict[Tuple[str, str], List[float]]:
    table: Dict[Tuple[str, str], List[float]] = {}
    for run in document["runs"]:
        if run["trace"]:
            continue
        for name, entry in run["metrics"].items():
            table.setdefault((run["workload"], name), []).append(entry["value"])
    return table


def compare(path_a: str, path_b: str, force: bool, out=sys.stdout) -> int:
    """Print A vs B per (workload, end-to-end metric); 1 if any regressed."""
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    if a["fingerprint"]["host"] != b["fingerprint"]["host"] and not force:
        print(
            "refusing to compare runs from different hosts "
            f"({a['fingerprint']['host']} vs {b['fingerprint']['host']}); "
            "pass --force to compare anyway",
            file=out,
        )
        return 2
    bounds = declared("end_to_end")
    table_a, table_b = _collect(a), _collect(b)
    regressed = False
    print(f"A = {path_a} (commit {a['fingerprint']['commit']}, {len(a['runs'])} runs)", file=out)
    print(f"B = {path_b} (commit {b['fingerprint']['commit']}, {len(b['runs'])} runs)", file=out)
    print(f"{'workload':<13} {'metric':<13} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'bound':>6} {'spread':>7}  verdict", file=out)
    for key in sorted(set(table_a) & set(table_b)):
        workload, name = key
        spec = bounds[name]
        median_a = statistics.median(table_a[key])
        median_b = statistics.median(table_b[key])
        ratio = median_b / median_a
        worse = ratio - 1.0 if spec["better"] == "lower" else 1.0 - ratio
        spread = max(_quartile_spread(table_a[key]), _quartile_spread(table_b[key]))
        if spread > spec["bound"]:
            verdict = "unresolved"
        elif worse > spec["bound"]:
            verdict, regressed = "regressed", True
        else:
            verdict = "ok"
        print(
            f"{workload:<13} {name:<13} {median_a:>12.4f} {median_b:>12.4f} "
            f"{ratio:>6.3f}x {spec['bound']:>6.2f} {spread:>7.3f}  {verdict} "
            f"({spec['unit']}, {spec['better']} is better, base A={median_a:.4f})",
            file=out,
        )
    return 1 if regressed else 0
