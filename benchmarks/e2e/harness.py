"""One benchmark run: set-up, closed-loop and paced phases, writes, recovery.

Per workload, against a freshly spawned server (README "Phases"):

1. *setup* — spawn → ``# serving on`` → first correct reply → one pass over
   the warm-up list.  Repeated :data:`SETUP_REPS` times on fresh servers; the
   last one is kept for the phases below.
2. *sat* — closed loop, both connections back to back → ``sat_qps``.
3. *paced* — open loop at the workload's frozen rate, each request timed from
   when it was due → ``read_p50_ms`` / ``read_p90_ms`` (and the write
   latencies of ``churn_mixed``, whose writes ride inside both phases).
4. *writes* — read-only workloads send their delta stream to the now idle
   server, closed loop on one connection → ``write_p50_ms`` / ``write_p90_ms``.
5. *recovery* — ``SIGKILL``; a new server must give a first correct reply.
   ``churn_mixed`` restarts on byte-identical copies of the crashed storage
   directory; the memory-only workloads restart from their input files, which
   is what the set-up repetitions already timed (spawn → first correct reply).

Every reply the oracle can judge is compared with the interpreter's answer
over the *base* relations; see :class:`Oracle`.
"""

from __future__ import annotations

import argparse
import json
import random
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.datalog.parser import parse_query
from repro.engine.database import Database
from repro.engine.evaluate import evaluate
from repro.experiments.measure import percentile

import inputs
import layers
import report
from hostspeed import HostSpeed, confine, generator_cores
from loadgen import (
    Connection, PhaseResult, Request, Sample, closed_loop, delta_request,
    encode_get, paced, query_request,
)
from serverproc import ServerFailure, ServerProcess

ROOT = report.ROOT
SOURCE = ROOT / "src"
#: Scratch space inside the checkout (the benchmark writes nowhere else).
WORK_ROOT = ROOT / ".e2e_work"

#: Load-generator connections: this host has two cores — one for the
#: GIL-bound server, one for the generator.
CONNECTIONS = 2
SETUP_REPS = 3
RECOVERY_REPS = 5
#: Slices of the closed-loop phase; the rate is the median over them, so one
#: noisy-neighbour stall moves one slice, not the figure.
SLICES = 6
MIN_SLICE_SAMPLES = 20
#: Seconds of calibrator readings taken on either side of one request.
SPEED_MARGIN = 0.25
#: Seconds the read-only workloads spend sending deltas to the idle server.
BURST_SECONDS = 2.0


class Oracle:
    """The interpreter over the base relations, kept in step with the writes.

    The server answers through rewritings over maintained view extents; the
    oracle evaluates the query text itself over the base relations with the
    backtracking interpreter — the paper's equivalence-by-expansion guarantee,
    checked end to end through HTTP.
    """

    def __init__(self, database: Database):
        self._database = database.copy()
        self._memo: Dict[str, frozenset] = {}
        self.checks = 0
        self.mismatches: List[str] = []

    def apply(self, deltas: Sequence[Any]) -> None:
        for delta in deltas:
            self._database.apply_delta(delta)
        if deltas:
            self._memo.clear()

    def expected(self, text: str) -> frozenset:
        rows = self._memo.get(text)
        if rows is None:
            rows = evaluate(parse_query(text), self._database, executor="interpreted")
            self._memo[text] = rows
        return rows

    def check(self, text: str, payload: Dict[str, Any], where: str) -> None:
        self.checks += 1
        got = {tuple(row) for row in payload["rows"]}
        want = self.expected(text)
        if got != want or payload["count"] != len(want):
            self.mismatches.append(
                f"{where}: {text} returned {len(got)} rows, oracle has {len(want)} "
                f"({len(got - want)} unexpected, {len(want - got)} missing)"
            )


class Run:
    """State of one (workload, seed) run; :meth:`execute` does the work."""

    def __init__(self, name: str, seed: int, seconds: float, trace: bool, smoke: bool):
        self.workload = inputs.WORKLOADS[name](seed)
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.smoke = smoke
        self.oracle = Oracle(self.workload.database)
        self.delta_cursor = 0
        self.phases: Dict[str, Dict[str, Any]] = {}
        self.values: Dict[str, float] = {}
        self.samples: Dict[str, int] = {}
        self.notes: List[str] = []
        self.problems: List[str] = []
        self._encoded: Dict[str, Request] = {}
        order = list(range(len(self.workload.templates)))
        random.Random(seed).shuffle(order)
        #: Warm-up templates re-read and judged at every quiescent point.
        self.sample = order[: 2 if smoke else self.workload.verify_per_phase]
        #: Spans of the traced pass (``--trace 1``), written out by main().
        self.spans: List[Dict[str, Any]] = []
        self.work: Optional[Path] = None
        #: What the run observed; turned into metrics once the calibrator stops.
        self._startups: List[Tuple[float, float, float]] = []  # spawn, first reply, set-up
        self._recoveries: List[Tuple[float, float]] = []  # spawn, seconds
        self.sat: Optional[PhaseResult] = None
        self.single: Optional[PhaseResult] = None
        self.paced: Optional[PhaseResult] = None
        self.burst: Optional[PhaseResult] = None
        self.server_stats: Dict[str, Any] = {}
        #: Medians before host-speed normalisation, for the report.
        self.raw: Dict[str, float] = {}

    # -- files and servers ---------------------------------------------------------
    def _server(self, tag: str, storage: Optional[Path], fresh: bool) -> ServerProcess:
        assert self.work is not None
        args = ["--views", str(self.work / "views.dl")]
        if fresh:
            args += ["--database", str(self.work / "facts.dl")]
        if storage is not None:
            args += ["--storage", str(storage), *self.workload.storage_flags]
        return ServerProcess(SOURCE, args, self.work / f"server-{tag}.log")

    def _storage_dir(self, tag: str) -> Optional[Path]:
        if not self.workload.storage_flags:
            return None
        assert self.work is not None
        return self.work / f"store-{tag}"

    # -- requests ------------------------------------------------------------------
    def _read_request(self, text: str, ref: int) -> Request:
        if ref < 0:
            return query_request(text)
        request = self._encoded.get(text)
        if request is None:
            request = self._encoded[text] = query_request(text, ref)
        return request

    def _phase_requests(self, seconds: float) -> Tuple[List[Request], List[str]]:
        """Requests for one timed phase, and the read text at each position."""
        w = self.workload
        count = int(w.max_qps * seconds) + 16
        reads = w.reads(count)
        texts = [text for text, _ in reads]
        requests = [self._read_request(text, ref) for text, ref in reads]
        if w.interleaved_writes:
            cursor = self.delta_cursor
            for base in range(0, count - 10, 10):
                for slot in inputs.WRITE_SLOTS:
                    requests[base + slot] = delta_request(w.deltas[cursor].to_text(), cursor)
                    cursor += 1
        return requests, texts

    def _account(self, phase: str, result: PhaseResult, **extra: Any) -> None:
        self.phases[phase] = {
            "attempted": result.attempted,
            "succeeded": result.attempted - result.failed,
            "failed": result.failed,
            **extra,
        }
        if result.failed:
            self.problems.append(f"{phase}: {result.failed} of {result.attempted} requests failed")

    def _absorb_writes(self, result: PhaseResult) -> int:
        """Advance the oracle past the deltas a phase got acknowledged."""
        acked = [s for s in result.of_kind("write") if s.latency is not None]
        refs = [s.ref for s in acked]
        expected = list(range(self.delta_cursor, self.delta_cursor + len(refs)))
        if refs != expected:
            self.problems.append("acknowledged writes are not a prefix of the delta stream")
        self.oracle.apply(self.workload.deltas[self.delta_cursor:self.delta_cursor + len(refs)])
        self.delta_cursor += len(refs)
        return len(refs)

    def _verify_retained(self, phase: str, result: PhaseResult, texts: List[str]) -> None:
        """Judge the bodies a read-only phase kept (answers cannot have moved)."""
        if self.workload.interleaved_writes:
            return
        kept = [s for s in result.of_kind("read") if s.body is not None]
        wanted = 1 if self.smoke else self.workload.verify_per_phase
        for sample in kept[:: max(1, len(kept) // wanted)][:wanted]:
            self.oracle.check(texts[sample.index], json.loads(sample.body), phase)

    def _quiescent_check(self, connection: Connection, where: str) -> None:
        for index in self.sample:
            text = self.workload.templates[index]
            self.oracle.check(text, connection.json(query_request(text)), where)

    # -- phases --------------------------------------------------------------------
    def _warm_up(self, server: ServerProcess) -> None:
        """One pass over the warm-up list; notes when the first correct reply
        and the end of the pass came, in seconds since spawn."""
        replies = []
        with Connection(server.host, server.port) as connection:
            first = 0.0
            for index, text in enumerate(self.workload.templates):
                payload = connection.json(query_request(text))
                if index == 0:
                    first = time.perf_counter() - server.spawned_at
                if index == 0 or index in self.sample:
                    replies.append((text, payload))
            done = time.perf_counter() - server.spawned_at
        for text, payload in replies:  # judged outside the timed interval
            self.oracle.check(text, payload, "warm-up")
        self._startups.append((server.spawned_at, first, done))

    def _timed_phase(self, server: ServerProcess, phase: str, seconds: float,
                     rate: Optional[float], connections: int = CONNECTIONS) -> PhaseResult:
        requests, texts = self._phase_requests(seconds)
        keep_every = 0 if self.workload.interleaved_writes else 25
        if rate is None:
            result = closed_loop(server.host, server.port, requests, connections,
                                 seconds, keep_every)
        else:
            result = paced(server.host, server.port, requests, connections,
                           seconds, rate, keep_every)
        # Reads past the last one sent were generated, not used.
        sent = 1 + max((s.index for s in result.samples), default=-1)
        self.workload.unread(len(requests) - sent)
        writes = self._absorb_writes(result)
        self._account(phase, result, reads=len(result.of_kind("read")), writes=writes)
        self._verify_retained(phase, result, texts)
        return result

    def _write_burst(self, server: ServerProcess) -> PhaseResult:
        w = self.workload
        requests = [
            delta_request(w.deltas[i].to_text(), i)
            for i in range(self.delta_cursor, len(w.deltas))
        ]
        seconds = 0.3 if self.smoke else BURST_SECONDS
        result = closed_loop(server.host, server.port, requests, 1, seconds)
        writes = self._absorb_writes(result)
        self._account("writes", result, reads=0, writes=writes)
        return result

    def _recover(self, crashed: Path) -> None:
        """Restart on copies of the crashed directory; time to a correct reply."""
        assert self.work is not None
        probe = self.workload.templates[self.sample[0]]
        for rep in range(2 if self.smoke else RECOVERY_REPS):
            copy = self.work / f"recover-{rep}"
            shutil.copytree(crashed, copy)
            with self._server(f"recover-{rep}", copy, fresh=False) as server:
                with Connection(server.host, server.port) as connection:
                    payload = connection.json(query_request(probe))
                    seconds = time.perf_counter() - server.spawned_at
                    self.oracle.check(probe, payload, f"recovery {rep}")
                    self._quiescent_check(connection, f"recovery {rep}")
            self._recoveries.append((server.spawned_at, seconds))
            shutil.rmtree(copy)

    # -- the run -------------------------------------------------------------------
    def execute(self) -> Dict[str, Any]:
        WORK_ROOT.mkdir(exist_ok=True)
        self.work = Path(tempfile.mkdtemp(prefix=f"{self.workload.name}-", dir=WORK_ROOT))
        try:
            self._execute()
        except (ServerFailure, OSError, ValueError, TimeoutError) as error:
            self.problems.append(f"{type(error).__name__}: {error}")
        finally:
            shutil.rmtree(self.work, ignore_errors=True)
            try:
                WORK_ROOT.rmdir()
            except OSError:
                pass  # another run is using it
        return self._result()

    def _execute(self) -> None:
        w = self.workload
        assert self.work is not None
        (self.work / "views.dl").write_text(inputs.views_text(w.views))
        (self.work / "facts.dl").write_text(inputs.facts_text(w.database))

        # The generator keeps off the server's core from here on.
        confine(0, generator_cores())
        with HostSpeed(self.work / "hostspeed.log") as speed:
            reps = 1 if (self.smoke or self.trace) else SETUP_REPS
            for rep in range(reps - 1):
                storage = self._storage_dir(f"setup-{rep}")
                with self._server(f"setup-{rep}", storage, fresh=True) as server:
                    self._warm_up(server)
            storage = self._storage_dir("main")
            with self._server("main", storage, fresh=True) as server:
                self._warm_up(server)
                self._measure(server)
                self.values["peak_rss_mb"] = server.peak_rss_mb()
            # Leaving the block SIGKILLed the server: the crash of the recovery test.
            if storage is not None:
                self._recover(storage)
            else:
                self._recoveries = [(at, first) for at, first, _ in self._startups]
        # The calibrator has stopped: its samples can now weigh every interval.
        self._end_to_end(speed)
        if self.trace:
            layers.server_side(self)
            self.spans = layers.traced_pass(self)

    def _measure(self, server: ServerProcess) -> None:
        w = self.workload
        share = (0.3, 0.2, 0.3) if self.trace else (0.5, 0.0, 0.5)
        sat_s, single_s, paced_s = (self.seconds * part for part in share)
        stats = self.server_stats
        with Connection(server.host, server.port) as control:
            def scrape(moment: str) -> None:
                if self.trace:
                    stats[moment] = control.json(encode_get("/stats"))

            scrape("before")
            self.sat = self._timed_phase(server, "sat", sat_s, None)
            scrape("after")
            self._quiescent_check(control, "after sat")
            if self.trace:
                self.single = self._timed_phase(server, "single", single_s, None, connections=1)
            self.paced = self._timed_phase(server, "paced", paced_s, w.paced_qps)
            self._quiescent_check(control, "after paced")
            if not w.interleaved_writes:
                self.burst = self._write_burst(server)
                self._quiescent_check(control, "after writes")
            scrape("final")
            if self.trace:
                stats["metrics"] = control.roundtrip(encode_get("/metrics"))[1].decode()

    def write_samples(self) -> Tuple[PhaseResult, List[Sample]]:
        """The phase the write latencies come from, and its write samples."""
        assert self.paced is not None
        if self.burst is not None:
            return self.burst, self.burst.samples
        return self.paced, self.paced.of_kind("write")

    def _end_to_end(self, speed: HostSpeed) -> None:
        assert self.sat is not None and self.paced is not None
        self._startup_metric("setup_s", [(at, done) for at, _, done in self._startups], speed)
        self._startup_metric("recovery_s", self._recoveries, speed)

        done = sorted(s.at + s.latency for s in self.sat.samples if s.latency is not None)
        raw, adjusted = [], []
        for low, high in _windows(self.sat.seconds, len(done)):
            inside = [moment for moment in done if low <= moment < high]
            if len(inside) > 1:
                # From first to last completion: a measured interval, not a
                # count over a nominal width.
                rate = (len(inside) - 1) / (inside[-1] - inside[0])
                raw.append(rate)
                adjusted.append(rate * speed.factor(self.sat.origin + low, self.sat.origin + high))
        if not raw:
            self.problems.append("sat phase completed too few requests to take a rate")
            raw = adjusted = [float("nan")]
        self._record("sat_qps", raw, adjusted, len(done))

        self._latency("read", self.paced, self.paced.of_kind("read"), speed)
        self._latency("write", *self.write_samples(), speed)
        self.notes.append(
            "host-speed factor (kernel time / reference; metrics are stated at 1.0): "
            + ", ".join(
                f"{name} {speed.factor(phase.origin, phase.origin + phase.seconds):.3f}"
                for name, phase in (("sat", self.sat), ("paced", self.paced))
            )
        )
        lag = percentile([s.lag for s in self.paced.samples], 0.9) * 1e3
        self.values["loadgen.sched_lag_p90_ms"] = lag
        self.values["loadgen.cpu_share"] = max(self.sat.cpu_share, self.paced.cpu_share)
        if lag > 1.0:
            self.notes.append(
                f"paced phase INVALID: sends left {lag:.2f} ms late at p90 (limit 1 ms)"
            )

    def _record(self, name: str, raw: List[float], adjusted: List[float], count: int) -> None:
        """A metric is the median over its slices (or repetitions), taken at
        the reference host speed; the unadjusted median is kept for the report."""
        self.values[name] = statistics.median(adjusted)
        self.raw[name] = statistics.median(raw)
        self.samples[name] = count

    def _startup_metric(self, name: str, spans: List[Tuple[float, float]],
                        speed: HostSpeed) -> None:
        self._record(
            name,
            [seconds for _, seconds in spans],
            [seconds / speed.factor(at, at + seconds) for at, seconds in spans],
            len(spans),
        )

    def _latency(self, kind: str, phase: PhaseResult, samples: List[Sample],
                 speed: HostSpeed) -> None:
        """Median latency, each sample first taken to the reference host speed
        by the calibrator's readings around the time it was served."""
        ok = [s for s in samples if s.latency is not None]
        if not ok:
            self.problems.append(f"no successful {kind} request to time")
            return
        raw = [s.latency * 1e3 for s in ok]
        adjusted = [
            s.latency * 1e3 / speed.factor(
                phase.origin + s.at - SPEED_MARGIN,
                phase.origin + s.at + s.latency + SPEED_MARGIN,
            )
            for s in ok
        ]
        self._record(f"{kind}_p50_ms", raw, adjusted, len(ok))
        # The tail is a diagnostic (README "Why p90 is not end-to-end"): as
        # measured, not normalised, and without a bound.
        for fraction, label in ((0.9, "p90"), (0.99, "p99")):
            self.values[f"server.{kind}_{label}_ms"] = percentile(raw, fraction)
            self.samples[f"server.{kind}_{label}_ms"] = len(ok)

    def _result(self) -> Dict[str, Any]:
        attempted = sum(p["attempted"] for p in self.phases.values())
        failed = sum(p["failed"] for p in self.phases.values())
        sections = {}
        for section in ("end_to_end", "per_layer") if self.trace else ("end_to_end",):
            wanted = report.declared(section)
            try:
                sections[section] = report.metric_payload(
                    {k: v for k, v in self.values.items() if k in wanted}, section
                )
            except KeyError as error:
                self.problems.append(str(error.args[0]))
        correct = not self.problems and not self.oracle.mismatches and attempted > 0
        return {
            "workload": self.workload.name,
            "seed": self.seed,
            "seconds": self.seconds,
            "trace": int(self.trace),
            "sizes": {**self.workload.sizes, "paced_qps": self.workload.paced_qps,
                      "connections": CONNECTIONS},
            "phases": self.phases,
            # What the driver reads: the section the --trace flag selects.
            "metrics": sections.get("per_layer" if self.trace else "end_to_end", {}),
            # A traced run still takes the end-to-end figures, from shorter
            # phases and one set-up: shown for orientation, never compared.
            "end_to_end_of_traced_run": sections.get("end_to_end", {}) if self.trace else {},
            "samples": self.samples,
            "raw": self.raw,
            "notes": self.notes,
            "problems": self.problems + self.oracle.mismatches,
            "oracle_checks": self.oracle.checks,
            "oracle_mismatches": len(self.oracle.mismatches),
            "correct": correct,
            "attempted": max(attempted, 1),
            "failed": failed,
        }


def _windows(seconds: float, samples: int) -> List[Tuple[float, float]]:
    """Equal time slices of a phase, as many as keep enough samples in each."""
    count = max(1, min(SLICES, samples // MIN_SLICE_SAMPLES))
    width = seconds / count
    return [(i * width, (i + 1) * width if i < count - 1 else float("inf"))
            for i in range(count)]


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchmarks/e2e/run.py",
        description="End-to-end serving benchmark through the real HTTP server.",
    )
    parser.add_argument("--workload", choices=sorted(inputs.WORKLOADS), default=None,
                        help="one workload (default: all four, one after another)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", nargs="?", type=int, choices=(0, 1), const=1, default=0,
                        help="1: the traced pass and per-layer metrics instead of end-to-end")
    parser.add_argument("--smoke", action="store_true",
                        help="seconds-long phases, every correctness check kept")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="append this run to a results file (for --compare)")
    parser.add_argument("--trace-file", metavar="FILE", default=None,
                        help="where the traced pass writes its spans "
                             "(default: trace.json in the checkout root)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"), default=None)
    parser.add_argument("--force", action="store_true",
                        help="compare results from different hosts anyway")
    return parser


def _append(path: Path, results: List[Dict[str, Any]], wal_policy: str) -> None:
    if path.exists():
        document = json.loads(path.read_text())
    else:
        document = {"fingerprint": report.fingerprint(wal_policy), "runs": []}
    document["runs"].extend(results)
    path.write_text(json.dumps(document, indent=1))


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if args.compare:
        return report.compare(args.compare[0], args.compare[1], args.force)
    seconds = args.seconds
    if seconds is None:
        seconds = 2.4 if args.smoke else float(report.contract()["run_seconds"])
    names = [args.workload] if args.workload else list(inputs.WORKLOADS)
    runs, results = [], []
    for name in names:
        run = Run(name, args.seed, seconds, bool(args.trace), args.smoke)
        result = run.execute()
        runs.append(run)
        results.append(result)
        report.print_report(result, out=sys.stdout)
        print(json.dumps({key: result[key] for key in
                          ("correct", "attempted", "failed", "metrics")}), flush=True)
    if args.trace:
        layers.write_trace(runs, Path(args.trace_file) if args.trace_file else ROOT / "trace.json")
    if args.out:
        _append(Path(args.out), results, "always (churn_mixed)")
    return 0 if all(result["correct"] for result in results) else 1
