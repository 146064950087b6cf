"""Host-speed calibration: what a second of this host was worth, when.

The sandbox this benchmark runs in is a small VM whose cores change speed
under it: the same pure-Python loop takes 57 ms at one moment and 118 ms a
few seconds later, independently on each core, with no steal time reported.
A 12-second phase sees one or two such regimes, so raw throughput moves
15-20 % between identical runs — more than any regression bound.

So the server is given one core, and a *calibrator* child shares that core
with it.  Every :data:`INTERVAL` seconds it runs a fixed kernel — build a hash
index over tuples, probe it, collect the joined pairs into a set: the same
kind of work the server does — and records how much CPU time the kernel took.
The kernel's cost is constant, so its CPU time measures how fast that core
was at that moment.  A timed interval's *speed factor* is the median kernel
time inside it over :data:`REFERENCE_KERNEL_SECONDS`; throughputs are
multiplied by it and durations divided by it, which states every end-to-end
figure at the reference speed.  On this host that halves the run-to-run
spread (README "Host-speed normalisation" has the measurements).

The calibrator costs the server's core about 2 % (some 0.8 ms every 40 ms
).
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time
from bisect import bisect_left, bisect_right
from pathlib import Path
from typing import List, Optional

#: Seconds between kernel runs.
INTERVAL = 0.04
#: Kernel CPU time that counts as speed 1.0.  Frozen: changing it rescales
#: every end-to-end metric.  It is this host's typical kernel time.
REFERENCE_KERNEL_SECONDS = 0.0008
#: A window with fewer samples than this is widened until it has them.
MIN_SAMPLES = 5

#: The cores this process may use, read before anything confines itself.
USABLE_CORES = sorted(os.sched_getaffinity(0))

_ROWS = [(i % 97, i % 89) for i in range(1500)]


def kernel() -> int:
    """A fixed amount of hash-join-shaped work."""
    index: dict = {}
    for left, right in _ROWS:
        index.setdefault(left, []).append(right)
    joined = set()
    for left, right in _ROWS[:300]:
        for match in index.get(right, ()):
            joined.add((left, match))
    return len(joined)


def confine(pid: int, cores: set) -> None:
    """Restrict a process (0: the calling thread) to ``cores``, if allowed.

    A sandbox may forbid changing affinity; the run then goes on unpinned,
    noisier but still correct.
    """
    try:
        os.sched_setaffinity(pid, cores)
    except OSError:
        pass


def server_core() -> Optional[int]:
    """The core reserved for the server and the calibrator (None: only one)."""
    return USABLE_CORES[0] if len(USABLE_CORES) > 1 else None


def generator_cores() -> set:
    return set(USABLE_CORES[1:] if len(USABLE_CORES) > 1 else USABLE_CORES)


class HostSpeed:
    """The calibrator child and the speed factors read from its samples."""

    def __init__(self, log_path: Path):
        self._log_path = log_path
        self._process: Optional[subprocess.Popen] = None
        self._times: List[float] = []
        self._costs: List[float] = []

    def __enter__(self) -> "HostSpeed":
        core = server_core()
        with open(self._log_path, "wb") as log:
            self._process = subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()),
                 "" if core is None else str(core)],
                stdin=subprocess.DEVNULL, stdout=log, stderr=subprocess.DEVNULL,
            )
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()

    def stop(self) -> None:
        """Kill the calibrator, wait for it, and load what it recorded."""
        process = self._process
        if process is None:
            return
        if process.poll() is None:
            process.kill()
        process.wait()
        self._process = None
        for line in self._log_path.read_text().splitlines():
            parts = line.split()
            if len(parts) == 2:  # a line cut short by the kill is dropped
                self._times.append(float(parts[0]))
                self._costs.append(float(parts[1]))

    def factor(self, start: float, end: float) -> float:
        """Median kernel time over ``[start, end]`` (``perf_counter`` seconds),
        relative to the reference: above 1 when the core was slow.

        Only valid after :meth:`stop`.
        """
        low = bisect_left(self._times, start)
        high = bisect_right(self._times, end)
        while high - low < MIN_SAMPLES and (low > 0 or high < len(self._times)):
            low, high = max(0, low - 1), min(len(self._times), high + 1)
        if high - low < MIN_SAMPLES:
            raise ValueError("the host-speed calibrator recorded too few samples")
        return statistics.median(self._costs[low:high]) / REFERENCE_KERNEL_SECONDS


def _calibrate(core: str) -> None:
    if core:
        confine(0, {int(core)})
    out = sys.stdout
    while True:
        started = time.process_time()
        kernel()
        cost = time.process_time() - started
        # perf_counter is CLOCK_MONOTONIC: the parent's clock reads the same.
        out.write(f"{time.perf_counter():.6f} {cost:.9f}\n")
        out.flush()
        time.sleep(INTERVAL)


if __name__ == "__main__":
    _calibrate(sys.argv[1] if len(sys.argv) > 1 else "")
