"""The server under test, as a child process.

``python -m repro serve --http 0 ...`` is spawned with the defaults a user
gets (``--workers``/``--queue-limit``/``--cache-size``/``--mode``/
``--executor`` untouched); the benchmark only chooses the inputs and, for the
durable workload, the storage flags.  The child is always reaped: every
caller uses :class:`ServerProcess` as a context manager, whose exit kills and
waits, also on ``KeyboardInterrupt`` or a timeout.
"""

from __future__ import annotations

import os
import select
import subprocess
import sys
import time
from pathlib import Path
from typing import List, Optional

from hostspeed import confine, server_core

#: Seconds a child may take from spawn to its ``# serving on`` line.
STARTUP_DEADLINE = 60.0
_SERVING_PREFIX = "# serving on http://"


class ServerFailure(RuntimeError):
    """The child did not start, died, or answered wrongly; carries its stderr."""


class ServerProcess:
    """One ``repro serve --http 0`` child bound to an ephemeral port."""

    def __init__(self, source_dir: Path, serve_args: List[str], log_path: Path):
        self._argv = [sys.executable, "-m", "repro", "serve", "--http", "0", *serve_args]
        # The child imports the checkout's source, never an installed copy.
        # A fixed hash seed keeps set and dict iteration order — and with it
        # the order MiniCon explores candidates — the same from run to run;
        # left random it moves cold-rewrite throughput by more than any bound.
        self._env = dict(os.environ, PYTHONPATH=str(source_dir), PYTHONHASHSEED="0")
        self._log_path = log_path
        self._process: Optional[subprocess.Popen] = None
        self.host = ""
        self.port = 0
        #: perf_counter at spawn: set-up and recovery times are taken from here.
        self.spawned_at = 0.0

    def __enter__(self) -> "ServerProcess":
        with open(self._log_path, "wb") as log:
            self.spawned_at = time.perf_counter()
            self._process = subprocess.Popen(
                self._argv,
                env=self._env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
            )
        core = server_core()
        if core is not None:
            # One core for the GIL-bound server (and the calibrator that
            # watches that core's speed); the generator keeps to the others.
            confine(self._process.pid, {core})
        try:
            self._await_serving_line()
        except BaseException:
            self.kill()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        self.kill()

    def _await_serving_line(self) -> None:
        assert self._process is not None and self._process.stdout is not None
        fd = self._process.stdout.fileno()
        deadline = self.spawned_at + STARTUP_DEADLINE
        buffered = b""
        while True:
            newline = buffered.find(b"\n")
            if newline >= 0:
                line = buffered[:newline].decode("utf-8", "replace")
                buffered = buffered[newline + 1:]
                if line.startswith(_SERVING_PREFIX):
                    address = line[len(_SERVING_PREFIX):].split()[0]
                    self.host, _, port = address.rpartition(":")
                    self.port = int(port)
                    return
                continue
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                raise self.failure(f"no '# serving on' line within {STARTUP_DEADLINE:.0f}s")
            ready, _, _ = select.select([fd], [], [], remaining)
            if not ready:
                continue
            chunk = os.read(fd, 4096)
            if not chunk:
                raise self.failure(
                    f"server exited with code {self._process.wait()} before serving"
                )
            buffered += chunk

    def kill(self) -> None:
        """SIGKILL the child and wait for it (idempotent)."""
        process = self._process
        if process is None:
            return
        if process.poll() is None:
            process.kill()
        process.wait()
        if process.stdout is not None:
            process.stdout.close()
        self._process = None

    @property
    def pid(self) -> int:
        assert self._process is not None
        return self._process.pid

    def peak_rss_mb(self) -> float:
        """The child's resident-set high-water mark (``VmHWM``), in MB."""
        for line in Path(f"/proc/{self.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise self.failure("no VmHWM in /proc status")

    def stderr_tail(self, limit: int = 2000) -> str:
        try:
            return self._log_path.read_text(errors="replace")[-limit:]
        except OSError:
            return ""

    def failure(self, message: str) -> ServerFailure:
        """An error carrying what the child wrote to stderr."""
        stderr = self.stderr_tail().strip()
        detail = f"\n--- server stderr ---\n{stderr}" if stderr else ""
        return ServerFailure(f"{message}{detail}")
