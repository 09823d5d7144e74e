"""Run ``mani-rank serve`` as a subprocess and talk to it over loopback.

:class:`ServerProcess` spawns the server from the checkout's ``src`` tree,
reads the bound port from its ``serving on`` line, and stops it with SIGTERM
(the server's graceful drain), killing it only if the drain overruns.
:class:`Client` sends one request per connection, matching the server's
``Connection: close``, and tallies every response it receives so the tally
can be reconciled against the server's own ``/stats`` counters.
"""

from __future__ import annotations

import http.client
import json
import os
import select
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

#: Seconds a request may take before the client gives up on it.
REQUEST_TIMEOUT_S = 120.0
#: Seconds the server may take to bind and announce its port.
START_TIMEOUT_S = 60.0


class ServerProcess:
    """One ``python -m repro.cli serve`` child process bound to a free port."""

    def __init__(self, root: Path, args: list[str], log_path: Path) -> None:
        self._root = root
        self._args = args
        self._log_path = log_path
        self._process: subprocess.Popen | None = None
        self.port: int | None = None

    @property
    def pid(self) -> int:
        """Process id of the running server."""
        if self._process is None:
            raise RuntimeError("server not started")
        return self._process.pid

    def start(self) -> None:
        """Spawn the server and wait until it announces its bound port."""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            filter(None, [str(self._root / "src"), env.get("PYTHONPATH")])
        )
        with self._log_path.open("ab") as log:
            self._process = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", "0", *self._args],
                cwd=self._root,
                env=env,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                stderr=log,
            )
        deadline = time.monotonic() + START_TIMEOUT_S
        stdout = self._process.stdout
        assert stdout is not None
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError("server did not announce its port in time")
            ready, _, _ = select.select([stdout], [], [], remaining)
            if not ready:
                continue
            line = stdout.readline().decode()
            if not line:
                raise RuntimeError(
                    f"server exited with code {self._process.wait()} before binding "
                    f"(see {self._log_path})"
                )
            if line.startswith("serving on http://"):
                self.port = int(line.rsplit(":", 1)[1])
                return

    def stop(self) -> None:
        """Drain the server with SIGTERM and wait for it to exit."""
        process, self._process = self._process, None
        if process is None:
            return
        if process.poll() is None:
            process.terminate()
            try:
                process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
        if process.stdout is not None:
            process.stdout.close()


class Client:
    """Single closed-loop client: one request in flight, one connection each."""

    def __init__(self, port: int, host: str = "127.0.0.1") -> None:
        self._host = host
        self._port = port
        #: Responses received, per path and per status code.
        self.paths: Counter[str] = Counter()
        self.statuses: Counter[int] = Counter()

    def request(self, verb: str, path: str, body: bytes = b"") -> tuple[int, bytes, float]:
        """Send one request; return ``(status, body, seconds)``.

        The time runs from opening the connection to reading the last
        response byte, which is what a caller waits for.
        """
        started = time.perf_counter()
        connection = http.client.HTTPConnection(self._host, self._port, timeout=REQUEST_TIMEOUT_S)
        try:
            connection.request(verb, path, body=body or None)
            response = connection.getresponse()
            payload = response.read()
        finally:
            connection.close()
        elapsed = time.perf_counter() - started
        self.paths[path] += 1
        self.statuses[response.status] += 1
        return response.status, payload, elapsed

    def get_json(self, path: str) -> dict:
        """``GET`` a JSON endpoint, requiring a 200."""
        status, payload, _ = self.request("GET", path)
        if status != 200:
            raise RuntimeError(f"GET {path} returned {status}: {payload[:200]!r}")
        return json.loads(payload)

    def wait_ready(self, timeout: float = START_TIMEOUT_S) -> None:
        """Poll ``/readyz`` until it answers 200."""
        deadline = time.monotonic() + timeout
        while True:
            try:
                status, _, _ = self.request("GET", "/readyz")
                if status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("server never became ready")
            time.sleep(0.01)
