"""Harness for one real ``mcapi-verify serve`` daemon.

The daemon runs in its own process group on ``--port 0``; the harness
parses the port from its "listening on" line, talks to it through
:class:`repro.service.ServiceClient`, and ends it with the ``shutdown``
RPC, checking the exit status.  Whatever goes wrong, :meth:`Daemon.close`
kills the whole group, so neither the daemon nor its forked worker
outlives a run.
"""

from __future__ import annotations

import os
import re
import select
import signal
import subprocess
import sys
import time
from typing import List

from measure import child_pids, process_peak_rss_mb

_LISTENING = re.compile(rb"listening on (\S+):(\d+)")

#: How long the daemon may take to print its "listening on" line.
START_TIMEOUT_S = 60.0


class DaemonError(RuntimeError):
    pass


class Daemon:
    def __init__(self, src_dir: str, cache_dir: str, jobs: int = 1) -> None:
        env = dict(os.environ, PYTHONPATH=src_dir)
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.verification.cli",
                "serve",
                "--port",
                "0",
                "--jobs",
                str(jobs),
                "--cache-dir",
                cache_dir,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            start_new_session=True,
        )
        self.address = self._read_address()

    def _read_address(self) -> str:
        deadline = time.monotonic() + START_TIMEOUT_S
        buffered = b""
        stdout = self.process.stdout
        while time.monotonic() < deadline:
            ready, _, _ = select.select([stdout], [], [], 0.5)
            if not ready:
                if self.process.poll() is not None:
                    break
                continue
            chunk = os.read(stdout.fileno(), 4096)
            if not chunk:
                break
            buffered += chunk
            match = _LISTENING.search(buffered)
            if match:
                return f"{match.group(1).decode()}:{match.group(2).decode()}"
        self.close()
        raise DaemonError(f"daemon did not report its address: {buffered[-200:]!r}")

    def peak_rss_mb(self) -> float:
        """Peak memory of the daemon plus its worker processes."""
        pids: List[int] = [self.process.pid] + child_pids(self.process.pid)
        return sum(process_peak_rss_mb(pid) for pid in pids)

    def shutdown(self, client) -> int:
        """Stop through the RPC and return the daemon's exit status."""
        try:
            client.shutdown()
        finally:
            client.close()
        deadline = time.monotonic() + 30.0
        while time.monotonic() < deadline and not self._exited():
            time.sleep(0.02)
        return self.close()

    def _exited(self) -> bool:
        """True once the daemon has exited (it stays unreaped, see close)."""
        flags = os.WEXITED | os.WNOHANG | os.WNOWAIT
        return os.waitid(os.P_PID, self.process.pid, flags) is not None

    def close(self) -> int:
        """Kill whatever is left of the daemon's process group; reap it.

        The group is signalled before the daemon is reaped: while its
        leader is unreaped the group id cannot be reused, so the signal
        reaches only the daemon and the workers it forked.
        """
        if self.process.returncode is not None:
            return self.process.returncode
        try:
            os.killpg(self.process.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        status = self.process.wait(timeout=30)
        if self.process.stdout is not None:
            self.process.stdout.close()
        return status
