"""Start, probe and stop the ``repro.cli serve`` daemon as a subprocess."""

import json
import os
import re
import select
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Set

from perfbench import loadgen

_READY = re.compile(r"serving on http://([^:]+):(\d+)")

#: Load sizing for a 2-core machine: two execution threads, two pool
#: processes, and (in the generator) two connections.
EXEC_WORKERS = 2
POOL_WORKERS = 2
REQUEST_TIMEOUT_S = 30.0


def child_env(root: str) -> Dict[str, str]:
    """Environment for a child that imports ``repro`` from ``root/src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"     # same dict/set layout in every run
    return env


class Daemon:
    """One daemon process; ``start`` returns once it prints its port."""

    def __init__(self, root: str, artifact_dir: Optional[str] = None,
                 cpus: Optional[Set[int]] = None) -> None:
        self.root = root
        self.artifact_dir = artifact_dir
        self.cpus = cpus        # CPUs the daemon (and its threads) may use
        self.proc: Optional[subprocess.Popen] = None
        self.host = "127.0.0.1"
        self.port = 0
        self.peak_rss_mb = 0.0

    def start(self, timeout: float = 60.0) -> float:
        """Spawn the daemon; returns seconds until "serving on"."""
        command: List[str] = [
            sys.executable, "-m", "repro.cli", "serve", "--port", "0",
            "--exec-workers", str(EXEC_WORKERS),
            "--pool-workers", str(POOL_WORKERS)]
        if self.artifact_dir is not None:
            command += ["--artifact-dir", self.artifact_dir]
        cpus = self.cpus
        pin = None if cpus is None else (
            lambda: os.sched_setaffinity(0, cpus))
        began = time.perf_counter()
        self.proc = subprocess.Popen(
            command, cwd=self.root, env=child_env(self.root),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            start_new_session=True, preexec_fn=pin)
        deadline = began + timeout
        stdout = self.proc.stdout
        while select.select([stdout], [], [],
                            max(0.0, deadline - time.perf_counter()))[0]:
            line = stdout.readline()
            if not line:
                break
            match = _READY.search(line)
            if match:
                self.host, self.port = match.group(1), int(match.group(2))
                return time.perf_counter() - began
        self.stop()
        raise RuntimeError("the daemon never printed its port")

    def post(self, body: bytes, path: str = "/v1/run"):
        return loadgen.http_post(self.host, self.port, path, body,
                                 REQUEST_TIMEOUT_S)

    def stats(self) -> Dict:
        status, body = loadgen.http_get(self.host, self.port, "/stats",
                                        REQUEST_TIMEOUT_S)
        if status != 200:
            raise RuntimeError(f"/stats answered {status}")
        return json.loads(body)

    def stop(self, timeout: float = 20.0) -> None:
        """SIGTERM (clean shutdown), reap, and record the peak RSS.

        A daemon that outlives ``timeout`` is killed with its whole
        process group (its pool workers included).
        """
        proc, self.proc = self.proc, None
        if proc is None:
            return
        if proc.returncode is None:
            proc.send_signal(signal.SIGTERM)
        deadline = time.perf_counter() + timeout
        while proc.returncode is None:
            pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                proc.returncode = os.waitstatus_to_exitcode(status)
                self.peak_rss_mb = usage.ru_maxrss / 1024.0
            elif time.perf_counter() > deadline:
                os.killpg(proc.pid, signal.SIGKILL)
                deadline = float("inf")
            else:
                time.sleep(0.005)
        if proc.stdout is not None:
            proc.stdout.close()

    def __enter__(self) -> "Daemon":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()
