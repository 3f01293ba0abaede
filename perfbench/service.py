"""A local ``repro-service`` for one benchmark iteration.

Each :class:`LocalService` gets a fresh root directory and an
ephemeral port, runs in its own process group so that teardown can
tell whether any server, runner or scenario process outlived it, and
is stopped with SIGTERM and ``wait()``.  Latencies come from the
server's own ``submitted_at``/``finished_at`` timestamps, never from
the client's poll loop.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

from repro.service.client import ServiceClient, ServiceError

from rss import peak_rss_mib

POLL_S = 0.01


class LocalService:
    def __init__(self, src_dir: str, root: str, tick_s: float,
                 timeout_s: float = 120.0) -> None:
        self.src_dir = src_dir
        self.root = root
        self.tick_s = tick_s
        self.timeout_s = timeout_s
        self.proc: Optional[subprocess.Popen] = None
        self.client: Optional[ServiceClient] = None

    def start(self) -> float:
        """Start the server; returns seconds until ``/health`` answers."""
        os.makedirs(self.root)
        tmp = os.path.join(self.root, "tmp")
        os.makedirs(tmp)
        log_path = os.path.join(self.root, "server.log")
        env = dict(os.environ, PYTHONPATH=self.src_dir, TMPDIR=tmp,
                   PYTHONDONTWRITEBYTECODE="1")
        start = time.perf_counter()
        with open(log_path, "w", encoding="utf-8") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.service.cli",
                 "--root", os.path.join(self.root, "state"), "--port", "0",
                 "--max-jobs", "1", "--tick-s", repr(self.tick_s)],
                stdout=log, stderr=subprocess.STDOUT, env=env,
                start_new_session=True)
        url = None
        deadline = start + self.timeout_s
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"service exited with {self.proc.returncode}")
            if url is None:
                url = _listening_url(log_path)
            if url is not None:
                self.client = ServiceClient(url, timeout_s=self.timeout_s)
                try:
                    self.client.health()
                    return time.perf_counter() - start
                except ServiceError:
                    pass
            time.sleep(POLL_S / 2)
        raise TimeoutError("service did not answer /health")

    def run_job(self, spec: Dict) -> Tuple[Dict, Dict]:
        """Submit ``spec`` and wait; returns (job document with all its
        events, results document)."""
        job_id = self.client.submit(spec)["id"]
        events: List[Dict] = []
        try:
            doc = self.client.wait(job_id, timeout_s=self.timeout_s,
                                   poll_s=POLL_S, on_event=events.append)
        except TimeoutError:
            self.client.cancel(job_id)
            raise
        doc["events"] = events
        return doc, self.client.results(job_id)

    def peak_rss_mib(self) -> float:
        """Peak resident set size of the server process so far."""
        return peak_rss_mib(self.proc.pid)

    def stop(self) -> List[str]:
        """SIGTERM the server and wait; returns leaked-process problems.

        Anything still alive in the server's process group after the
        server exited is a leak: it is reported, then killed.
        """
        problems = []
        if self.proc is None:
            return problems
        pgid = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                problems.append("server ignored SIGTERM for 60 s")
                self.proc.kill()
                self.proc.wait()
        if self.proc.returncode != 0:
            problems.append(f"server exited with {self.proc.returncode}")
        for _ in range(100):
            try:
                os.killpg(pgid, 0)
            except ProcessLookupError:
                break
            time.sleep(POLL_S)
        else:
            problems.append("server left processes running after exit")
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                pass
        self.proc = None
        return problems


def _listening_url(log_path: str) -> Optional[str]:
    with open(log_path, "r", encoding="utf-8") as handle:
        for line in handle:
            if "listening on " in line:
                return line.split("listening on ", 1)[1].split()[0]
    return None


def state_times(doc: Dict) -> Dict[str, float]:
    """Server-side time of each lifecycle state the job entered."""
    times = {"SUBMITTED": doc["submitted_at"]}
    for event in doc["events"]:
        if event.get("event") == "state":
            times.setdefault(event["state"], event["t"])
    return times
