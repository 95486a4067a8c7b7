"""The ``serve`` workload: a ``repro serve`` daemon driven over its socket.

Each daemon gets a fresh socket and cache directory under the run's
scratch directory, one worker, and its own ``PYTHONHASHSEED``.  The load
generator is this process: two closed-loop connections, each taking the
next request of the shared stream only after its previous ``result``
came back.  Every daemon is stopped through the ``shutdown`` op, and the
daemon plus its worker are reaped before the run goes on.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time
from time import perf_counter
from typing import Dict, List, Optional

from common import Recorder, digest, peak_rss_kb
from repro.exec.envelope import CellSpec
from repro.serve.client import ServeClient, ServeError, ServeUnavailable

#: Closed-loop connections: at most the 2 cores the benchmark is sized for.
CONNECTIONS = 2
#: Seconds a daemon gets to answer ``ping`` or to exit after ``shutdown``.
START_TIMEOUT = 60.0
STOP_TIMEOUT = 60.0
#: Upper bound on one ``result`` wait; a longer one counts as failed.
RESULT_TIMEOUT = 120.0


def descendants(pid: int) -> List[int]:
    """Live descendants of ``pid``, read from ``/proc``."""
    found: List[int] = []
    pending = [pid]
    while pending:
        current = pending.pop()
        try:
            tasks = os.listdir(f"/proc/{current}/task")
        except OSError:
            continue
        for task in tasks:
            try:
                with open(f"/proc/{current}/task/{task}/children") as handle:
                    children = [int(child) for child in handle.read().split()]
            except OSError:
                continue
            found.extend(children)
            pending.extend(children)
    return found


def _stat(pid: int) -> Optional[List[str]]:
    """``/proc/<pid>/stat`` fields after the command name, if it exists."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _gone(pid: int, started: str) -> bool:
    """Whether the process that started at ``started`` has ended (a
    zombie counts; a new process reusing the pid does too)."""
    fields = _stat(pid)
    return fields is None or fields[0] in ("Z", "X") or fields[19] != started


class Daemon:
    """One ``repro serve`` subprocess with its own socket and cache dir."""

    def __init__(self, root: str, scratch: str, name: str, hash_seed: int) -> None:
        self.socket = os.path.join(scratch, f"{name}.sock")
        self.cache_dir = os.path.join(scratch, f"{name}-cache")
        self.log = open(os.path.join(scratch, f"{name}.log"), "wb")
        env = dict(
            os.environ,
            PYTHONPATH=os.path.join(root, "src"),
            PYTHONHASHSEED=str(hash_seed),
        )
        self.started = perf_counter()
        self.process = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--socket",
                self.socket,
                "--workers",
                "1",
                "--cache-dir",
                self.cache_dir,
            ],
            cwd=root,
            env=env,
            stdout=self.log,
            stderr=subprocess.STDOUT,
        )
        self.workers: List[int] = []
        try:
            self.setup_s = self._wait_ready()
        except BaseException:
            self.process.kill()
            self.process.wait()
            self.log.close()
            raise

    def _wait_ready(self) -> float:
        """Seconds from launch until the worker exists and ping answers."""
        deadline = self.started + START_TIMEOUT
        while perf_counter() < deadline:
            if self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited with {self.process.returncode} at start"
                )
            client = ServeClient.try_connect(self.socket)
            if client is not None:
                with client:
                    client.ping()
                self.workers = descendants(self.process.pid)
                if self.workers:
                    return perf_counter() - self.started
            time.sleep(0.005)
        raise RuntimeError("daemon did not answer ping in time")

    def peak_rss_kb(self) -> int:
        """Daemon plus worker ``VmHWM``, read while they are alive."""
        pids = [self.process.pid] + descendants(self.process.pid)
        return sum(peak_rss_kb(pid) for pid in pids)

    def stop(self) -> None:
        """``shutdown`` op, then reap the daemon and wait out its worker."""
        pids = set(descendants(self.process.pid) + self.workers)
        started = {pid: (_stat(pid) or [""] * 20)[19] for pid in pids}
        try:
            with ServeClient(self.socket) as client:
                client.shutdown()
            self.process.wait(timeout=STOP_TIMEOUT)
        except (OSError, ServeError, subprocess.TimeoutExpired):
            self.process.kill()
            self.process.wait()
        deadline = time.monotonic() + STOP_TIMEOUT
        for pid in pids:
            while not _gone(pid, started[pid]):
                if time.monotonic() > deadline:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                time.sleep(0.01)
        self.log.close()


def spec_for(request) -> CellSpec:
    program, target, replication, verify = request
    return CellSpec(
        program=program,
        target=target,
        replication=replication,
        verify=verify or "off",
    )


def drive(daemon: Daemon, stream: List[list], trace: bool) -> Dict:
    """Play ``stream`` over ``CONNECTIONS`` closed-loop connections."""
    recorder = Recorder(trace)
    records: List[Optional[dict]] = [None] * len(stream)
    cursor = iter(range(len(stream)))
    lock = threading.Lock()
    errors: List[str] = []

    def connection() -> None:
        try:
            client = ServeClient(daemon.socket)
        except ServeUnavailable as exc:
            errors.append(str(exc))
            return
        with client:
            while True:
                with lock:
                    index = next(cursor, None)
                if index is None:
                    return
                records[index] = one_request(client, recorder, index, stream[index])

    threads = [threading.Thread(target=connection) for _ in range(CONNECTIONS)]
    start = perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = perf_counter() - start
    return {
        "records": records,
        "start": start,
        "wall": wall,
        "spans": recorder.spans,
        "errors": errors,
    }


def one_request(client: ServeClient, recorder: Recorder, index: int, request) -> dict:
    record = {"request": request, "error": None}
    span = recorder.request(index, "serve.request")
    record["start"] = span.start
    try:
        descriptor = span.call("serve.submit", client.submit, spec_for(request))
        result = span.call(
            "serve.result",
            client.result,
            descriptor["job"],
            wait=True,
            timeout=RESULT_TIMEOUT,
        )
    except (OSError, ServeError) as exc:
        record["latency"] = span.finish()
        record["error"] = f"{type(exc).__name__}: {exc}"
        return record
    if result is None:
        record["error"] = "job cancelled"
    elif not result.ok:
        record["error"] = "cell failed: " + result.error.strip()[-300:]
    fresh = result is not None and not result.cache_hit and not descriptor["coalesced"]
    if fresh:
        # The envelope's own compute timings become children of the
        # ``result`` wait: the layers ran inside the daemon's worker.
        optimize_layer = "verify" if request[3] else "opt"
        span.reported("frontend.compile_c", result.compile_seconds, 1)
        span.reported(f"{optimize_layer}.optimize_program", result.optimize_seconds, 1)
        span.reported("ease.measure_program", result.measure_seconds, 1)
    record["latency"] = span.finish()
    record.update(
        job=descriptor["job"],
        coalesced=descriptor["coalesced"],
        cached=descriptor["cached"],
        fresh=fresh,
    )
    if record["error"] is None:
        measurement = result.measurement
        record.update(
            output=digest(measurement.output),
            exit=measurement.exit_code,
            counts={
                "dyn_insns": measurement.dynamic_insns,
                "dyn_jumps": measurement.dynamic_jumps,
                "code_bytes": measurement.code_bytes,
                **(result.replication_stats or {}),
            },
            compute_s=result.total_seconds,
            verification=result.verification,
        )
    return record
