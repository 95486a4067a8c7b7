"""CPU-speed samples taken beside the work the benchmark times.

    python3 perfbench/calibrator.py SAMPLES_FILE   # until stdin closes

The child pins itself to each available CPU in turn, every
``INTERVAL_S``, and appends ``<clock> <seconds> <steal> <total>`` for
one :func:`common.calibrate` call and the ``/proc/stat`` tick counters
(:func:`common.cpu_ticks`).  :class:`Calibration` runs it for the
duration of a ``with`` block.  Suite cells, served requests and set-ups
all run in other processes, so each is scaled by the machine's speed
sampled across all CPUs during its interval (:func:`common.speed_factor`).

The child is load the benchmark adds: one loop of 3-8 ms every
``INTERVAL_S``.  :attr:`Calibration.cpu_share` is the CPU time it took
over its lifetime, as a share of one CPU.
"""

from __future__ import annotations

import itertools
import os
import select
import subprocess
import sys
import time
from typing import List

from common import calibrate, cpu_ticks

INTERVAL_S = 0.2
STOP_TIMEOUT = 60.0


class Calibration:
    """The calibrator child for the duration of a ``with`` block."""

    def __init__(self, scratch: str, name: str) -> None:
        self.path = os.path.join(scratch, f"{name}.speed")
        self.samples: List[tuple] = []
        self.cpu_share = 0.0

    def __enter__(self) -> "Calibration":
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), self.path],
            stdin=subprocess.PIPE,
        )
        while not (os.path.exists(self.path) and os.path.getsize(self.path)):
            if self.process.poll() is not None:
                raise RuntimeError("calibrator exited at start")
            time.sleep(0.005)
        return self

    def __exit__(self, *exc) -> None:
        self.cpu_share = self._cpu_seconds() / (time.perf_counter() - self.started)
        self.process.stdin.close()
        try:
            self.process.wait(timeout=STOP_TIMEOUT)
        except subprocess.TimeoutExpired:
            self.process.kill()
            self.process.wait()
        with open(self.path) as handle:
            for line in handle:
                clock, seconds, steal, total = line.split()
                self.samples.append(
                    (float(clock), float(seconds), int(steal), int(total))
                )

    def _cpu_seconds(self) -> float:
        """User plus system time the child has used so far."""
        try:
            with open(f"/proc/{self.process.pid}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            return 0.0
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def main(path: str) -> int:
    cpus = sorted(os.sched_getaffinity(0))
    with open(path, "w") as out:
        for cpu in itertools.cycle(cpus):
            os.sched_setaffinity(0, {cpu})
            seconds = calibrate()
            steal, total = cpu_ticks()
            out.write(f"{time.perf_counter()} {seconds} {steal} {total}\n")
            out.flush()
            ready, _, _ = select.select([sys.stdin], [], [], INTERVAL_S)
            if ready and not sys.stdin.read(1):
                return 0
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
