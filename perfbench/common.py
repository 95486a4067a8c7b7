"""Spans, statistics and count names shared by the benchmark's processes.

Spans are recorded by the benchmark around its calls into the program.

The benchmark wraps each public entry point it calls (``compile_c``,
``optimize_program``, ``make_interpreter``, ``measure_program``,
``simulate_multi_cache``, ``ServeClient.submit`` / ``result``) in a
span; nothing inside the program is traced.  A request is one root span
whose children are those calls, so a layer's self time is its span's
duration minus its children's, and the root's self time is the residual
the layers do not account for.

Spans are kept in memory (a list append per call, safe from several
threads under the interpreter lock) and written out when the run ends.
"""

from __future__ import annotations

import hashlib
import itertools
import statistics
import time
from time import perf_counter
from typing import Dict, Iterable, List, Optional

#: Per-cell counts that must repeat exactly under two ``PYTHONHASHSEED``
#: values (the determinism gate).
GATED_COUNTS = (
    "dyn_insns",
    "dyn_jumps",
    "code_bytes",
    "icache_misses",
    "rtls_out",
    "blocks_out",
    "jumps_replaced",
    "rtls_replicated",
    "rollbacks",
    "guard_stops",
    "valve_trips",
)
#: The ``ReplicationStats`` fields among them (all a served envelope has
#: besides the measurement's own counts).
CORE_COUNTS = GATED_COUNTS[6:]

#: Root span names: their self time is benchmark glue, reported as the
#: residual rather than charged to a layer.
ROOT_SPANS = ("suite.cell", "serve.request")


class Recorder:
    """Collects spans; a disabled recorder only times the request root."""

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[dict] = []
        self._ids = itertools.count(1)

    def add(
        self,
        name: str,
        duration: float,
        request: int,
        parent: Optional[int] = None,
        start: Optional[float] = None,
    ) -> int:
        """Record one span; ``start`` is ``None`` for a duration the
        program reported itself (a result envelope's compute time)."""
        span_id = next(self._ids)
        self.spans.append(
            {
                "id": span_id,
                "name": name,
                "start": start,
                "end": None if start is None else start + duration,
                "duration": duration,
                "parent": parent,
                "request": request,
            }
        )
        return span_id

    def request(self, request_id: int, name: str) -> "Request":
        return Request(self, request_id, name)


class Request:
    """One request: times its root and, when tracing, each wrapped call."""

    def __init__(self, recorder: Recorder, request_id: int, name: str) -> None:
        self.recorder = recorder
        self.request_id = request_id
        self.name = name
        self.children: List[tuple] = []
        self.start = perf_counter()
        self.end: Optional[float] = None

    def call(self, name: str, fn, *args, **kwargs):
        if not self.recorder.enabled:
            return fn(*args, **kwargs)
        start = perf_counter()
        result = fn(*args, **kwargs)
        self.children.append((name, start, perf_counter() - start, None))
        return result

    def reported(self, name: str, duration: float, parent_index: int) -> None:
        """A child of the ``parent_index``-th call, timed by the program."""
        if self.recorder.enabled:
            self.children.append((name, None, duration, parent_index))

    def finish(self) -> float:
        """Close the root span; returns the request latency in seconds."""
        self.end = perf_counter()
        latency = self.end - self.start
        if self.recorder.enabled:
            root = self.recorder.add(
                self.name, latency, self.request_id, start=self.start
            )
            ids: List[int] = []
            for name, start, duration, parent_index in self.children:
                parent = root if parent_index is None else ids[parent_index]
                ids.append(
                    self.recorder.add(
                        name, duration, self.request_id, parent, start
                    )
                )
        return latency


def self_times(span_lists: Iterable[List[dict]], scales) -> Dict[str, float]:
    """Summed self time per span name, each request's spans multiplied
    by its factor in ``scales`` (one mapping or list per span list,
    indexed by request id).

    Each list holds one recorder's spans (ids are per recorder).  The
    root spans' self time is the residual no layer accounts for; all
    values together add up to the summed (scaled) request latency.
    """
    totals: Dict[str, float] = {}
    for spans, scale in zip(span_lists, scales):
        covered: Dict[int, float] = {}
        for span in spans:
            if span["parent"] is not None:
                covered[span["parent"]] = (
                    covered.get(span["parent"], 0.0) + span["duration"]
                )
        for span in spans:
            own = span["duration"] - covered.get(span["id"], 0.0)
            name = span["name"]
            totals[name] = totals.get(name, 0.0) + own * scale[span["request"]]
    return totals


def layer_time(selfs: Dict[str, float], layer: str) -> float:
    """Self time of every non-root span of ``layer``; ``"residual"``
    for the root spans."""
    if layer == "residual":
        return sum(selfs.get(name, 0.0) for name in ROOT_SPANS)
    return sum(
        seconds
        for name, seconds in selfs.items()
        if name.split(".", 1)[0] == layer and name not in ROOT_SPANS
    )


#: Nominal time of :func:`calibrate` (seconds): timings are reported as
#: if every call had taken this long.
CALIBRATION_REFERENCE_S = 0.003


def calibrate() -> float:
    """CPU seconds one fixed loop, independent of the program, takes now.

    Thread CPU time counts only the time the loop ran, so the value
    tracks the speed of the CPU it ran on, not waits for a CPU.
    """
    start = time.thread_time()
    values = [(i * 2654435761) % 100003 for i in range(12000)]
    values.sort()
    sum(values[::7])
    return time.thread_time() - start


def cpu_ticks() -> tuple:
    """``(steal, total)`` clock ticks of all CPUs since boot, from
    ``/proc/stat``: the time the hypervisor ran something else while a
    virtual CPU wanted to run, and all time."""
    with open("/proc/stat") as handle:
        fields = [int(value) for value in handle.readline().split()[1:9]]
    return fields[7], sum(fields)


#: Seconds a speed window is widened by on each side: several sampling
#: intervals, so even a millisecond request averages samples of every CPU.
SPEED_WINDOW_MARGIN_S = 0.5


def speed_factor(samples: List[tuple], start: float, end: float) -> float:
    """What wall-clock seconds in ``[start, end]`` are multiplied by to
    read as seconds at the reference CPU speed.

    ``samples`` are the calibrator's ``(clock, seconds, steal, total)``.
    The loop's time is the mean over the samples taken in the interval
    widened by ``SPEED_WINDOW_MARGIN_S`` (or the nearest one).  It is
    thread CPU time, which leaves out time stolen by the hypervisor, so
    the wall time is also cut by the share of CPU time stolen across the
    same window.
    """
    margin = SPEED_WINDOW_MARGIN_S
    low, high = start - margin, end + margin
    inside = [sample for sample in samples if low <= sample[0] <= high]
    if inside:
        loop = statistics.fmean(sample[1] for sample in inside)
    else:
        middle = (start + end) / 2
        loop = min(samples, key=lambda sample: abs(sample[0] - middle))[1]
    before = [sample for sample in samples if sample[0] <= low] or samples[:1]
    after = [sample for sample in samples if sample[0] >= high] or samples[-1:]
    ticks = after[0][3] - before[-1][3]
    stolen = (after[0][2] - before[-1][2]) / ticks if ticks > 0 else 0.0
    return CALIBRATION_REFERENCE_S / loop * (1.0 - stolen)


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def peak_rss_kb(pid="self") -> int:
    """``VmHWM`` of a process, in kB (0 once the process is gone)."""
    try:
        with open(f"/proc/{pid}/status") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def p50(values: List[float]) -> float:
    return statistics.median(values)


def p90(values: List[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]
