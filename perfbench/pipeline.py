"""Child process: the compiler's layers called in process, one cell at a time.

Run from the repository root with ``src`` on ``PYTHONPATH``::

    python3 perfbench/pipeline.py probe
    python3 perfbench/pipeline.py job < job.json

``probe`` imports the toolchain, builds both target machines and prints
one line: the set-up the suite pays before its first cell.  ``job``
reads one JSON job from standard input and prints one JSON result line:

* ``{"kind": "reference", "programs": [...]}`` — each Table-3 program's
  unoptimized front-end output run on the closure interpreter, the
  reference ``verify.oracle`` uses.  It shares no code with the
  optimizer, the replication engine or the compiled execution engine.
* ``{"kind": "cells", "cells": [[program, target, replication], ...],
  "trace": bool}`` — the suite cell pipeline, in the given order, as
  one closed-loop caller with no result cache.
"""

from __future__ import annotations

import json
import sys

from common import CORE_COUNTS, Recorder, digest, peak_rss_kb
from repro.benchsuite.programs import PROGRAMS
from repro.cache import MultiCacheStats, simulate_multi_cache
from repro.cache.direct_mapped import PAPER_CACHE_SIZES, CacheConfig
from repro.ease.compile import make_interpreter
from repro.ease.interp import Interpreter
from repro.ease.measure import measure_program
from repro.frontend.codegen import compile_c
from repro.opt.driver import OptimizationConfig, optimize_program
from repro.targets.machine import get_target

#: The Table-6 grid: 4 cache sizes, each without and with context
#: switches, simulated as 8 states in one walk.
CACHE_CONFIGS = [CacheConfig(size=size) for size in PAPER_CACHE_SIZES] * 2
CONTEXT_SWITCHES = [False] * len(PAPER_CACHE_SIZES) + [True] * len(
    PAPER_CACHE_SIZES
)


def rtl_count(program) -> int:
    return sum(
        len(block.insns)
        for func in program.functions.values()
        for block in func.blocks
    )


def block_count(program) -> int:
    return sum(len(func.blocks) for func in program.functions.values())


def reference(programs):
    out = {}
    for name in programs:
        bench = PROGRAMS[name]
        result = Interpreter(compile_c(bench.source)).run(stdin=bench.stdin)
        out[name] = [digest(result.output), result.exit_code]
    return out


def run_cells(cells, trace):
    """The suite pipeline per cell; returns per-request records + spans."""
    targets = {name: get_target(name) for name in ("sparc", "m68020")}
    recorder = Recorder(trace)
    records = []
    for request_id, (name, target_name, replication) in enumerate(cells):
        bench = PROGRAMS[name]
        target = targets[target_name]
        config = OptimizationConfig(replication=replication)
        sim_stats = MultiCacheStats()
        request = recorder.request(request_id, "suite.cell")
        program = request.call("frontend.compile_c", compile_c, bench.source)
        rtls_in = rtl_count(program)
        stats = request.call(
            "opt.optimize_program", optimize_program, program, target, config
        )
        interp = request.call("ease.make_interpreter", make_interpreter, program)
        measurement = request.call(
            "ease.measure_program",
            measure_program,
            program,
            target,
            stdin=bench.stdin,
            trace=True,
            interpreter=interp,
        )
        results = request.call(
            "cache.simulate_multi_cache",
            simulate_multi_cache,
            measurement.trace,
            measurement.block_fetches,
            CACHE_CONFIGS,
            CONTEXT_SWITCHES,
            stats=sim_stats,
        )
        latency = request.finish()
        replication_stats = stats.as_dict()
        counts = {
            "dyn_insns": measurement.dynamic_insns,
            "dyn_jumps": measurement.dynamic_jumps,
            "code_bytes": measurement.code_bytes,
            "icache_misses": sum(result.misses for result in results),
            "rtls_out": rtl_count(program),
            "blocks_out": block_count(program),
        }
        counts.update({key: replication_stats[key] for key in CORE_COUNTS})
        records.append(
            {
                "cell": [name, target_name, replication],
                "start": request.start,
                "end": request.end,
                "latency": latency,
                "output": digest(measurement.output),
                "exit": measurement.exit_code,
                "counts": counts,
                "rtls_in": rtls_in,
                "trace_records": measurement.trace.record_count,
                "cache_accesses": sum(result.accesses for result in results),
                "fastforward_hits": sim_stats.fastforward_hits,
                "raw_blocks": sim_stats.raw_blocks,
            }
        )
    return {"requests": records, "spans": recorder.spans}


def main(argv) -> int:
    get_target("sparc")
    get_target("m68020")
    if argv[1:] == ["probe"]:
        print(json.dumps({"ready": True}), flush=True)
        return 0
    job = json.load(sys.stdin)
    if job["kind"] == "reference":
        result = {"reference": reference(job["programs"])}
    else:
        result = run_cells(job["cells"], job["trace"])
    result["peak_rss_kb"] = peak_rss_kb()
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
